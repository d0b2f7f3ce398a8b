// Batched cross-band estimator gate: times estimate_batch (SoA SFFT +
// blocked Jacobi svd_batch, arena-backed) against a loop of estimate()
// calls on the same inputs, at three grid shapes, and writes the result to
// BENCH_DSP.json (or argv[1]). End-to-end and per-layer timing of the
// engine lives in perfbench/ (perfbench/METRICS.md); this binary keeps
// only the estimator's correctness and speedup gates.
//
// Exit-code gates: the batched estimator must match the singles loop
// within a relative 1e-10, make zero steady-state heap allocations, and
// (full runs only) clear a >= 4x estimates/sec speedup at batch 64
// single-threaded.
//
// Usage: bench_perf [--smoke] [output.json]   (run from the repo root so
// the JSON lands next to README.md). --smoke shrinks the workload to a
// few seconds for ctest (label `perf`) and skips the speedup gate; the
// match and allocation gates still apply.
#include "common/rng.hpp"
#include "crossband/rem_svd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

rem::dsp::Matrix random_grid(std::size_t m, std::size_t n,
                             rem::common::Rng& rng) {
  rem::dsp::Matrix g(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.complex_gaussian(1.0);
  return g;
}

// One shape's estimates/sec measurement (singles loop vs estimate_batch).
struct EstResult {
  std::string name;
  std::size_t reps = 0;       ///< timed calls per path
  double singles_eps = 0.0;   ///< estimates/sec, loop of estimate()
  double batched_eps = 0.0;   ///< estimates/sec, estimate_batch, 1 thread
  double max_abs_diff = 0.0;  ///< worst |h2 - h2_batch| entry across batch
  double max_rel_diff = 0.0;  ///< max_abs_diff / max |h2| entry (singles)
  std::size_t steady_allocs = 0;  ///< arena growths across the timed calls
  double speedup() const { return batched_eps / singles_eps; }
};

EstResult bench_estimates(const std::string& name, std::size_t m,
                          std::size_t n, std::size_t batch, std::size_t reps,
                          rem::common::Rng& rng) {
  std::vector<rem::crossband::CrossbandInput> inputs(batch);
  for (auto& in : inputs) {
    in.h1_dd = random_grid(m, n, rng);
    in.h1_tf = rem::dsp::Matrix(m, n);
    in.num = rem::phy::Numerology::lte(m, n);
    in.f1_hz = 1.88e9;
    in.f2_hz = 2.6e9;
  }

  EstResult r;
  r.name = name;
  r.reps = reps;

  rem::crossband::RemSvdEstimator singles;
  std::vector<rem::crossband::CrossbandOutput> singles_out(batch);
  const auto run_singles = [&] {
    for (std::size_t i = 0; i < batch; ++i)
      singles_out[i] = singles.estimate(inputs[i]);
  };
  run_singles();  // warm-up: primes the FFT plan cache
  const auto s0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) run_singles();
  const auto s1 = Clock::now();
  const double singles_ns =
      std::chrono::duration<double, std::nano>(s1 - s0).count() /
      static_cast<double>(reps);

  rem::crossband::RemSvdEstimator batched;  // batch_threads defaults to 1
  std::vector<rem::crossband::CrossbandOutput> batched_out(batch);
  // Two warm calls: the first grows the arena chunk by chunk, the second's
  // reset() coalesces to the high-water chunk. From then on the arena
  // grow count must stay flat — that delta is the zero-allocation gate.
  batched.estimate_batch(inputs, batched_out);
  batched.estimate_batch(inputs, batched_out);
  const std::size_t grows_before = batched.arena_grows();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i)
    batched.estimate_batch(inputs, batched_out);
  const auto t1 = Clock::now();
  const double batched_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(reps);
  r.steady_allocs = batched.arena_grows() - grows_before;

  // Match is gated on the diff relative to the largest singles |h2| entry:
  // the entries themselves are O(gain), so an absolute 1e-10 bar would
  // tighten or loosen with the random channel draw.
  double max_entry = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    r.max_abs_diff =
        std::max(r.max_abs_diff, rem::dsp::Matrix::max_abs_diff(
                                     singles_out[i].h2, batched_out[i].h2));
    for (const auto& x : singles_out[i].h2.data())
      max_entry = std::max(max_entry, std::abs(x));
  }
  r.max_rel_diff = r.max_abs_diff / (max_entry + 1e-300);
  r.singles_eps = 1e9 * static_cast<double>(batch) / singles_ns;
  r.batched_eps = 1e9 * static_cast<double>(batch) / batched_ns;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      out_path = argv[i];
  }
  if (out_path.empty())
    out_path = smoke ? "BENCH_DSP.smoke.json" : "BENCH_DSP.json";
  rem::common::Rng rng(7);

  // At batch 64, single-threaded, the SoA pipeline (BatchMatrix pack +
  // svd_batch + split-plane extraction, zero steady allocations) must
  // clear kEstGate x the throughput of looping the scalar estimator, with
  // matching results. --smoke divides the repetitions by 10 and shrinks
  // the batch to 8, and skips the speedup gate.
  constexpr double kEstGate = 4.0;
  struct EstCase {
    std::string name;
    std::size_t m, n, reps;
  };
  const std::vector<EstCase> est_cases = {
      {"est_12x14", 12, 14, 40},
      {"est_64x16", 64, 16, 6},
      {"est_128x64", 128, 64, 2},
  };
  const std::size_t est_batch = smoke ? 8 : 64;
  std::vector<EstResult> est_results;
  bool est_match_ok = true;
  bool est_alloc_ok = true;
  bool est_gate_ok = true;
  for (const auto& c : est_cases) {
    const std::size_t reps = std::max<std::size_t>(1, c.reps / (smoke ? 10 : 1));
    const auto r = bench_estimates(c.name, c.m, c.n, est_batch, reps, rng);
    est_match_ok = est_match_ok && r.max_rel_diff <= 1e-10;
    est_alloc_ok = est_alloc_ok && r.steady_allocs == 0;
    if (!smoke) est_gate_ok = est_gate_ok && r.speedup() >= kEstGate;
    std::printf(
        "%-12s singles %9.1f est/s  batched %9.1f est/s  %5.2fx  "
        "reldiff %.2e  steady allocs %zu  reps %zu\n",
        r.name.c_str(), r.singles_eps, r.batched_eps, r.speedup(),
        r.max_rel_diff, r.steady_allocs, r.reps);
    est_results.push_back(r);
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::ofstream js(out_path);
  js << "{\n";
  js << "  \"hardware_threads\": " << hw_threads << ",\n";
  js << "  \"build_type\": \"" << REM_BUILD_TYPE << "\",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"estimates_per_sec\": {\n";
  js << "    \"batch\": " << est_batch << ",\n";
  js << "    \"batch_threads\": 1,\n";
  js << "    \"gate_min_speedup\": " << kEstGate << ",\n";
  js << "    \"gate_enforced\": " << (smoke ? "false" : "true") << ",\n";
  for (const auto& r : est_results) {
    js << "    \"" << r.name << "\": {\"reps\": " << r.reps
       << ", \"singles_eps\": " << r.singles_eps
       << ", \"batched_eps\": " << r.batched_eps
       << ", \"speedup\": " << r.speedup()
       << ", \"max_abs_diff\": " << r.max_abs_diff
       << ", \"max_rel_diff\": " << r.max_rel_diff
       << ", \"steady_state_allocs\": " << r.steady_allocs << "},\n";
  }
  js << "    \"match_rel_1e10\": " << (est_match_ok ? "true" : "false")
     << ",\n";
  js << "    \"zero_alloc\": " << (est_alloc_ok ? "true" : "false") << ",\n";
  js << "    \"gate_passed\": " << (est_gate_ok ? "true" : "false") << "\n";
  js << "  }\n";
  js << "}\n";
  std::printf("wrote %s (hardware threads %u, build type %s)\n",
              out_path.c_str(), hw_threads, REM_BUILD_TYPE);
  const bool ok = est_match_ok && est_alloc_ok && est_gate_ok;
  if (!ok)
    std::printf("GATE FAILED: est_match=%d est_zero_alloc=%d "
                "est_speedup_gate=%d\n",
                est_match_ok, est_alloc_ok, est_gate_ok);
  return ok ? 0 : 1;
}
