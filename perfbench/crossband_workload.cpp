// crossband_batch workload: RemSvdEstimator::estimate_batch on one thread,
// batch 64, 64x16 LTE numerology, 1.88 -> 2.6 GHz. Inputs are HST-350
// channels at 350 km/h measured through the delay-Doppler pilot chain at
// 20 dB pilot SNR, the way crossband/metrics.cpp's evaluation does, so the
// SVD sees realistic sparse (low-rank) channels.
//
// Every timed batch is checked against the singles path (estimate() per
// input) to a relative 1e-10, and the estimator's arenas must not grow
// after the two warm-up calls.
#include "crossband_workload.hpp"

#include "channel/profiles.hpp"
#include "crossband/metrics.hpp"
#include "crossband/rem_svd.hpp"
#include "dsp/fft_batch.hpp"
#include "dsp/svd.hpp"
#include "phy/channel_est.hpp"
#include "build_info.hpp"
#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {
namespace {

using namespace rem;

constexpr double kF1 = 1.88e9;
constexpr double kF2 = 2.6e9;
constexpr double kPilotSnrDb = 20.0;
constexpr std::size_t kPatchM = 12;  // EvalConfig's measurement patch
constexpr std::size_t kPatchN = 4;

struct Inputs {
  std::vector<crossband::CrossbandInput> in;
  std::vector<double> true_gain;  ///< band-2 patch gain, Doppler-scaled truth
  std::vector<std::size_t> k0, l0;
};

double patch_gain(const dsp::Matrix& h, std::size_t k0, std::size_t l0) {
  double g = 0.0;
  for (std::size_t k = 0; k < kPatchM; ++k)
    for (std::size_t l = 0; l < kPatchN; ++l) g += std::norm(h(k0 + k, l0 + l));
  return g / static_cast<double>(kPatchM * kPatchN);
}

Inputs make_inputs(std::uint64_t seed, std::size_t batch,
                   const phy::Numerology& num) {
  Inputs x;
  common::Rng rng(seed);
  channel::ChannelDrawConfig draw;
  draw.profile = channel::Profile::kHST350;
  draw.speed_mps = 350.0 / 3.6;
  draw.carrier_hz = kF1;
  const phy::DdChannelEstimator dd(num);
  for (std::size_t i = 0; i < batch; ++i) {
    const auto ch1 = channel::draw_channel(draw, rng);
    const auto ch2 = ch1.with_doppler_scaled(kF2 / kF1);
    crossband::CrossbandInput in;
    in.num = num;
    in.f1_hz = kF1;
    in.f2_hz = kF2;
    in.h1_dd = dd.estimate(ch1, kPilotSnrDb, rng).h;
    in.h1_tf = crossband::measure_tf(ch1, num, kPilotSnrDb, rng);
    const auto k0 = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(num.num_subcarriers - kPatchM)));
    const auto l0 = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(num.num_symbols - kPatchN)));
    const auto h2 = ch2.tf_matrix(num.num_subcarriers, num.num_symbols,
                                  num.subcarrier_spacing_hz,
                                  num.symbol_duration_s());
    x.in.push_back(std::move(in));
    x.true_gain.push_back(patch_gain(h2, k0, l0));
    x.k0.push_back(k0);
    x.l0.push_back(l0);
  }
  return x;
}

/// Largest |batched - singles| entry relative to the largest singles entry,
/// per estimate.
double rel_diff(const crossband::CrossbandOutput& got,
                const crossband::CrossbandOutput& ref) {
  double max_entry = 0.0;
  for (const auto& v : ref.h2.data()) max_entry = std::max(max_entry, std::abs(v));
  return dsp::Matrix::max_abs_diff(got.h2, ref.h2) / (max_entry + 1e-300);
}

/// Time `body` `reps` times; returns the median call's ns.
template <typename F>
double median_ns(std::size_t reps, F&& body) {
  std::vector<double> ns;
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return spread_of(ns).median;
}

}  // namespace

void run_crossband_workload(const Options& o, Report& r) {
  const std::size_t batch = o.tiny ? 8 : 64;
  const phy::Numerology num = phy::Numerology::lte(64, 16);
  const auto t_start = Clock::now();

  // Set-up: channel draws, input build and the two warm-up calls, reported
  // as the median. It is done twice here and again every kCallsPerSetup
  // timed calls, in place and from the same seed, so the median samples
  // the whole run rather than its first second.
  constexpr std::size_t kCallsPerSetup = 128;
  std::vector<double> setup;
  Inputs x;
  crossband::RemSvdEstimator est;
  std::vector<crossband::CrossbandOutput> out(batch);
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    x = make_inputs(o.seed, batch, num);
    est = crossband::RemSvdEstimator{};
    out.assign(batch, {});
    est.estimate_batch(x.in, out);
    est.estimate_batch(x.in, out);
    setup.push_back(seconds_since(t0));
  };
  set_up();
  set_up();

  // Reference: the singles path, one estimate() per input.
  crossband::RemSvdEstimator single;
  std::vector<crossband::CrossbandOutput> ref(batch);
  double paths = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    ref[i] = single.estimate(x.in[i]);
    paths += static_cast<double>(single.last_paths().size());
  }

  double snr_err = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const double g = std::max(
        patch_gain(crossband::output_as_tf(out[i]), x.k0[i], x.l0[i]), 1e-12);
    snr_err += std::abs(10.0 * std::log10(g / x.true_gain[i]));
  }
  snr_err /= static_cast<double>(batch);

  // Timed loop. Traced runs alternate plain calls with calls recorded as
  // spans, for the tracing overhead.
  SpanLog spans(1);  // every span-recorded call is kept
  if (o.trace) spans.begin_run("crossband.estimate_batch_loop");
  const double budget_s = o.trace ? 0.6 * o.seconds : o.seconds;
  std::size_t grows_before = est.arena_grows();
  std::size_t steady_grows = 0;
  std::vector<double> call_ns, traced_ns;
  std::vector<double> ref_slices = {reference_slice_s()};
  double worst_rel = 0.0;
  std::size_t calls = 0;
  while (calls < 8 || seconds_since(t_start) < budget_s) {
    const bool traced = o.trace && calls % 2 == 1;
    const std::int64_t t0 = now_ns();
    est.estimate_batch(x.in, out);
    const std::int64_t t1 = now_ns();
    if (traced) {
      spans.leaf("crossband.estimate_batch", t0, t1);
      traced_ns.push_back(static_cast<double>(t1 - t0));
    } else {
      call_ns.push_back(static_cast<double>(t1 - t0));
    }
    ++calls;
    if (o.inject == "mismatch" && calls == 2) out[0].h2(0, 0) *= 1.5;
    for (std::size_t i = 0; i < batch; ++i) {
      const double d = rel_diff(out[i], ref[i]);
      worst_rel = std::max(worst_rel, d);
      ++r.attempted;
      if (!(d <= 1e-10)) ++r.failed;
    }
    if (calls % 16 == 0) ref_slices.push_back(reference_slice_s());
    if (calls % kCallsPerSetup == 0) {
      steady_grows += est.arena_grows() - grows_before;
      set_up();
      grows_before = est.arena_grows();
    }
  }
  if (o.trace) spans.end_run();
  steady_grows += est.arena_grows() - grows_before;
  if (r.failed > 0)
    r.fail(std::to_string(r.failed) +
           " batched estimates differ from the singles path by more than "
           "1e-10 relative (worst " + std::to_string(worst_rel) + ")");
  if (steady_grows > 0)
    r.fail("estimate_batch arena grew " + std::to_string(steady_grows) +
           " times after warm-up");
  if (!std::isfinite(snr_err)) r.fail("band-2 SNR error is not finite");

  // Every call does the same work, so the rate is one batch over the
  // 2%-quantile time of the untraced calls: the shared host this runs on
  // slows whole stretches of a run by 20-50%, which the mean over all calls
  // (kept as a detail) takes in and the fast tail does not. The set-up time
  // is the median set-up's. Reference slices timed every 16 calls scale
  // both metrics to the nominal machine (SpeedScale); the details keep the
  // unscaled figures.
  const Spread calls_spread = spread_of(call_ns);
  const Spread st = spread_of(setup);
  double call_total_ns = 0.0;
  for (const double ns : call_ns) call_total_ns += ns;
  const double eps =
      1e9 * static_cast<double>(batch) / quantile_of(call_ns, 0.02);
  r.info_num("batch", static_cast<double>(batch));
  r.info_str("grid", "64x16 (LTE numerology), HST-350 at 350 km/h, 20 dB pilot SNR");
  r.info_num("batch_calls", static_cast<double>(calls));
  r.info_num("estimates_per_s", eps);
  const SpeedScale speed = speed_scale(ref_slices);
  r.info_num("speed_scale.fast", speed.fast);
  r.info_num("speed_scale.typical", speed.typical);
  r.info_num("estimates_per_s.summed_wall",
             1e9 * static_cast<double>(batch * call_ns.size()) / call_total_ns);
  r.info_num("estimates_per_s.call_median",
             1e9 * static_cast<double>(batch) / calls_spread.median);
  r.info_num("estimates_per_s.call_q1",
             1e9 * static_cast<double>(batch) / calls_spread.q3);
  r.info_num("estimates_per_s.call_q3",
             1e9 * static_cast<double>(batch) / calls_spread.q1);
  r.info_num("setups", static_cast<double>(st.n));
  r.info_num("setup_s.median", st.median);
  r.info_num("setup_s.q1", st.q1);
  r.info_num("setup_s.q3", st.q3);
  r.info_num("max_rel_diff_vs_singles", worst_rel);
  r.info_num("arena_steady_state_grows", static_cast<double>(steady_grows));
  r.info_num("crossband_snr_error_db", snr_err);
  r.info_str("batched_tu_flags", PERFBENCH_BATCH_TU_FLAGS);
  r.info_str("singles_tu_flags", PERFBENCH_SINGLES_TU_FLAGS);
  r.info_str("flags_note",
             "estimate_batch_ns and estimate_ns are not like-for-like: the "
             "batched TUs get extra optimisation flags the singles baseline "
             "does not");

  if (!o.trace) {
    r.metric("throughput_per_s", eps * speed.fast, "1/s");
    r.metric("setup_s", st.median / speed.typical, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run: per-layer metrics ----
  const double per = static_cast<double>(batch);
  const double batch_ns = calls_spread.median;
  r.metric("crossband.estimate_batch_ns", batch_ns / per, "ns");
  const std::size_t reps = o.tiny ? 2 : 20;
  spans.begin_run("crossband.estimate_singles");
  r.metric("crossband.estimate_ns", median_ns(reps, [&] {
             const std::int64_t t0 = now_ns();
             for (std::size_t i = 0; i < batch; ++i) ref[i] = single.estimate(x.in[i]);
             spans.leaf("crossband.estimate", t0, now_ns());
           }) / per,
           "ns");
  spans.end_run();

  // Replay of the public batch kernels on the workload's own grids.
  dsp::Arena arena;
  const auto replay = [&](const char* name, auto&& kernel) {
    spans.begin_run(name);
    std::vector<double> ns;
    for (std::size_t i = 0; i < reps; ++i) {
      arena.reset();
      dsp::BatchMatrix grid(arena, batch, num.num_subcarriers, num.num_symbols);
      for (std::size_t b = 0; b < batch; ++b) grid.load(b, x.in[b].h1_dd);
      const std::int64_t t0 = now_ns();
      kernel(grid);
      const std::int64_t t1 = now_ns();
      spans.leaf(name, t0, t1);
      ns.push_back(static_cast<double>(t1 - t0));
    }
    spans.end_run();
    return spread_of(ns).median / per;
  };
  r.metric("dsp.sfft_batch_ns",
           replay("dsp.sfft_batch",
                  [&](dsp::BatchMatrix& g) { dsp::sfft_batch(g, arena); }),
           "ns");
  r.metric("dsp.svd_batch_ns",
           replay("dsp.svd_batch",
                  [&](dsp::BatchMatrix& g) { dsp::svd_batch(g, arena); }),
           "ns");
  r.metric("crossband.paths_per_estimate", paths / per, "count");
  r.metric("dsp.arena.steady_state_grows", static_cast<double>(steady_grows),
           "count");
  r.metric("crossband_snr_error_db", snr_err, "dB");
  const Spread tr = spread_of(traced_ns);
  r.metric("bench.trace_overhead_pct",
           100.0 * (tr.median - calls_spread.median) / calls_spread.median, "%");

  r.info_num("spans_recorded", static_cast<double>(spans.size()));
  if (!o.span_out.empty() && !spans.write_jsonl(o.span_out))
    r.fail("cannot write spans to " + o.span_out);
  else if (!o.span_out.empty())
    r.info_str("spans_file", o.span_out);
}

}  // namespace perfbench
