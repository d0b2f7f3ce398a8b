// Fig. 15: failures without aggressive (proactive) policies.
//
// Operators configure conflict-prone proactive policies to mitigate
// failures; REM removes them (Theorem-2-coordinated offsets) without
// paying a failure penalty. Compares, per speed bucket:
//   * legacy with the operators' proactive mix (baseline);
//   * legacy with Theorem-2-repaired (non-proactive) offsets;
//   * REM (conflict-free by construction).
#include "mobility/simplify.hpp"
#include "scenario_runner.hpp"

#include <cstdio>

using namespace rem;

namespace {

/// Legacy over the shared world with repaired offsets, checked; the
/// simulation takes fork 2, as run_seed's legacy run does.
sim::SimStats run_legacy_repaired(const trace::Scenario& sc,
                                  std::uint64_t seed) {
  auto w = bench::build_world(sc, seed);
  // Theorem-2 repair of the A3 offsets (lifts the proactive negatives).
  auto pcs = trace::to_policy_cells(w.env.cells(), w.legacy.policies);
  mobility::coordinate_offsets(pcs);
  for (const auto& pc : pcs) w.legacy.policies[pc.id.cell] = pc.policy;

  phy::LogisticBlerModel bler;
  core::LegacyManager mgr(w.legacy);
  return bench::run_checked(w, sc.sim, bench::Manager::kLegacy, w.rng.fork(),
                            bler, bench::with_context({}, sc, seed),
                            [&](sim::Simulator& s) { return s.run(mgr); });
}

}  // namespace

int main() {
  std::printf("Fig. 15: failure ratio w/o coverage holes, with and without "
              "aggressive policies\n");
  std::printf("  %-14s %14s %15s %10s\n", "speed", "OFDM proactive",
              "OFDM repaired", "REM");
  const struct {
    const char* label;
    double speed;
  } buckets[] = {{"<200 km/h", 150.0},
                 {"200-300 km/h", 250.0},
                 {"300-350 km/h", 330.0}};
  const std::vector<std::uint64_t> seeds = {41, 42};
  for (const auto& b : buckets) {
    const auto sc =
        trace::make_scenario(trace::Route::kBeijingShanghai, b.speed, 1500.0);
    const auto base = bench::run_route(sc, seeds);
    bench::AggregateStats repaired;
    for (const auto seed : seeds) repaired.add(run_legacy_repaired(sc, seed));
    std::printf("  %-14s %13.2f%% %14.2f%% %9.2f%%\n", b.label,
                bench::pct(base.legacy.failure_ratio_excluding_holes()),
                bench::pct(repaired.failure_ratio_excluding_holes()),
                bench::pct(base.rem.failure_ratio_excluding_holes()));
  }
  std::printf(
      "\nPaper reference (Fig. 15): removing the conflict-prone proactive "
      "policies does not\nraise REM's failures — fast feedback and OTFS "
      "signaling replace the proactive gamble.\n");
  return 0;
}
