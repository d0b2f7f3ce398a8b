// The seed-parallel scenario runner must produce output bit-identical to
// the serial runner for the same seed list, independent of thread count:
// every floating-point accumulation happens in merge_seed_results() in seed
// order, never in completion order. Also pins what the one checker-config
// builder hands each manager family.
#include "scenario_runner.hpp"

#include <gtest/gtest.h>

namespace {

using rem::bench::AggregateStats;
using rem::bench::ScenarioRun;

void expect_identical(const AggregateStats& a, const AggregateStats& b,
                      const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.by_cause, b.by_cause);
  EXPECT_EQ(a.loop_episodes, b.loop_episodes);
  EXPECT_EQ(a.loop_handovers, b.loop_handovers);
  EXPECT_EQ(a.conflict_loop_episodes, b.conflict_loop_episodes);
  EXPECT_EQ(a.conflict_loop_handovers, b.conflict_loop_handovers);
  EXPECT_EQ(a.intra_freq_conflict_loops, b.intra_freq_conflict_loops);
  // Doubles compared with == on purpose: the guarantee is bit-identity.
  EXPECT_EQ(a.sim_time_s, b.sim_time_s);
  EXPECT_EQ(a.handover_interval_s.samples(), b.handover_interval_s.samples());
  EXPECT_EQ(a.feedback_delay_s.samples(), b.feedback_delay_s.samples());
  EXPECT_EQ(a.outage_durations_s, b.outage_durations_s);
  EXPECT_EQ(a.pre_failure_snrs_db, b.pre_failure_snrs_db);
  EXPECT_EQ(a.throughput_bps.samples(), b.throughput_bps.samples());
  EXPECT_EQ(a.downtime_fraction.samples(), b.downtime_fraction.samples());
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  expect_identical(a.legacy, b.legacy, "legacy");
  expect_identical(a.rem, b.rem, "rem");
  EXPECT_EQ(a.conflict_histogram, b.conflict_histogram);
  EXPECT_EQ(a.total_conflicts, b.total_conflicts);
}

}  // namespace

TEST(ScenarioRunner, ParallelIsBitIdenticalAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds = {3, 1, 7, 2};
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, 200.0);

  const auto serial = rem::bench::run_route(sc, seeds);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto par =
        rem::bench::run_route_parallel(sc, seeds, true, threads);
    expect_identical(serial, par);
  }
}

TEST(ScenarioRunner, LegacyOnlyParallelMatchesSerial) {
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingTaiyuan, 250.0, 150.0);
  const auto serial = rem::bench::run_route(sc, seeds, /*run_rem=*/false);
  const auto par =
      rem::bench::run_route_parallel(sc, seeds, /*run_rem=*/false, 3);
  expect_identical(serial, par);
  EXPECT_EQ(par.rem.handovers, 0);
  EXPECT_TRUE(par.rem.throughput_bps.samples().empty());
}

TEST(ScenarioRunner, MergeOrderFollowsSeedListNotCompletion) {
  // Two permutations of the same seed list must yield the same totals but
  // merge per-seed samples in their respective list orders.
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingShanghai, 300.0, 150.0);
  const auto ab = rem::bench::run_route_parallel(sc, {5, 9}, true, 2);
  const auto ba = rem::bench::run_route_parallel(sc, {9, 5}, true, 2);
  EXPECT_EQ(ab.legacy.handovers, ba.legacy.handovers);
  EXPECT_EQ(ab.legacy.failures, ba.legacy.failures);
  ASSERT_EQ(ab.legacy.throughput_bps.samples().size(),
            ba.legacy.throughput_bps.samples().size());
  if (ab.legacy.throughput_bps.samples().size() == 2) {
    EXPECT_EQ(ab.legacy.throughput_bps.samples()[0],
              ba.legacy.throughput_bps.samples()[1]);
    EXPECT_EQ(ab.legacy.throughput_bps.samples()[1],
              ba.legacy.throughput_bps.samples()[0]);
  }
}

TEST(ScenarioRunner, CheckerConfigFollowsManagerFamilyAndFaults) {
  using rem::bench::Manager;
  auto sim = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                       300.0, 80.0)
                 .sim;
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faults" : "no faults");
    if (faulted)
      sim.faults.windows.push_back(
          {rem::sim::FaultKind::kPilotOutage, 15.0, 8.0, 4.0});
    const auto rem = rem::bench::checker_config(sim, 42, Manager::kRem);
    const auto legacy = rem::bench::checker_config(sim, 42, Manager::kLegacy);
    // REM's degraded entries are checked against its staleness bound.
    EXPECT_EQ(rem.staleness_bound_s,
              rem::core::RemConfig{}.estimate_staleness_s);
    EXPECT_GE(rem.staleness_bound_s, 0.0);
    EXPECT_FALSE(rem.expect_no_degraded);
    // Legacy has no fallback mode: any degraded transition is a violation.
    EXPECT_TRUE(legacy.expect_no_degraded);
    for (const auto* c : {&rem, &legacy}) {
      EXPECT_EQ(c->faults_expected, !sim.faults.empty());
      EXPECT_EQ(c->faults_expected, faulted);
      EXPECT_EQ(c->num_cells, 42u);
    }
  }
}
