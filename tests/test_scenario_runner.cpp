// The seed-parallel scenario runner must produce output bit-identical to
// the serial runner for the same seed list, independent of thread count:
// every floating-point accumulation happens in merge_seed_results() in seed
// order, never in completion order. Also pins what the one checker-config
// builder hands each manager family, and that the identity comparison and
// the sweep writer cover every sim::kStatsTable row.
#include "scenario_runner.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace {

using rem::bench::AggregateStats;
using rem::bench::ScenarioRun;

const std::vector<std::string> kIdentical;

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
    EXPECT_EQ(rem::bench::run_differences(serial, par), kIdentical);
  }
}

TEST(ScenarioRunner, LegacyOnlyParallelMatchesSerial) {
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  const auto sc = rem::trace::make_scenario(
      rem::trace::Route::kBeijingTaiyuan, 250.0, 150.0);
  const auto serial = rem::bench::run_route(sc, seeds, /*run_rem=*/false);
  const auto par =
      rem::bench::run_route_parallel(sc, seeds, /*run_rem=*/false, 3);
  EXPECT_EQ(rem::bench::run_differences(serial, par), kIdentical);
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

TEST(StatsDifferences, NamesEachChangedSimStatsField) {
  using rem::bench::stats_differences;
  const rem::sim::SimStats base;
  EXPECT_EQ(stats_differences(base, base), kIdentical);
  for (const auto& row : rem::sim::kStatsTable) {
    auto changed = base;
    std::visit([&](auto field) { changed.*field += 1; }, row.field);
    EXPECT_EQ(stats_differences(base, changed),
              std::vector<std::string>{row.name});
  }
  const auto expect_named = [&](const std::string& name, auto mutate) {
    auto changed = base;
    mutate(changed);
    EXPECT_EQ(stats_differences(base, changed),
              std::vector<std::string>{name});
  };
  expect_named("failures_by_cause", [](rem::sim::SimStats& s) {
    s.failures_by_cause[rem::sim::FailureCause::kCoverageHole] = 1;
  });
  expect_named("outage_durations_s", [](rem::sim::SimStats& s) {
    s.outage_durations_s.push_back(1.0);
  });
  expect_named("feedback_delays_s", [](rem::sim::SimStats& s) {
    s.feedback_delays_s.push_back(1.0);
  });
  expect_named("pre_failure_snrs_db", [](rem::sim::SimStats& s) {
    s.pre_failure_snrs_db.push_back(1.0);
  });
  expect_named("events",
               [](rem::sim::SimStats& s) { s.events.emplace_back(); });
}

TEST(StatsDifferences, NamesAggregateSamplesAndPrefixesManagers) {
  using rem::bench::stats_differences;
  const AggregateStats base;
  for (const auto& row : rem::sim::kStatsTable) {
    if (!rem::bench::is_per_run_mean(row)) continue;
    auto changed = base;
    changed.samples_of(std::get<double rem::sim::SimStats::*>(row.field))
        .add(1.0);
    EXPECT_EQ(stats_differences(base, changed),
              std::vector<std::string>{row.name});
  }
  auto changed = base;
  changed.by_cause[rem::sim::FailureCause::kCoverageHole] = 1;
  changed.feedback_delay_s.add(1.0);
  EXPECT_EQ(stats_differences(base, changed),
            (std::vector<std::string>{"by_cause", "feedback_delay_s"}));

  ScenarioRun a, b;
  b.legacy.handovers = 1;
  b.rem.failures = 1;
  b.total_conflicts = 1;
  EXPECT_EQ(rem::bench::run_differences(a, b),
            (std::vector<std::string>{"legacy.handovers", "rem.failures",
                                      "total_conflicts"}));
}

TEST(StatsJson, WritesEveryTableRowWithMeansOverRuns) {
  AggregateStats agg;
  rem::sim::SimStats run;
  run.handovers = 3;
  run.backhaul_dropped_crash = 2;
  run.downtime_fraction = 0.25;
  agg.add(run);
  run.downtime_fraction = 0.75;
  agg.add(run);
  std::ostringstream os;
  rem::bench::write_stats_json(os, agg, 0.5, {{"extra_key", 1.5}});
  const std::string js = os.str();
  for (const auto& row : rem::sim::kStatsTable)
    EXPECT_NE(js.find("\"" + std::string(row.name) + "\": "),
              std::string::npos)
        << row.name;
  EXPECT_NE(js.find("\"handovers\": 6,"), std::string::npos) << js;
  EXPECT_NE(js.find("\"downtime_fraction\": 0.5,"), std::string::npos) << js;
  // Crash drops count toward backhaul_dropped.
  EXPECT_NE(js.find("\"backhaul_dropped\": 4,"), std::string::npos) << js;
  EXPECT_NE(js.find("\"failure_ratio\": 0.5, \"extra_key\": 1.5}"),
            std::string::npos)
      << js;
}
