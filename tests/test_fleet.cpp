// Fleet-scale verification layer (label: fleet): the multi-UE engine is
// pinned against the single-UE simulator bit-for-bit and across thread
// counts.
//
//  - a fleet of one reproduces a single-UE Simulator::run exactly (same
//    RNG derivation, same stats, same event log) for both managers;
//  - both entry points reject a bad clock (zero, negative or non-finite
//    tick; negative or non-finite horizon) instead of spinning;
//  - a batch of fleet seeds merged in seed order is bit-identical at 1, 2,
//    and 8 worker threads;
//  - per-UE stats fold into the fleet aggregate under the documented
//    rules, and fleet_invariant_report stays clean on real runs;
//  - a 100-UE fleet completes under one InvariantChecker per UE.
#include "fleet_runner.hpp"

#include "common/thread_pool.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using rem::bench::FleetRunOptions;
using rem::bench::run_fleet_seed;

/// Exact equality over every SimStats field; the event log compares via
/// size + the golden corpus's bit-exact FNV hash.
void expect_stats_eq(const rem::sim::SimStats& a, const rem::sim::SimStats& b,
                     bool compare_violations = true) {
#define REM_EQ(field) EXPECT_EQ(a.field, b.field) << #field
  REM_EQ(sim_time_s);
  REM_EQ(handovers);
  REM_EQ(successful_handovers);
  REM_EQ(failures);
  REM_EQ(failures_by_cause);
  REM_EQ(loop_handovers);
  REM_EQ(loop_episodes);
  REM_EQ(intra_freq_loop_episodes);
  REM_EQ(conflict_loop_episodes);
  REM_EQ(conflict_loop_handovers);
  REM_EQ(intra_freq_conflict_loops);
  REM_EQ(avg_handover_interval_s);
  REM_EQ(outage_durations_s);
  REM_EQ(feedback_delays_s);
  REM_EQ(report_retransmits);
  REM_EQ(t304_expiries);
  REM_EQ(t304_fallback_success);
  REM_EQ(duplicate_commands);
  REM_EQ(degraded_enters);
  REM_EQ(degraded_time_s);
  REM_EQ(prep_requests);
  REM_EQ(prep_retries);
  REM_EQ(prep_acks);
  REM_EQ(prep_rejects);
  REM_EQ(prep_fallbacks);
  REM_EQ(prep_failures);
  REM_EQ(prep_rtt_sum_s);
  REM_EQ(context_fetch_failures);
  REM_EQ(backhaul_sent);
  REM_EQ(backhaul_delivered);
  REM_EQ(backhaul_dropped_loss);
  REM_EQ(backhaul_dropped_partition);
  REM_EQ(backhaul_dropped_queue);
  REM_EQ(backhaul_dropped_crash);
  REM_EQ(backhaul_duplicated);
  REM_EQ(backhaul_reordered);
  REM_EQ(backhaul_latency_sum_s);
  REM_EQ(bs_jobs_submitted);
  REM_EQ(bs_jobs_served);
  REM_EQ(bs_jobs_queued);
  REM_EQ(bs_queue_shed);
  REM_EQ(bs_jobs_flushed);
  REM_EQ(bs_jobs_inflight_end);
  REM_EQ(bs_queue_wait_sum_s);
  REM_EQ(admission_rejects);
  REM_EQ(admission_backoff_retries);
  REM_EQ(bs_crashes);
  REM_EQ(bs_crash_dropped_msgs);
  REM_EQ(stale_context_responses);
  REM_EQ(mean_throughput_bps);
  REM_EQ(downtime_fraction);
  REM_EQ(pre_failure_snrs_db);
#undef REM_EQ
  if (compare_violations)
    EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(rem::testkit::hash_event_log(a.events),
            rem::testkit::hash_event_log(b.events));
}

/// Single-UE run built with fleet_runner.hpp's documented construction
/// order (manager master stream forked before the simulation stream), so
/// its output is the reference a fleet of one must reproduce bit-for-bit.
rem::sim::SimStats run_single(rem::trace::Route route, double speed_kmh,
                              double duration_s, std::uint64_t seed,
                              bool use_rem, const FleetRunOptions& opts) {
  namespace sim = rem::sim;
  namespace core = rem::core;
  auto sc = rem::trace::make_scenario(route, speed_kmh, duration_s);
  sc.sim.faults = opts.faults;
  sc.sim.record_events = sc.sim.record_events || opts.record_events;
  if (opts.backhaul) sc.sim.backhaul = *opts.backhaul;
  if (opts.bs_capacity) sc.sim.bs_capacity = *opts.bs_capacity;
  if (opts.fleet) sc.sim.fleet = *opts.fleet;

  rem::common::Rng rng(seed);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  sim::RadioEnv env(cells, sc.propagation, rng.fork(), holes);
  auto policies = rem::trace::synthesize_policies(cells, sc.policy_mix, rng);
  core::LegacyConfig lc;
  lc.policies = policies;
  lc.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  lc.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;
  rem::common::Rng mgr_rng = rng.fork();
  rem::common::Rng sim_rng = rng.fork();
  rem::phy::LogisticBlerModel bler;
  sim::Simulator s(env, sc.sim, bler, std::move(sim_rng));
  if (use_rem) {
    core::RemManager m(core::RemConfig{}, mgr_rng.fork());
    return s.run(m);
  }
  core::LegacyManager m(lc);
  return s.run(m);
}

TEST(Fleet, FleetOfOneReproducesSingleUeRunExactly) {
  FleetRunOptions opts;
  opts.fleet_size = 1;
  opts.record_events = true;
  opts.faults = rem::testkit::golden_fault_preset("mixed", 60.0);
  for (bool use_rem : {false, true}) {
    SCOPED_TRACE(use_rem ? "rem" : "legacy");
    opts.use_rem = use_rem;
    const auto single =
        run_single(rem::trace::Route::kBeijingTaiyuan, 250.0, 60.0, 21,
                   use_rem, opts);
    const auto fleet = run_fleet_seed(rem::trace::Route::kBeijingTaiyuan,
                                      250.0, 60.0, 21,
                                      rem::phy::LogisticBlerModel{}, opts);
    ASSERT_EQ(fleet.per_ue.size(), 1u);
    // The bare single run carries no checker, so skip the violation
    // counter (the fleet's checkers wrote 0 anyway).
    expect_stats_eq(fleet.per_ue[0], single, /*compare_violations=*/false);
    EXPECT_EQ(fleet.per_ue[0].invariant_violations, 0);
    // A one-UE aggregate is that UE's stats verbatim.
    expect_stats_eq(fleet.aggregate, fleet.per_ue[0]);
  }
}

TEST(Fleet, BothEntryPointsRejectBadClock) {
  namespace sim = rem::sim;
  namespace core = rem::core;
  auto sc = rem::trace::make_scenario(rem::trace::Route::kBeijingShanghai,
                                      300.0, 5.0);
  rem::common::Rng rng(7);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  sim::RadioEnv env(cells, sc.propagation, rng.fork(), {});
  core::LegacyConfig lc;
  lc.policies = rem::trace::synthesize_policies(cells, sc.policy_mix, rng);
  rem::phy::LogisticBlerModel bler;
  const auto make_manager = [&](int) -> std::unique_ptr<sim::MobilityManager> {
    return std::make_unique<core::LegacyManager>(lc);
  };

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Bad {
    double tick_s, duration_s;
    const char* field;
  };
  for (const Bad& b : {Bad{0.0, 5.0, "tick_s"}, Bad{-0.01, 5.0, "tick_s"},
                       Bad{nan, 5.0, "tick_s"}, Bad{inf, 5.0, "tick_s"},
                       Bad{0.01, -1.0, "duration_s"},
                       Bad{0.01, nan, "duration_s"},
                       Bad{0.01, inf, "duration_s"}}) {
    SCOPED_TRACE(std::string(b.field) + " tick=" + std::to_string(b.tick_s) +
                 " duration=" + std::to_string(b.duration_s));
    sim::SimConfig cfg = sc.sim;
    cfg.tick_s = b.tick_s;
    cfg.duration_s = b.duration_s;
    cfg.fleet_size = 2;
    const auto expect_names_field = [&](auto&& fn) {
      try {
        fn();
        ADD_FAILURE() << "bad clock accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << e.what();
      }
    };
    expect_names_field([&] {
      core::LegacyManager m(lc);
      sim::Simulator(env, cfg, bler, rem::common::Rng(1)).run(m);
    });
    expect_names_field([&] {
      sim::Simulator(env, cfg, bler, rem::common::Rng(1))
          .run_fleet(make_manager);
    });
  }

  // A zero horizon is a valid (empty) run on both entry points.
  sim::SimConfig empty = sc.sim;
  empty.duration_s = 0.0;
  core::LegacyManager m(lc);
  EXPECT_EQ(sim::Simulator(env, empty, bler, rem::common::Rng(1))
                .run(m)
                .handovers,
            0);
  EXPECT_EQ(sim::Simulator(env, empty, bler, rem::common::Rng(1))
                .run_fleet(make_manager)
                .per_ue.size(),
            1u);
}

/// Run one fleet per seed on `threads` workers; results come back in seed
/// order whatever the interleaving.
std::vector<rem::sim::FleetResult> run_fleet_batch(
    const std::vector<std::uint64_t>& seeds, std::size_t threads,
    const FleetRunOptions& opts) {
  std::vector<rem::sim::FleetResult> out(seeds.size());
  rem::phy::LogisticBlerModel bler;
  rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
    out[i] = run_fleet_seed(rem::trace::Route::kBeijingTaiyuan, 250.0, 30.0,
                            seeds[i], bler, opts);
  });
  return out;
}

TEST(Fleet, BatchBitIdenticalAcrossOneTwoEightThreads) {
  FleetRunOptions opts;
  opts.fleet_size = 6;
  opts.record_events = true;
  opts.faults = rem::testkit::golden_fault_preset("bs_overload_shed", 30.0);
  const std::vector<std::uint64_t> seeds = {31, 32, 33, 34, 35, 36};
  const auto at1 = run_fleet_batch(seeds, 1, opts);
  const auto at2 = run_fleet_batch(seeds, 2, opts);
  const auto at8 = run_fleet_batch(seeds, 8, opts);
  ASSERT_EQ(at1.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    ASSERT_EQ(at1[i].per_ue.size(), static_cast<std::size_t>(opts.fleet_size));
    ASSERT_EQ(at2[i].per_ue.size(), at1[i].per_ue.size());
    ASSERT_EQ(at8[i].per_ue.size(), at1[i].per_ue.size());
    for (std::size_t k = 0; k < at1[i].per_ue.size(); ++k) {
      SCOPED_TRACE("ue " + std::to_string(k));
      expect_stats_eq(at2[i].per_ue[k], at1[i].per_ue[k]);
      expect_stats_eq(at8[i].per_ue[k], at1[i].per_ue[k]);
    }
    expect_stats_eq(at2[i].aggregate, at1[i].aggregate);
    expect_stats_eq(at8[i].aggregate, at1[i].aggregate);
  }
}

TEST(Fleet, PerUeStatsFoldIntoAggregate) {
  FleetRunOptions opts;
  opts.fleet_size = 8;
  opts.record_events = true;
  opts.faults = rem::testkit::golden_fault_preset("backhaul_partition", 40.0);
  const auto r = run_fleet_seed(rem::trace::Route::kBeijingShanghai, 300.0,
                                40.0, 41, rem::phy::LogisticBlerModel{}, opts);
  ASSERT_EQ(r.per_ue.size(), 8u);
  // Mixed per-UE parameters actually took effect: UEs do not all ride the
  // same trajectory, so their tick-by-tick event streams differ.
  bool any_differs = false;
  for (std::size_t k = 1; k < r.per_ue.size(); ++k)
    any_differs = any_differs ||
                  rem::testkit::hash_event_log(r.per_ue[k].events) !=
                      rem::testkit::hash_event_log(r.per_ue[0].events);
  EXPECT_TRUE(any_differs);
  int handovers = 0, failures = 0, prep_requests = 0;
  std::size_t events = 0;
  for (int k = 0; k < 8; ++k) {
    const auto& s = r.per_ue[static_cast<std::size_t>(k)];
    handovers += s.handovers;
    failures += s.failures;
    prep_requests += s.prep_requests;
    events += s.events.size();
    for (const auto& e : s.events) EXPECT_EQ(e.ue, k);
  }
  EXPECT_EQ(r.aggregate.handovers, handovers);
  EXPECT_EQ(r.aggregate.failures, failures);
  EXPECT_EQ(r.aggregate.prep_requests, prep_requests);
  EXPECT_EQ(r.aggregate.events.size(), events);
  EXPECT_GT(handovers, 0);
  // The merged log is time-sorted: no cross-UE timestamp regression.
  for (std::size_t i = 1; i < r.aggregate.events.size(); ++i)
    ASSERT_GE(r.aggregate.events[i].t_s, r.aggregate.events[i - 1].t_s);
  // The runner already threw on violations; double-check the report API.
  EXPECT_TRUE(rem::testkit::fleet_invariant_report(r).empty());
}

// The ISSUE acceptance case: a 100-UE fleet completes deterministically
// under one InvariantChecker per UE, and repeating the run (serially or on
// a pool) reproduces it bit-for-bit.
TEST(Fleet, HundredUeFleetCompletesUnderChecker) {
  FleetRunOptions opts;
  opts.fleet_size = 100;
  opts.faults = rem::testkit::golden_fault_preset("mixed", 12.0);
  const auto run_once = [&] {
    return run_fleet_seed(rem::trace::Route::kBeijingShanghai, 300.0, 12.0,
                          51, rem::phy::LogisticBlerModel{}, opts);
  };
  const auto a = run_once();
  ASSERT_EQ(a.per_ue.size(), 100u);
  for (const auto& s : a.per_ue) EXPECT_GT(s.sim_time_s, 11.0);
  EXPECT_EQ(a.aggregate.invariant_violations, 0);
  // Two more copies on a 2-thread pool: all three runs identical.
  std::vector<rem::sim::FleetResult> again(2);
  rem::common::parallel_for(again.size(), 2,
                            [&](std::size_t i) { again[i] = run_once(); });
  for (const auto& b : again) {
    ASSERT_EQ(b.per_ue.size(), a.per_ue.size());
    expect_stats_eq(b.per_ue.front(), a.per_ue.front());
    expect_stats_eq(b.per_ue.back(), a.per_ue.back());
    expect_stats_eq(b.aggregate, a.aggregate);
  }
}

}  // namespace
