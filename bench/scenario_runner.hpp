// The one bench runner: build a scenario's seeded world, run managers over
// it machine-checked, aggregate statistics over seeds. The table/figure
// benches (bench_table3 builds its own world), the chaos and fleet sweeps
// and the runner-level tests all run through it.
//
// Each step is defined once:
//   build_world   common::Rng rng(seed)
//                   -> make_rail_deployment(rng) -> make_hole_segments(rng)
//                   -> RadioEnv(cells, propagation, rng.fork(), holes)
//                   -> synthesize_policies(cells, mix, rng)
//                   -> the legacy config (policies + TTTs).
//                 World::rng is left there; callers fork on from it.
//   run_checked   the checked-run core: the run's checkers (checker_config),
//                 an optional span tracer, the simulator, and a
//                 std::logic_error on any checker, reconcile or
//                 fleet_invariant_report failure.
//   run_seed / run_fleet_scenario
//                 the two entry points, thin callers of both.
//   AggregateStats, write_stats_json, stats_differences
//                 fold runs, write a manager's JSON block and compare two
//                 results for identity, each by walking sim::kStatsTable,
//                 so a new counter reaches every sweep and determinism
//                 test without an edit here.
//
// After build_world each entry point keeps its own fork order, because
// every golden digest and the fleet-of-one pins replay it:
//   run_seed            legacy sim = fork 2; REM manager = fork 3,
//                       REM sim = fork 4
//   run_fleet_scenario  manager master = fork 2 (one fork per REM UE, in
//                       UE order), sim = fork 3
// The fleet forks its manager master *before* the simulation stream so that
// per-UE manager construction never interleaves with the simulator's draws:
// a fleet of one is bit-identical to a single-UE Simulator::run over the
// same streams (tests/test_fleet.cpp pins it with faults armed,
// tests/test_cascade.cpp with the resilience stack).
//
// Each entry point also keeps the simulator's own entry point: run_seed
// drives Simulator::run (single-UE trace lines carry no `ue` key) and
// run_fleet_scenario drives Simulator::run_fleet. Only run_seed passes the
// exact pairwise conflict predicate behind SimStats::conflict_loop_*, and
// only single-UE runs can carry a span tracer.
//
// Seeds are independent by construction, so run_route_parallel farms one
// seed per thread-pool job and merges the per-seed results *in seed order*.
// The serial and parallel paths share run_seed() and merge_seed_results(),
// so their output is bit-identical for any thread count.
#pragma once

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "mobility/conflict.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "phy/bler_model.hpp"
#include "sim/fleet.hpp"
#include "sim/observer.hpp"
#include "sim/schema.hpp"
#include "testkit/invariants.hpp"
#include "testkit/seeds.hpp"
#include "trace/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace rem::bench {

/// True for the kMean/kMeanSet rows: per-run means, which fold into one
/// sample per run (AggregateStats::samples_of) instead of a single value.
inline bool is_per_run_mean(const sim::StatsRow& row) {
  return row.merge == sim::MergeRule::kMean ||
         row.merge == sim::MergeRule::kMeanSet;
}

/// One manager's statistics over seeds. Every scalar SimStats counter
/// folds by its sim::kStatsTable rule: kSum and kGlobal rows add up (each
/// seed is its own world, so a world-global count sums across seeds) and
/// kMax rows keep the largest value. The per-run means (the kMean/kMeanSet
/// rows) keep one sample per seed in the Summaries below (samples_of), and
/// the per-run vectors concatenate in seed order. The inherited
/// failures_by_cause, feedback_delays_s and events stay empty and the
/// inherited kMean/kMeanSet fields stay zero: read by_cause and the
/// Summaries instead (downtime_fraction here is the Summary, and
/// failure_ratio_excluding_holes here reads by_cause).
struct AggregateStats : sim::SimStats {
  std::map<sim::FailureCause, int> by_cause;
  common::Summary handover_interval_s;
  common::Summary feedback_delay_s;
  common::Summary throughput_bps;
  common::Summary downtime_fraction;

  /// The Summary holding the per-run values of a kMean/kMeanSet row.
  common::Summary& samples_of(double sim::SimStats::*field) {
    if (field == &sim::SimStats::avg_handover_interval_s)
      return handover_interval_s;
    if (field == &sim::SimStats::mean_throughput_bps) return throughput_bps;
    if (field == &sim::SimStats::downtime_fraction) return downtime_fraction;
    throw std::logic_error(std::string("AggregateStats keeps no Summary for ") +
                           sim::stats_name(field));
  }
  const common::Summary& samples_of(double sim::SimStats::*field) const {
    return const_cast<AggregateStats*>(this)->samples_of(field);
  }

  void add(const sim::SimStats& s) {
    for (const auto& row : sim::kStatsTable)
      std::visit(
          [&](auto field) {
            switch (row.merge) {
              case sim::MergeRule::kSum:
              case sim::MergeRule::kGlobal:
                this->*field += s.*field;
                break;
              case sim::MergeRule::kMax:
                this->*field = std::max(this->*field, s.*field);
                break;
              case sim::MergeRule::kMean:
              case sim::MergeRule::kMeanSet:
                // kMeanSet: runs that never set the value are left out.
                if constexpr (std::is_same_v<decltype(field),
                                             double sim::SimStats::*>)
                  if (row.merge == sim::MergeRule::kMean || s.*field > 0)
                    samples_of(field).add(s.*field);
                break;
            }
          },
          row.field);
    feedback_delay_s.add_all(s.feedback_delays_s);
    for (const auto& [c, n] : s.failures_by_cause) by_cause[c] += n;
    pre_failure_snrs_db.insert(pre_failure_snrs_db.end(),
                               s.pre_failure_snrs_db.begin(),
                               s.pre_failure_snrs_db.end());
    outage_durations_s.insert(outage_durations_s.end(),
                              s.outage_durations_s.begin(),
                              s.outage_durations_s.end());
  }

  double cause_ratio(sim::FailureCause c) const {
    const int den = handovers + failures;
    const auto it = by_cause.find(c);
    return den > 0 && it != by_cause.end()
               ? static_cast<double>(it->second) / den
               : 0.0;
  }
  double failure_ratio_excluding_holes() const {
    return failure_ratio() - cause_ratio(sim::FailureCause::kCoverageHole);
  }
  /// Backhaul frames dropped for any reason: loss + partition + queue
  /// overflow + crash (the four causes the invariant checker's frame
  /// conservation rule counts).
  std::uint64_t backhaul_dropped() const {
    return backhaul_dropped_loss + backhaul_dropped_partition +
           backhaul_dropped_queue + backhaul_dropped_crash;
  }
};

/// Calls `fn(name, value)` for every kStatsTable row of `s`, in table
/// order: the folded counter (int, std::uint64_t or double), or for a
/// kMean/kMeanSet row the mean over runs.
template <class Fn>
void for_each_stat(const AggregateStats& s, Fn&& fn) {
  for (const auto& row : sim::kStatsTable)
    std::visit(
        [&](auto field) {
          if constexpr (std::is_same_v<decltype(field),
                                       double sim::SimStats::*>) {
            if (is_per_run_mean(row)) {
              fn(row.name, s.samples_of(field).mean());
              return;
            }
          }
          fn(row.name, s.*field);
        },
        row.field);
}

/// A sweep's keys that no kStatsTable row holds, in the order written.
using DerivedKeys = std::vector<std::pair<std::string, double>>;

/// One manager block of a sweep's JSON: every kStatsTable row
/// (for_each_stat), then `backhaul_dropped`, then `failure_ratio` (each
/// sweep passes its own formula), then the sweep's `derived` keys.
inline void write_stats_json(std::ostream& os, const AggregateStats& s,
                             double failure_ratio,
                             const DerivedKeys& derived = {}) {
  os << "{";
  for_each_stat(s, [&](const char* name, auto value) {
    os << "\"" << name << "\": " << value << ", ";
  });
  os << "\"backhaul_dropped\": " << s.backhaul_dropped()
     << ", \"failure_ratio\": " << failure_ratio;
  for (const auto& [name, value] : derived)
    os << ", \"" << name << "\": " << value;
  os << "}";
}

/// Names of the fields in which `a` and `b` differ (empty when they are
/// bit-identical): every kStatsTable row, failures_by_cause, the per-run
/// vectors and the event log. Doubles compare with == on purpose: the
/// determinism guarantee is exact replay, not a tolerance.
inline std::vector<std::string> stats_differences(const sim::SimStats& a,
                                                  const sim::SimStats& b) {
  std::vector<std::string> out;
  for (const auto& row : sim::kStatsTable)
    std::visit(
        [&](auto field) {
          if (!(a.*field == b.*field)) out.push_back(row.name);
        },
        row.field);
  const auto check = [&](bool same, const char* name) {
    if (!same) out.push_back(name);
  };
  check(a.failures_by_cause == b.failures_by_cause, "failures_by_cause");
  check(a.outage_durations_s == b.outage_durations_s, "outage_durations_s");
  check(a.feedback_delays_s == b.feedback_delays_s, "feedback_delays_s");
  check(a.pre_failure_snrs_db == b.pre_failure_snrs_db,
        "pre_failure_snrs_db");
  const auto same_event = [](const sim::SignalingEvent& x,
                             const sim::SignalingEvent& y) {
    return x.t_s == y.t_s && x.kind == y.kind &&
           x.serving_cell == y.serving_cell &&
           x.target_cell == y.target_cell &&
           x.serving_snr_db == y.serving_snr_db && x.ue == y.ue;
  };
  check(std::equal(a.events.begin(), a.events.end(), b.events.begin(),
                   b.events.end(), same_event),
        "events");
  return out;
}

/// AggregateStats: the SimStats fields, then by_cause and the per-run
/// Summaries (a kMean/kMeanSet row's samples under the row's name).
inline std::vector<std::string> stats_differences(const AggregateStats& a,
                                                  const AggregateStats& b) {
  auto out = stats_differences(static_cast<const sim::SimStats&>(a),
                               static_cast<const sim::SimStats&>(b));
  if (a.by_cause != b.by_cause) out.push_back("by_cause");
  for (const auto& row : sim::kStatsTable)
    if (is_per_run_mean(row)) {
      const auto field = std::get<double sim::SimStats::*>(row.field);
      if (a.samples_of(field).samples() != b.samples_of(field).samples())
        out.push_back(row.name);
    }
  if (a.feedback_delay_s.samples() != b.feedback_delay_s.samples())
    out.push_back("feedback_delay_s");
  return out;
}

struct ScenarioRun {
  AggregateStats legacy;
  AggregateStats rem;
  /// Static two-cell conflicts of the synthesized legacy policy set
  /// (aggregated over seeds).
  std::map<std::string, int> conflict_histogram;
  int total_conflicts = 0;
  /// Per-manager metrics merged in seed order (empty unless
  /// RunOptions::collect_metrics). Simulated-time metrics only, so the
  /// merged snapshots are bit-identical for any worker-thread count.
  obs::MetricsSnapshot legacy_metrics;
  obs::MetricsSnapshot rem_metrics;
};

/// Everything one seed contributes to a ScenarioRun, kept separate so seeds
/// can run on any thread and be merged deterministically afterwards.
struct SeedRunResult {
  sim::SimStats legacy;
  sim::SimStats rem;
  bool has_rem = false;
  std::map<std::string, int> conflict_histogram;
  int total_conflicts = 0;
  /// This seed's metrics per manager (empty unless
  /// RunOptions::collect_metrics was set).
  obs::MetricsSnapshot legacy_metrics;
  obs::MetricsSnapshot rem_metrics;
};

/// stats_differences over both managers ("legacy.<field>", "rem.<field>")
/// and the conflict census of a seed result or a merged run. Collected
/// metrics are not compared.
template <class Run>
std::vector<std::string> run_differences(const Run& a, const Run& b) {
  std::vector<std::string> out;
  for (const auto& f : stats_differences(a.legacy, b.legacy))
    out.push_back("legacy." + f);
  for (const auto& f : stats_differences(a.rem, b.rem))
    out.push_back("rem." + f);
  if (a.conflict_histogram != b.conflict_histogram)
    out.push_back("conflict_histogram");
  if (a.total_conflicts != b.total_conflicts)
    out.push_back("total_conflicts");
  return out;
}

/// What a run needs beyond its trace::Scenario. Everything the simulation
/// reads — faults, backhaul, BS capacity, fleet size and derivation, event
/// recording, the resilience knobs — is set on trace::Scenario::sim.
struct RunOptions {
  /// Attach one rem::testkit::InvariantChecker per UE and throw
  /// std::logic_error (with the checker's report) on any violation; fleet
  /// runs also throw on testkit::fleet_invariant_report. Defaults ON so
  /// all benches and tests run machine-checked; the
  /// REM_CHECK_INVARIANTS=0 environment variable is a global kill switch.
  bool check_invariants = true;
  /// Single-UE runs: attach a rem::obs::SpanTracer recording into a
  /// per-run Registry, cross-check it against SimStats (throwing
  /// std::logic_error on any reconcile mismatch), and return the snapshot
  /// in SeedRunResult. Defaults to the REM_METRICS environment knob. Only
  /// simulated-time metrics are recorded, so results stay deterministic.
  /// Fleet runs attach no tracer.
  bool collect_metrics = obs::metrics_enabled();
  /// Names the run in violation messages ("invariant violations in
  /// legacy run (<context>)"). run_seed and run_fleet_scenario fill an
  /// empty one with the scenario's route, speed and seed.
  std::string context;
  /// Called after each traced run reconciles, with the manager family's
  /// name ("legacy" or "rem") and the run's tracer (for its spans).
  std::function<void(const std::string& manager, const obs::SpanTracer&)>
      trace_sink;
};

/// Manager family of a run; it fixes what the invariant checker expects.
enum class Manager { kLegacy, kRem };

inline const char* manager_name(Manager m) {
  return m == Manager::kRem ? "rem" : "legacy";
}

/// The checker configuration of every run: the run's own SimConfig and
/// cell count; REM's degraded entries must coincide with an estimate older
/// than RemConfig::estimate_staleness_s, while legacy has no fallback mode
/// at all; fault windows are legal exactly when the run schedules faults.
inline testkit::CheckerConfig checker_config(const sim::SimConfig& cfg,
                                             std::size_t num_cells,
                                             Manager family) {
  testkit::CheckerConfig c;
  c.sim = cfg;
  c.num_cells = num_cells;
  c.faults_expected = !cfg.faults.empty();
  if (family == Manager::kRem)
    c.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
  else
    c.expect_no_degraded = true;
  return c;
}

/// One seed's world (see the header for the construction order).
struct World {
  sim::RadioEnv env;
  /// The synthesized legacy policies and the scenario's TTTs.
  core::LegacyConfig legacy;
  /// The seed's stream after policy synthesis; callers fork on from here.
  common::Rng rng;
};

inline World build_world(const trace::Scenario& sc, std::uint64_t seed) {
  common::Rng rng(seed);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  sim::RadioEnv env(std::move(cells), sc.propagation, rng.fork(),
                    std::move(holes));
  core::LegacyConfig lc;
  lc.policies = trace::synthesize_policies(env.cells(), sc.policy_mix, rng);
  lc.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  lc.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;
  return World{std::move(env), std::move(lc), rng};
}

/// The checked-run core. Runs `drive(simulator)` over `w` with `cfg` and
/// the observers `opts` asks for, and throws std::logic_error on any
/// violation. `drive` calls Simulator::run for a single-UE run (checker
/// and tracer share one ObserverFanout) or Simulator::run_fleet, returning
/// sim::FleetResult (one checker per UE behind a UeObserverDemux, then
/// fleet_invariant_report; never a tracer). No observer draws randomness,
/// so a checked run is bit-identical to a bare one. A traced run's
/// snapshot goes to `*metrics_out` when given.
template <class Drive>
auto run_checked(const World& w, const sim::SimConfig& cfg, Manager family,
                 common::Rng sim_rng, const phy::BlerModel& bler,
                 const RunOptions& opts, Drive&& drive,
                 obs::MetricsSnapshot* metrics_out = nullptr) {
  using Result = std::invoke_result_t<Drive&, sim::Simulator&>;
  constexpr bool kFleet = std::is_same_v<Result, sim::FleetResult>;
  const bool check = opts.check_invariants && testkit::invariants_enabled();
  const bool trace = !kFleet && opts.collect_metrics;
  const std::string who =
      std::string(manager_name(family)) + (kFleet ? " fleet" : " run") +
      (opts.context.empty() ? "" : " (" + opts.context + ")");
  const auto fail_on = [](const std::vector<std::string>& lines,
                          const std::string& what) {
    if (lines.empty()) return;
    std::string msg = what;
    for (const auto& line : lines) msg += "\n  " + line;
    throw std::logic_error(msg);
  };

  std::vector<std::unique_ptr<testkit::InvariantChecker>> checkers;
  obs::Registry registry;
  obs::SpanTracer tracer(&registry);
  sim::ObserverFanout fanout;  // single-UE: checker and tracer
  sim::UeObserverDemux demux;  // fleet: checker k sees UE k only
  sim::SimConfig run_cfg = cfg;
  if (check) {
    const auto ccfg = checker_config(cfg, w.env.cells().size(), family);
    for (int k = 0; k < (kFleet ? cfg.fleet_size : 1); ++k) {
      checkers.push_back(std::make_unique<testkit::InvariantChecker>(ccfg));
      if (kFleet)
        demux.add(checkers.back().get());
      else
        fanout.add(checkers.back().get());
    }
  }
  if (trace) fanout.add(&tracer);
  if (kFleet && check)
    run_cfg.observer = &demux;
  else if (check || trace)
    run_cfg.observer = &fanout;

  sim::Simulator s(w.env, run_cfg, bler, std::move(sim_rng));
  Result result = drive(s);

  for (std::size_t k = 0; k < checkers.size(); ++k)
    if (checkers[k]->violation_count() > 0)
      throw std::logic_error(
          "invariant violations in " +
          (kFleet ? "UE " + std::to_string(k) + " of " : std::string()) +
          who + ":\n" + checkers[k]->report());
  if constexpr (kFleet) {
    if (check)
      fail_on(testkit::fleet_invariant_report(result),
              "fleet invariant violations in the aggregate of " + who);
  } else if (trace) {
    fail_on(tracer.reconcile(result),
            "trace/stats reconcile mismatches in " + who);
    if (opts.trace_sink) opts.trace_sink(manager_name(family), tracer);
    if (metrics_out != nullptr) *metrics_out = registry.snapshot();
  }
  return result;
}

/// `opts` with the default context filled in.
inline RunOptions with_context(RunOptions opts, const trace::Scenario& sc,
                               std::uint64_t seed) {
  if (opts.context.empty())
    opts.context = "route " + trace::route_name(sc.route) + ", " +
                   std::to_string(sc.speed_kmh) + " km/h, seed " +
                   std::to_string(seed);
  return opts;
}

/// Simulate one seed of `sc` single-UE: legacy, and REM when `run_rem`.
/// Thread-safe: all state derives from the seed; `bler` is read-only.
/// Every stochastic component, the fault schedule included, draws from
/// the seed's Rng, so runs are bit-identical for the same (sc, seed).
inline SeedRunResult run_seed(const trace::Scenario& sc, std::uint64_t seed,
                              bool run_rem, const phy::BlerModel& bler,
                              const RunOptions& opts = {}) {
  const RunOptions o = with_context(opts, sc, seed);
  SeedRunResult out;
  World w = build_world(sc, seed);

  // Exact pairwise conflict predicate for loop attribution, restricted
  // to cells that actually cover common ground.
  const auto& cells = w.env.cells();
  const auto pcs = trace::to_policy_cells(cells, w.legacy.policies);
  const double reach = 2.0 * sc.deployment.site_spacing_mean_m;
  const auto neighbor_filter = [&](std::size_t i, std::size_t j) {
    return std::abs(cells[i].site_pos_m - cells[j].site_pos_m) <= reach;
  };
  const auto conflicts =
      mobility::find_two_cell_conflicts(pcs, {}, neighbor_filter);
  out.total_conflicts = static_cast<int>(conflicts.size());
  for (const auto& [label, n] : mobility::conflict_histogram(conflicts))
    out.conflict_histogram[label] += n;
  std::set<std::pair<int, int>> pairs;
  for (const auto& c : conflicts) {
    pairs.insert({c.cell_i, c.cell_j});
    pairs.insert({c.cell_j, c.cell_i});
  }
  const auto pair_fn = [&pairs](int a, int b) {
    return pairs.count({a, b}) > 0;
  };

  core::LegacyManager legacy(w.legacy);
  out.legacy = run_checked(
      w, sc.sim, Manager::kLegacy, w.rng.fork(), bler, o,
      [&](sim::Simulator& s) { return s.run(legacy, pair_fn); },
      &out.legacy_metrics);

  if (run_rem) {
    core::RemManager remm(core::RemConfig{}, w.rng.fork());
    // REM's coordinated policy is conflict-free by Theorem 2.
    out.rem = run_checked(
        w, sc.sim, Manager::kRem, w.rng.fork(), bler, o,
        [&](sim::Simulator& s) {
          return s.run(remm, [](int, int) { return false; });
        },
        &out.rem_metrics);
    out.has_rem = true;
  }
  return out;
}

/// Run one fleet of `family` managers over `sc`: `sc.sim` carries
/// fleet_size, the fleet derivation, faults, backhaul and BS capacity (a
/// compiled rem::scenario world, or hand assembly). Returns per-UE stats
/// indexed by UE id plus the UE-order aggregate (sim/fleet.hpp).
inline sim::FleetResult run_fleet_scenario(const trace::Scenario& sc,
                                           std::uint64_t seed,
                                           Manager family,
                                           const phy::BlerModel& bler,
                                           const RunOptions& opts = {}) {
  World w = build_world(sc, seed);
  common::Rng mgr_rng = w.rng.fork();  // manager master stream (see header)
  common::Rng sim_rng = w.rng.fork();  // simulation stream
  return run_checked(
      w, sc.sim, family, std::move(sim_rng), bler,
      with_context(opts, sc, seed), [&](sim::Simulator& s) {
        return s.run_fleet([&](int) -> std::unique_ptr<sim::MobilityManager> {
          if (family == Manager::kRem)
            return std::make_unique<core::RemManager>(core::RemConfig{},
                                                      mgr_rng.fork());
          return std::make_unique<core::LegacyManager>(w.legacy);
        });
      });
}

/// Fold per-seed results in the order given. Seed order — not completion
/// order — fixes every floating-point accumulation, which is what makes the
/// parallel runner's output independent of thread count.
inline ScenarioRun merge_seed_results(const std::vector<SeedRunResult>& rs) {
  ScenarioRun out;
  for (const auto& r : rs) {
    out.total_conflicts += r.total_conflicts;
    for (const auto& [label, n] : r.conflict_histogram)
      out.conflict_histogram[label] += n;
    out.legacy.add(r.legacy);
    if (r.has_rem) out.rem.add(r.rem);
    out.legacy_metrics.merge(r.legacy_metrics);
    if (r.has_rem) out.rem_metrics.merge(r.rem_metrics);
  }
  return out;
}

inline ScenarioRun run_route(const trace::Scenario& sc,
                             const std::vector<std::uint64_t>& seeds,
                             bool run_rem = true,
                             const RunOptions& opts = {}) {
  phy::LogisticBlerModel bler;
  std::vector<SeedRunResult> rs;
  rs.reserve(seeds.size());
  for (const auto seed : seeds)
    rs.push_back(run_seed(sc, seed, run_rem, bler, opts));
  return merge_seed_results(rs);
}

/// Worker count for parallel benches: the REM_BENCH_THREADS environment
/// variable when set (>= 1), otherwise the hardware thread count.
inline std::size_t bench_threads() {
  if (const char* env = std::getenv("REM_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return common::ThreadPool::default_threads();
}

/// Seed-parallel run_route: each seed's legacy+REM simulation runs as one
/// thread-pool job; results merge in seed order, so the output is
/// bit-identical to run_route() for any num_threads. num_threads == 0 reads
/// REM_BENCH_THREADS / hardware concurrency via bench_threads().
inline ScenarioRun run_route_parallel(const trace::Scenario& sc,
                                      const std::vector<std::uint64_t>& seeds,
                                      bool run_rem = true,
                                      std::size_t num_threads = 0,
                                      const RunOptions& opts = {}) {
  if (num_threads == 0) num_threads = bench_threads();
  phy::LogisticBlerModel bler;
  std::vector<SeedRunResult> rs(seeds.size());
  common::parallel_for(seeds.size(), num_threads, [&](std::size_t i) {
    rs[i] = run_seed(sc, seeds[i], run_rem, bler, opts);
  });
  return merge_seed_results(rs);
}

/// Scripted windows of one fault kind, `period_s` apart from `first_s`
/// until `horizon_s`.
inline sim::FaultConfig periodic(sim::FaultKind kind, double first_s,
                                 double period_s, double duration_s,
                                 double magnitude, double horizon_s) {
  sim::FaultConfig cfg;
  for (double t = first_s; t < horizon_s; t += period_s)
    cfg.windows.push_back({kind, t, duration_s, magnitude});
  return cfg;
}

inline double pct(double x) { return 100.0 * x; }

/// "a x" reduction factor epsilon = (legacy - rem) / rem, as the paper
/// defines it; returns -1 when rem is zero (infinite reduction).
inline double reduction_factor(double legacy, double rem) {
  if (rem <= 0.0) return -1.0;
  return (legacy - rem) / rem;
}

}  // namespace rem::bench
