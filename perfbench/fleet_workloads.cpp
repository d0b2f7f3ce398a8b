// Fleet workloads (rail_corridor, dense_storm): a library scenario run as a
// legacy fleet and a REM fleet back to back in the same world, repeatedly,
// on one thread.
//
// The world (deployment, coverage holes, RadioEnv shadowing, legacy
// policies) is built from the scenario's own seed, in the order
// bench/fleet_runner.hpp documents, so every run measures the scenario's
// deployment. The benchmark seed drives the manager and simulation streams:
// UE speeds and start offsets, fading, signalling loss and decisions. Seeds
// thus vary the traffic, not the size of the deployment, which would
// change the work per UE-tick.
//
// Untraced runs time the bare engine, stamping the clock every
// kTicksPerBlock ticks through one forwarding observer. Traced runs wrap
// every manager in a TimedManager and every per-UE observer in a
// TimedObserver, alternate traced and untraced repetitions to measure the
// tracing overhead, and replay RadioEnv and Rng calls on the workload's
// own world.
#include "fleet_workloads.hpp"

#include "core/legacy_manager.hpp"
#include "core/rem_manager.hpp"
#include "obs/tracer.hpp"
#include "phy/bler_model.hpp"
#include "probes.hpp"
#include "scenario/scenario.hpp"
#include "testkit/golden.hpp"
#include "testkit/invariants.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using namespace rem;

struct FleetShape {
  const char* scenario;
  std::optional<int> ue_count;
  std::optional<double> duration_s;
  std::optional<double> extra_compression;
  bool with_tracer;  ///< per-UE SpanTracer + shared Registry
};

FleetShape shape_for(const Options& o) {
  if (o.workload == "rail_corridor") {
    // The north-star configuration; fault-free, so shortening the horizon
    // drops no scripted window.
    FleetShape s{"rail_hst350_baseline", 64, 30.0, std::nullopt, false};
    if (o.tiny) s.ue_count = 4, s.duration_s = 8.0;
    return s;
  }
  // dense_storm: authored 10 UEs; shortened by compression only, so both
  // crash/cascade windows stay inside the horizon.
  FleetShape s{"dense_cascade_storm", std::nullopt, std::nullopt, 3.0, true};
  if (o.tiny) s.ue_count = 3, s.extra_compression = 16.0;
  return s;
}

/// One compiled scenario, its world, and the run streams derived from the
/// benchmark seed, ready for a legacy and a REM fleet run.
struct World {
  scenario::CompiledScenario compiled;
  std::unique_ptr<sim::RadioEnv> env;
  core::LegacyConfig legacy_cfg;
  std::optional<common::Rng> mgr_rng;
  std::optional<common::Rng> sim_rng;
  double compile_s = 0.0;
  double env_build_s = 0.0;
};

World build_world(const Options& o, const FleetShape& shape,
                  std::uint64_t seed) {
  World w;
  auto t0 = Clock::now();
  const auto spec = scenario::load_scenario(o.scenario_dir, shape.scenario);
  scenario::CompileOverrides ov;
  ov.ue_count = shape.ue_count;
  ov.duration_s = shape.duration_s;
  ov.extra_time_compression = shape.extra_compression;
  w.compiled = scenario::compile(spec, ov);
  w.compile_s = seconds_since(t0);

  const trace::Scenario& sc = w.compiled.scenario;
  common::Rng rng(w.compiled.seed);
  auto cells = sim::make_rail_deployment(sc.deployment, rng);
  auto holes = sim::make_hole_segments(sc.deployment, rng);
  t0 = Clock::now();
  w.env = std::make_unique<sim::RadioEnv>(cells, sc.propagation, rng.fork(),
                                          holes);
  w.env_build_s = seconds_since(t0);
  w.legacy_cfg.policies = trace::synthesize_policies(cells, sc.policy_mix, rng);
  w.legacy_cfg.measurement.intra_ttt_s = sc.policy_mix.intra_ttt_s;
  w.legacy_cfg.measurement.inter_ttt_s = sc.policy_mix.inter_ttt_s;
  common::Rng run_rng(seed);
  w.mgr_rng.emplace(run_rng.fork());
  w.sim_rng.emplace(run_rng.fork());
  return w;
}

/// Per-family layer totals of the traced repetitions (index 0 legacy,
/// 1 REM).
struct TraceTotals {
  ManagerTotals manager[2];
  ObserverTotals checker[2];
  ObserverTotals tracer[2];
  double wall_s[2] = {0.0, 0.0};
};

/// Self-test fault: forwards everything to the wrapped checker, plus one
/// copy of the first event stamped a second earlier, which the checker
/// must report as a timestamp regression.
class BackwardsEventInjector final : public sim::SimObserver {
 public:
  explicit BackwardsEventInjector(sim::SimObserver& inner) : inner_(inner) {}
  void on_ue(int ue) override { inner_.on_ue(ue); }
  void on_event(const sim::SignalingEvent& e) override {
    inner_.on_event(e);
    if (!done_) {
      done_ = true;
      sim::SignalingEvent stale = e;
      stale.t_s -= 1.0;
      inner_.on_event(stale);
    }
  }
  void on_tick(const sim::TickView& v) override { inner_.on_tick(v); }
  void on_run_end(sim::SimStats& s) override { inner_.on_run_end(s); }

 private:
  sim::SimObserver& inner_;
  bool done_ = false;
};

/// Simulated ticks per timed block of an untraced fleet run.
constexpr std::uint64_t kTicksPerBlock = 50;

struct FamilyRun {
  sim::FleetResult result;
  double wall_s = 0.0;   ///< run_fleet wall time minus manager construction
  double setup_s = 0.0;  ///< observer + manager construction
  /// Untraced runs: wall time of each kTicksPerBlock-tick block, the first
  /// less manager construction; they sum to wall_s.
  std::vector<double> block_s;
  std::vector<std::string> problems;
};

/// Run one manager family over the world. `trace` (nullptr = untraced)
/// receives the decorated layer totals; `spans` the sampled spans.
FamilyRun run_family(const World& w, bool use_rem, bool with_tracer,
                     bool inject_violation, TraceTotals* trace,
                     SpanLog& spans) {
  FamilyRun out;
  const auto t_setup = Clock::now();
  const trace::Scenario& sc = w.compiled.scenario;
  const int n = sc.sim.fleet_size;
  const int fam = use_rem ? 1 : 0;

  sim::SimConfig cfg = sc.sim;
  cfg.engine = sim::SimEngine::kEventQueue;
  testkit::CheckerConfig ccfg;
  ccfg.sim = cfg;
  ccfg.num_cells = w.env->cells().size();
  ccfg.faults_expected = !cfg.faults.empty();
  if (use_rem)
    ccfg.staleness_bound_s = core::RemConfig{}.estimate_staleness_s;
  else
    ccfg.expect_no_degraded = true;

  obs::Registry registry;
  std::vector<std::unique_ptr<testkit::InvariantChecker>> checkers;
  std::vector<std::unique_ptr<obs::SpanTracer>> tracers;
  std::vector<std::unique_ptr<sim::SimObserver>> wrappers;
  std::vector<std::unique_ptr<sim::ObserverFanout>> fanouts;
  sim::UeObserverDemux demux;
  for (int k = 0; k < n; ++k) {
    checkers.push_back(std::make_unique<testkit::InvariantChecker>(ccfg));
    sim::SimObserver* checker = checkers.back().get();
    if (inject_violation && k == 0) {
      wrappers.push_back(std::make_unique<BackwardsEventInjector>(*checker));
      checker = wrappers.back().get();
    }
    if (trace != nullptr) {
      wrappers.push_back(std::make_unique<TimedObserver>(
          *checker, trace->checker[fam], spans,
          "testkit.invariant_checker.on_tick"));
      checker = wrappers.back().get();
    }
    if (!with_tracer) {
      demux.add(checker);
      continue;
    }
    tracers.push_back(std::make_unique<obs::SpanTracer>(&registry));
    sim::SimObserver* tracer = tracers.back().get();
    if (trace != nullptr) {
      wrappers.push_back(std::make_unique<TimedObserver>(
          *tracer, trace->tracer[fam], spans, "obs.span_tracer.on_tick"));
      tracer = wrappers.back().get();
    }
    fanouts.push_back(std::make_unique<sim::ObserverFanout>());
    fanouts.back()->add(checker);
    fanouts.back()->add(tracer);
    demux.add(fanouts.back().get());
  }
  std::vector<std::int64_t> stamps;
  BlockClock clock(demux, kTicksPerBlock, stamps);
  cfg.observer = trace != nullptr ? static_cast<sim::SimObserver*>(&demux)
                                  : &clock;

  phy::LogisticBlerModel bler;
  common::Rng mgr_rng = *w.mgr_rng;
  sim::Simulator simulator(*w.env, cfg, bler, *w.sim_rng);
  out.setup_s = seconds_since(t_setup);

  double factory_s = 0.0;
  const char* span_name =
      use_rem ? "core.rem_manager.update" : "core.legacy_manager.update";
  const auto factory = [&](int) -> std::unique_ptr<sim::MobilityManager> {
    const auto t0 = Clock::now();
    std::unique_ptr<sim::MobilityManager> m;
    if (use_rem)
      m = std::make_unique<core::RemManager>(core::RemConfig{},
                                             mgr_rng.fork());
    else
      m = std::make_unique<core::LegacyManager>(w.legacy_cfg);
    if (trace != nullptr)
      m = std::make_unique<TimedManager>(std::move(m), trace->manager[fam],
                                         spans, span_name);
    factory_s += seconds_since(t0);
    return m;
  };

  if (trace != nullptr) spans.begin_run(use_rem ? "fleet.rem" : "fleet.legacy");
  const std::int64_t t_run = now_ns();
  out.result = simulator.run_fleet(factory);
  const std::int64_t t_end = now_ns();
  out.wall_s = 1e-9 * static_cast<double>(t_end - t_run) - factory_s;
  if (trace == nullptr) {
    stamps.push_back(t_end);
    std::int64_t prev = t_run;
    for (const std::int64_t t : stamps) {
      out.block_s.push_back(1e-9 * static_cast<double>(t - prev));
      prev = t;
    }
    out.block_s.front() -= factory_s;
  }
  if (trace != nullptr) {
    spans.end_run();
    trace->wall_s[fam] += out.wall_s;
  }
  out.setup_s += factory_s;

  const char* who = use_rem ? "REM" : "legacy";
  for (int k = 0; k < n; ++k) {
    const auto& c = *checkers[static_cast<std::size_t>(k)];
    if (c.violation_count() > 0)
      out.problems.push_back(std::string(who) + " UE " + std::to_string(k) +
                             ": " + std::to_string(c.violation_count()) +
                             " invariant violations; first: " +
                             c.violations().front());
  }
  for (const auto& line : testkit::fleet_invariant_report(out.result))
    out.problems.push_back(std::string(who) + " fleet: " + line);
  for (std::size_t k = 0; k < tracers.size(); ++k)
    for (const auto& line : tracers[k]->reconcile(out.result.per_ue[k]))
      out.problems.push_back(std::string(who) + " UE " + std::to_string(k) +
                             " tracer/stats mismatch: " + line);
  return out;
}

std::string fleet_digest(const World& w, const sim::FleetResult& legacy,
                         const sim::FleetResult& rem) {
  testkit::FleetGoldenCase gc;
  gc.name = w.compiled.name;
  gc.fleet_size = w.compiled.scenario.sim.fleet_size;
  gc.duration_s = w.compiled.scenario.sim.duration_s;
  std::string flat;
  for (const auto& [k, v] : testkit::make_fleet_digest(gc, legacy, rem).fields)
    flat += k + "=" + v + "\n";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(flat)));
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One legacy + REM repetition in a freshly built world.
struct Rep {
  double setup_s = 0.0;
  double wall_s[2] = {0.0, 0.0};
  std::vector<double> block_s[2];
  double ue_sim_s = 0.0;  ///< per family
  std::string digest;
  sim::SimStats aggregate[2];
  std::vector<std::string> problems;
  std::unique_ptr<World> world;
};

Rep run_rep(const Options& o, const FleetShape& shape, std::uint64_t seed,
            TraceTotals* trace, SpanLog& spans) {
  Rep rep;
  const auto t0 = Clock::now();
  rep.world = std::make_unique<World>(build_world(o, shape, seed));
  rep.setup_s = seconds_since(t0);
  const bool inject = o.inject == "invariant";
  FamilyRun fam[2] = {
      run_family(*rep.world, false, shape.with_tracer, inject, trace, spans),
      run_family(*rep.world, true, shape.with_tracer, inject, trace, spans)};
  for (int f = 0; f < 2; ++f) {
    rep.setup_s += fam[f].setup_s;
    rep.wall_s[f] = fam[f].wall_s;
    rep.block_s[f] = std::move(fam[f].block_s);
    rep.aggregate[f] = fam[f].result.aggregate;
    for (auto& p : fam[f].problems) rep.problems.push_back(std::move(p));
  }
  rep.ue_sim_s = rep.world->compiled.scenario.sim.fleet_size *
                 rep.world->compiled.scenario.sim.duration_s;
  rep.digest = fleet_digest(*rep.world, fam[0].result, fam[1].result);
  return rep;
}

/// Replay of the workload's own RadioEnv at seeded track positions and of
/// common::Rng draws; reports ns per call.
void replay_layers(const World& w, std::uint64_t seed, bool tiny,
                   SpanLog& spans, Report& r) {
  const sim::RadioEnv& env = *w.env;
  const std::size_t ncells = env.cells().size();
  const double route_m = w.compiled.scenario.deployment.route_len_m;
  common::Rng pos_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<double> pos(4096);
  for (auto& p : pos) p = pos_rng.uniform(0.0, route_m);
  const double min_rsrp = w.compiled.scenario.sim.min_coverage_rsrp_dbm;
  const std::size_t scale = tiny ? 1 : 10;
  double sink = 0.0;
  common::Rng draw_rng(seed + 17);

  // Each replay runs as five blocks; the median block's ns per call is
  // reported.
  const auto timed = [&](const char* name, std::size_t calls, auto&& body) {
    spans.begin_run(name);
    std::vector<double> per_call;
    for (int block = 0; block < 5; ++block) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < calls; ++i) sink += body(i);
      const std::int64_t t1 = now_ns();
      spans.leaf(name, t0, t1);
      per_call.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(calls));
    }
    spans.end_run();
    return spread_of(per_call).median;
  };
  const auto cell_of = [&](std::size_t i) { return (i * 7919) % ncells; };
  const std::size_t radio_calls = 4096 * scale;
  r.metric("sim.radio_env.instant_rsrp_ns",
           timed("sim.radio_env.instant_rsrp", radio_calls,
                 [&](std::size_t i) {
                   return env.instant_rsrp_dbm(cell_of(i), pos[i % 4096],
                                               draw_rng);
                 }),
           "ns");
  r.metric("sim.radio_env.dd_snr_ns",
           timed("sim.radio_env.dd_snr", radio_calls,
                 [&](std::size_t i) {
                   return env.dd_snr_db(cell_of(i), pos[i % 4096], draw_rng);
                 }),
           "ns");
  r.metric("sim.radio_env.mean_rsrp_ns",
           timed("sim.radio_env.mean_rsrp", radio_calls,
                 [&](std::size_t i) {
                   return env.mean_rsrp_dbm(cell_of(i), pos[i % 4096]);
                 }),
           "ns");
  r.metric("sim.radio_env.best_cell_ns",
           timed("sim.radio_env.best_cell", 4096 * (tiny ? 1 : 5),
                 [&](std::size_t i) {
                   return static_cast<double>(
                       env.best_cell(pos[i % 4096], min_rsrp));
                 }),
           "ns");

  const std::size_t draws = 20000 * scale;
  r.metric("common.rng.gaussian_ns",
           timed("common.rng.gaussian", draws,
                 [&](std::size_t) { return draw_rng.gaussian(0.0, 1.0); }),
           "ns");
  r.metric("common.rng.uniform_ns",
           timed("common.rng.uniform", draws,
                 [&](std::size_t) { return draw_rng.uniform(0.0, 1.0); }),
           "ns");
  r.metric("common.rng.fork_ns",
           timed("common.rng.fork", 400 * scale,
                 [&](std::size_t) {
                   return static_cast<double>(draw_rng.fork().engine()() & 1);
                 }),
           "ns");
  r.info_num("replay_checksum", sink);
}

}  // namespace

void run_fleet_workload(const Options& o, Report& r) {
  const FleetShape shape = shape_for(o);
  SpanLog spans(64);
  const auto t_start = Clock::now();
  const double budget_s = o.trace ? 0.7 * o.seconds : o.seconds;
  const std::size_t min_reps = o.trace ? 2 : 3;

  // Untraced runs repeat the world until the time is up. Traced runs
  // alternate untraced and traced repetitions.
  std::vector<double> setup, untraced_both, traced_both;
  std::vector<std::vector<double>> blocks[2];
  std::vector<double> ref_slices;
  std::string digest;
  TraceTotals totals;
  Rep last;
  std::size_t reps = 0;
  while (reps < min_reps || seconds_since(t_start) < budget_s) {
    const bool traced = o.trace && reps % 2 == 1;
    // The "digest" self-test fault reruns the world at another seed, which
    // the digest check must catch.
    const bool perturb = o.inject == "digest" && reps > 0;
    Rep rep = run_rep(o, shape, o.seed + (perturb ? 1 : 0),
                      traced ? &totals : nullptr, spans);
    ++reps;
    r.attempted += 2;
    bool ok = rep.problems.empty();
    for (const auto& p : rep.problems) r.fail(p);
    if (digest.empty()) {
      digest = rep.digest;
    } else if (rep.digest != digest) {
      r.fail(std::string(traced ? "traced" : "untraced") + " repetition " +
             std::to_string(reps) + " has digest " + rep.digest +
             ", the first had " + digest);
      ok = false;
    }
    if (!ok) r.failed += 2;
    const double both = rep.wall_s[0] + rep.wall_s[1];
    if (traced) {
      traced_both.push_back(both);
    } else {
      untraced_both.push_back(both);
      blocks[0].push_back(std::move(rep.block_s[0]));
      blocks[1].push_back(std::move(rep.block_s[1]));
      setup.push_back(rep.setup_s);
      for (int k = 0; k < 8; ++k) ref_slices.push_back(reference_slice_s());
    }
    last = std::move(rep);
  }

  // Rates are one repetition's work over its fastest-block wall time: each
  // kTicksPerBlock-tick block timed at its fastest across the untraced
  // repetitions, then summed. The shared host this runs on slows whole
  // stretches of a run by 20-50%, which the summed wall time (kept as a
  // detail) takes in and the block minima do not. The set-up time is the
  // median repetition's. Reference slices timed after every untraced
  // repetition scale both metrics to the nominal machine (SpeedScale);
  // the details keep the unscaled figures.
  const World& w = *last.world;
  const double ue_s = last.ue_sim_s;
  const auto sum = [](const std::vector<double>& v) {
    double t = 0.0;
    for (const double x : v) t += x;
    return t;
  };
  const double n = static_cast<double>(untraced_both.size());
  const double best[2] = {sum_of_block_minima(blocks[0]),
                          sum_of_block_minima(blocks[1])};
  const double tp_all = 2.0 * ue_s / (best[0] + best[1]);
  const double tp_legacy = ue_s / best[0];
  const double tp_rem = ue_s / best[1];
  const Spread both_wall = spread_of(untraced_both), st = spread_of(setup);
  const sim::SimStats& agg_legacy = last.aggregate[0];
  const sim::SimStats& agg_rem = last.aggregate[1];
  // Failures over handovers, as bench_fleet computes the failure ratio.
  const auto failure_ratio = [](const sim::SimStats& s) {
    return s.handovers > 0 ? static_cast<double>(s.failures) / s.handovers
                           : (s.failures > 0 ? 1.0 : 0.0);
  };

  r.info_str("scenario", w.compiled.name);
  r.info_num("deployment_seed", static_cast<double>(w.compiled.seed));
  r.info_num("fleet_size", w.compiled.scenario.sim.fleet_size);
  r.info_num("horizon_s", w.compiled.scenario.sim.duration_s);
  r.info_num("cells", static_cast<double>(w.env->cells().size()));
  r.info_str("digest", digest);
  r.info_num("repetitions", n);
  r.info_num("traced_repetitions", static_cast<double>(traced_both.size()));
  r.info_num("ue_sim_s_per_s", tp_all);
  const SpeedScale speed = speed_scale(ref_slices);
  r.info_num("speed_scale.fast", speed.fast);
  r.info_num("speed_scale.typical", speed.typical);
  r.info_num("blocks_per_family", static_cast<double>(blocks[0].front().size()));
  r.info_num("ue_sim_s_per_s.summed_wall", 2.0 * ue_s * n / sum(untraced_both));
  r.info_num("ue_sim_s_per_s.repetition_median", 2.0 * ue_s / both_wall.median);
  r.info_num("ue_sim_s_per_s.repetition_q1", 2.0 * ue_s / both_wall.q3);
  r.info_num("ue_sim_s_per_s.repetition_q3", 2.0 * ue_s / both_wall.q1);
  r.info_num("legacy_ue_sim_s_per_s", tp_legacy);
  r.info_num("rem_ue_sim_s_per_s", tp_rem);
  r.info_num("setup_s", st.median);
  r.info_num("setup_s.q1", st.q1);
  r.info_num("setup_s.q3", st.q3);
  r.info_num("legacy_failure_ratio", failure_ratio(agg_legacy));
  r.info_num("rem_failure_ratio", failure_ratio(agg_rem));
  r.info_num("legacy_handovers", agg_legacy.handovers);
  r.info_num("rem_handovers", agg_rem.handovers);
  for (const auto* agg : {&agg_legacy, &agg_rem})
    for (const auto& [cause, count] : agg->failures_by_cause)
      r.info_num(std::string(agg == &agg_legacy ? "legacy" : "rem") +
                     "_failures." + sim::failure_cause_name(cause),
                 count);

  if (!o.trace) {
    r.metric("throughput_per_s", tp_all * speed.fast, "1/s");
    r.metric("setup_s", st.median / speed.typical, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run: per-layer metrics ----
  const double ue_ticks[2] = {
      static_cast<double>(totals.checker[0].ticks.calls),
      static_cast<double>(totals.checker[1].ticks.calls)};
  const double ticks_all = ue_ticks[0] + ue_ticks[1];
  r.metric("core.legacy_manager.update_ns",
           totals.manager[0].update.ns_per_call(), "ns");
  r.metric("core.rem_manager.update_ns",
           totals.manager[1].update.ns_per_call(), "ns");
  const double updates = static_cast<double>(totals.manager[0].update.calls +
                                             totals.manager[1].update.calls);
  r.metric("sim.radio_env.observations_per_ue_tick",
           ratio(static_cast<double>(totals.manager[0].observation_rows +
                                     totals.manager[1].observation_rows),
                 updates),
           "count");
  for (int f = 0; f < 2; ++f) {
    const double busy =
        static_cast<double>(totals.manager[f].update.ns +
                            totals.manager[f].other.ns + totals.checker[f].ns() +
                            totals.tracer[f].ns());
    r.metric(f == 0 ? "sim.engine.legacy_self_ns_per_ue_tick"
                    : "sim.engine.rem_self_ns_per_ue_tick",
             ratio(totals.wall_s[f] * 1e9 - busy, ue_ticks[f]), "ns");
  }
  r.metric("testkit.invariant_checker.ns_per_ue_tick",
           ratio(static_cast<double>(totals.checker[0].ns() +
                                     totals.checker[1].ns()),
                 ticks_all),
           "ns");
  const LayerTotal tracer_events{
      totals.tracer[0].events.ns + totals.tracer[1].events.ns,
      totals.tracer[0].events.calls + totals.tracer[1].events.calls};
  r.metric("obs.span_tracer.ns_per_event", tracer_events.ns_per_call(), "ns");
  r.metric("obs.span_tracer.ns_per_ue_tick",
           ratio(static_cast<double>(totals.tracer[0].ns() +
                                     totals.tracer[1].ns()),
                 ticks_all),
           "ns");
  r.metric("sim.events_per_ue_tick",
           ratio(static_cast<double>(totals.checker[0].events.calls +
                                     totals.checker[1].events.calls),
                 ticks_all),
           "count");

  replay_layers(w, o.seed, o.tiny, spans, r);
  r.metric("scenario.compile_ms", w.compile_s * 1e3, "ms");
  r.metric("sim.radio_env.build_ms", w.env_build_s * 1e3, "ms");

  // Simulated-behaviour counts from both families' aggregate SimStats.
  const auto both = [&](auto field) {
    return static_cast<double>(agg_legacy.*field) +
           static_cast<double>(agg_rem.*field);
  };
  const double fleet_ue_s = 2.0 * ue_s;
  const double submitted = both(&sim::SimStats::bs_jobs_submitted);
  r.metric("sim.bs_station.jobs_per_ue_s", ratio(submitted, fleet_ue_s), "1/s");
  r.metric("sim.bs_station.shed_ratio",
           ratio(both(&sim::SimStats::bs_queue_shed), submitted), "ratio");
  r.metric("sim.bs_station.queue_wait_mean_ms",
           1e3 * ratio(both(&sim::SimStats::bs_queue_wait_sum_s),
                       both(&sim::SimStats::bs_jobs_served)),
           "ms");
  const double sent = both(&sim::SimStats::backhaul_sent);
  r.metric("net.backhaul.frames_per_ue_s", ratio(sent, fleet_ue_s), "1/s");
  r.metric("net.backhaul.delivery_ratio",
           ratio(both(&sim::SimStats::backhaul_delivered), sent), "ratio");
  const double requests = both(&sim::SimStats::prep_requests);
  const double retries = both(&sim::SimStats::prep_retries);
  r.metric("core.prep.retry_ratio", ratio(retries, requests), "ratio");
  r.metric("core.admission.reject_ratio",
           ratio(both(&sim::SimStats::admission_rejects),
                 requests + retries +
                     both(&sim::SimStats::admission_backoff_retries)),
           "ratio");
  r.metric("legacy_failure_ratio", failure_ratio(agg_legacy), "ratio");
  r.metric("rem_failure_ratio", failure_ratio(agg_rem), "ratio");
  r.metric("legacy_ue_sim_s_per_s", tp_legacy, "1/s");
  r.metric("rem_ue_sim_s_per_s", tp_rem, "1/s");

  // Tracing overhead: median traced over median untraced wall time of the
  // interleaved repetitions.
  r.metric("bench.trace_overhead_pct",
           100.0 * (spread_of(traced_both).median /
                        spread_of(untraced_both).median -
                    1.0),
           "%");

  r.info_num("spans_recorded", static_cast<double>(spans.size()));
  if (!o.span_out.empty() && !spans.write_jsonl(o.span_out))
    r.fail("cannot write spans to " + o.span_out);
  else if (!o.span_out.empty())
    r.info_str("spans_file", o.span_out);
}

}  // namespace perfbench
