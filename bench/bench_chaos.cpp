// Chaos sweep: run REM and legacy management under each registered
// FaultInjector class — the radio classes (burst signaling loss, pilot
// outage, processing stall, coverage blackout, command duplication), a
// backhaul sweep (frame loss at 1/5/10%, one-way delay spikes, full
// partitions), and the BS robustness classes (control-plane overload,
// crash-restart) — and record per-fault recovery-time / failure-ratio /
// downtime deltas against the no-fault baseline into BENCH_CHAOS.json.
// The sweep doubles as the robustness acceptance check: every run must
// complete without exceptions or invariant violations, REM's
// degraded-mode fallback must be observable under a pilot outage, REM
// must ride out backhaul loss up to 10% and bounded delay spikes with
// zero handover failures (prep retries absorb them), partitions must
// degrade gracefully (fallbacks/failures observed, retry budgets
// respected, recovery bounded), and legacy must degrade measurably where
// REM does not. Under bs_overload the asymmetry inverts roles: legacy's
// network-side decision path queues and sheds (observable bs_queue_shed)
// while REM's client-side prediction keeps deciding, so REM's failure
// ratio stays within kMaxRemOverloadFailureRatio while legacy degrades by
// at least kMinLegacyOverloadDegradation over its baseline. Under
// bs_crash_restart every scripted window must actually kill a BS, and
// service recovery after each crash (first re-establishment or completed
// handover) must land within kMaxCrashRecoveryS — crash window plus
// post-restart re-attachment, the explicit recovery bound. A sweep whose
// class list does not cover every registered FaultKind fails: new kinds
// cannot ship without chaos coverage.
//
// Every run also carries a rem::obs::SpanTracer, so the sweep additionally
// emits <output>_metrics.json (one rem-metrics-v1 snapshot merged over
// baseline + fault classes x seeds x managers, in that order — the sweep is
// serial, so the merge is deterministic) and <output>_trace.jsonl (one span
// per line, stamped with fault class, seed, and manager). Each run's trace
// is reconciled against its SimStats; any mismatch aborts the sweep.
//
// Usage: bench_chaos [--smoke] [output.json]
//   --smoke: tiny duration / single seed, for wiring into ctest so the
//   chaos path cannot rot; writes BENCH_CHAOS_smoke.json by default.
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace {

using rem::sim::FaultKind;

/// Worst crash-to-recovery gap in one run's event log: for every kBsCrash
/// the first later kReestablished/kHandoverComplete closes the gap; a
/// crash with no recovery before the horizon counts the full remainder
/// (so an unrecovered crash cannot pass a recovery gate by omission).
double worst_crash_recovery_s(const rem::sim::EventLog& events,
                              double horizon_s) {
  double worst = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != rem::sim::EventKind::kBsCrash) continue;
    double recovered_at = horizon_s;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind == rem::sim::EventKind::kReestablished ||
          events[j].kind == rem::sim::EventKind::kHandoverComplete) {
        recovered_at = events[j].t_s;
        break;
      }
    }
    worst = std::max(worst, recovered_at - events[i].t_s);
  }
  return worst;
}

/// Worst radio-link-failure-to-re-establishment gap, per owning UE: for
/// each kRadioLinkFailure the first later kReestablished *of the same UE*
/// closes the gap, so the helper is exact on fleet-merged event logs too;
/// an outage still open at the horizon counts the full remainder.
double worst_outage_s(const rem::sim::EventLog& events, double horizon_s) {
  double worst = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != rem::sim::EventKind::kRadioLinkFailure) continue;
    double recovered_at = horizon_s;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].ue != events[i].ue) continue;
      if (events[j].kind == rem::sim::EventKind::kReestablished) {
        recovered_at = events[j].t_s;
        break;
      }
    }
    worst = std::max(worst, recovered_at - events[i].t_s);
  }
  return worst;
}

/// One manager's runs in one sweep section, folded by AggregateStats, plus
/// the two recovery bounds that need each run's event log (empty, so 0,
/// when the section records no events).
struct SweepStats : rem::bench::AggregateStats {
  /// Worst gap from a BS crash opening to the first subsequent
  /// re-establishment or completed handover; only meaningful in
  /// single-UE logs.
  double max_crash_recovery_s = 0.0;
  /// Worst per-UE RLF-to-re-establishment gap: the fleet-safe
  /// service-recovery bound.
  double max_outage_s = 0.0;

  void add(const rem::sim::SimStats& s, double horizon_s) {
    AggregateStats::add(s);
    max_crash_recovery_s = std::max(
        max_crash_recovery_s, worst_crash_recovery_s(s.events, horizon_s));
    max_outage_s = std::max(max_outage_s, worst_outage_s(s.events, horizon_s));
  }
  rem::common::Summary recovery_s() const {
    rem::common::Summary r;
    r.add_all(outage_durations_s);
    return r;
  }
};

/// One entry of the sweep: both managers over every seed of one scenario.
struct Section {
  std::string name;
  /// The entry's own JSON keys, written before the manager blocks.
  std::string head;
  std::size_t windows = 0;
  std::set<FaultKind> kinds;  ///< kinds of the scheduled windows
  SweepStats legacy, rem;
};

/// A manager block: the kStatsTable rows plus the chaos-only derived keys
/// (failure_ratio here is SimStats::failure_ratio()).
void write_manager(std::ostream& js, const SweepStats& m,
                   const SweepStats& base) {
  const auto rec = m.recovery_s();
  rem::bench::write_stats_json(
      js, m, m.failure_ratio(),
      {{"delta_failure_ratio", m.failure_ratio() - base.failure_ratio()},
       {"mean_recovery_s", rec.mean()},
       {"delta_mean_recovery_s", rec.mean() - base.recovery_s().mean()},
       {"p95_recovery_s", rec.empty() ? 0.0 : rec.percentile(95.0)},
       {"mean_prep_rtt_s",
        m.prep_acks > 0 ? m.prep_rtt_sum_s / m.prep_acks : 0.0},
       {"mean_bs_queue_wait_s",
        m.bs_jobs_served > 0 ? m.bs_queue_wait_sum_s / m.bs_jobs_served
                             : 0.0},
       {"max_crash_recovery_s", m.max_crash_recovery_s},
       {"max_outage_s", m.max_outage_s}});
}

void write_section(std::ostream& js, const Section& r, const Section& base) {
  js << "{" << r.head << "\"legacy\": ";
  write_manager(js, r.legacy, base.legacy);
  js << ", \"rem\": ";
  write_manager(js, r.rem, base.rem);
  js << "}";
}

void print_section(const char* group, const Section& r,
                   const Section& base) {
  std::printf("%-9s %-22s %2zu windows | legacy %5.1f%% (base %4.1f%%) | REM "
              "%5.1f%% (base %4.1f%%)\n",
              group, r.name.c_str(), r.windows,
              100.0 * r.legacy.failure_ratio(),
              100.0 * base.legacy.failure_ratio(),
              100.0 * r.rem.failure_ratio(), 100.0 * base.rem.failure_ratio());
}

/// Writes one group of sections to the JSON and its summary to stdout.
void write_group(std::ostream& js, const char* group,
                 const std::vector<Section>& sections, const Section& base,
                 bool last) {
  js << "  \"" << group << "\": {\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    js << "    \"" << sections[i].name << "\": ";
    write_section(js, sections[i], base);
    print_section(group, sections[i], base);
    js << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  js << "  }" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }
  if (out_path.empty())
    out_path = smoke ? "BENCH_CHAOS_smoke.json" : "BENCH_CHAOS.json";

  const auto route = rem::trace::Route::kBeijingShanghai;
  const double speed_kmh = 300.0;
  const double duration_s = smoke ? 80.0 : 400.0;
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1}
            : std::vector<std::uint64_t>{1, 2, 3};
  rem::phy::LogisticBlerModel bler;

  // Fault schedules: the first window opens early so the smoke run
  // exercises every class too. Magnitudes are per-kind (see FaultWindow).
  struct ClassSpec {
    FaultKind kind;
    double first_s, period_s, duration_s, magnitude;
  };
  const std::vector<ClassSpec> classes = {
      {FaultKind::kSignalingLoss, 15.0, 60.0, 5.0, 1.0},
      {FaultKind::kPilotOutage, 15.0, 60.0, 8.0, 4.0},
      {FaultKind::kProcessingStall, 15.0, 60.0, 12.0, 0.6},
      {FaultKind::kCoverageBlackout, 15.0, 60.0, 4.0, 60.0},
      {FaultKind::kCommandDuplication, 10.0, 60.0, 25.0, 1.0},
      // u = 1.0 fills every station to slots + queue, so legacy's RRC
      // decision jobs shed outright while REM (client-driven) never
      // submits one; admission busy-rejects hit both managers' preps.
      // 14 s windows outlast legacy's decision-to-link-death margin (a
      // shed decision then turns into an RLF) but stay inside REM's
      // prediction lead, which is the degraded-mode asymmetry the gates
      // below pin down.
      {FaultKind::kBsOverload, 15.0, 60.0, 14.0, 1.0},
      // magnitude 1.0 < 2 picks the serving BS as victim at window open.
      {FaultKind::kBsCrashRestart, 20.0, 60.0, 5.0, 1.0},
  };

  // Backhaul sweep: sustained loss at the 1/5/10% points (one window over
  // nearly the whole horizon; period > horizon keeps it single), periodic
  // one-way delay spikes that push the prep RTT past its first timeout,
  // and periodic full partitions long enough to exhaust the retry budget.
  struct BackhaulSpec {
    std::string label;
    FaultKind kind;
    double first_s, period_s, duration_s, magnitude;
  };
  const std::vector<BackhaulSpec> backhaul_classes = {
      {"backhaul_loss_1", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.01},
      {"backhaul_loss_5", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.05},
      {"backhaul_loss_10", FaultKind::kBackhaulLoss, 5.0, 1e9,
       duration_s - 10.0, 0.10},
      {"backhaul_delay_spike", FaultKind::kBackhaulDelay, 15.0, 60.0, 10.0,
       0.025},
      {"backhaul_partition", FaultKind::kBackhaulPartition, 15.0, 60.0, 2.5,
       1.0},
  };

  // Side-channel observability outputs, next to the main JSON.
  const std::string stem = out_path.size() > 5 && out_path.ends_with(".json")
                               ? out_path.substr(0, out_path.size() - 5)
                               : out_path;
  const std::string metrics_path = stem + "_metrics.json";
  const std::string trace_path = stem + "_trace.jsonl";
  std::ofstream trace_js(trace_path);
  rem::obs::MetricsSnapshot metrics;

  // Both managers over every seed of `sc`, folded in seed order. A fleet
  // section runs bench::run_fleet_scenario (one InvariantChecker per UE,
  // no tracer); any other runs bench::run_seed with a span tracer, whose
  // metrics merge into `metrics` and whose spans append to the trace file
  // stamped with section, seed and manager.
  const auto run_section = [&](const std::string& name,
                               const rem::trace::Scenario& sc, bool fleet) {
    Section r;
    r.name = name;
    r.windows = sc.sim.faults.windows.size();
    r.head = "\"windows\": " + std::to_string(r.windows) + ", ";
    for (const auto& w : sc.sim.faults.windows) r.kinds.insert(w.kind);
    const double horizon = sc.sim.duration_s;
    for (const auto seed : seeds) {
      rem::bench::RunOptions opts;
      opts.context = "chaos " + name + ", seed " + std::to_string(seed);
      if (fleet) {
        r.legacy.add(rem::bench::run_fleet_scenario(
                         sc, seed, rem::bench::Manager::kLegacy, bler, opts)
                         .aggregate,
                     horizon);
        r.rem.add(rem::bench::run_fleet_scenario(
                      sc, seed, rem::bench::Manager::kRem, bler, opts)
                      .aggregate,
                  horizon);
        continue;
      }
      const std::string stamp = "\"fault\": \"" + name + "\", \"seed\": \"" +
                                std::to_string(seed) + "\"";
      opts.collect_metrics = true;
      opts.trace_sink = [&](const std::string& manager,
                            const rem::obs::SpanTracer& tracer) {
        tracer.write_trace_jsonl(
            trace_js, stamp + ", \"manager\": \"" + manager + "\"");
      };
      const auto s = rem::bench::run_seed(sc, seed, /*run_rem=*/true, bler,
                                          opts);
      metrics.merge(s.legacy_metrics);
      metrics.merge(s.rem_metrics);
      r.legacy.add(s.legacy, horizon);
      r.rem.add(s.rem, horizon);
    }
    return r;
  };
  // The single-UE sweep scenario under `faults`, events recorded.
  const auto radio_scenario = [&](const rem::sim::FaultConfig& faults) {
    auto sc = rem::trace::make_scenario(route, speed_kmh, duration_s);
    sc.sim.faults = faults;
    sc.sim.record_events = true;
    return sc;
  };

  std::printf("chaos sweep: %s, %.0f km/h, %.0f s x %zu seeds%s\n",
              rem::trace::route_name(route).c_str(), speed_kmh, duration_s,
              seeds.size(), smoke ? " [smoke]" : "");

  Section base = run_section("baseline", radio_scenario({}), false);
  base.head.clear();

  std::vector<Section> results;
  for (const auto& c : classes) {
    results.push_back(run_section(
        rem::sim::fault_kind_name(c.kind),
        radio_scenario(rem::bench::periodic(c.kind, c.first_s, c.period_s,
                                            c.duration_s, c.magnitude,
                                            duration_s)),
        false));
  }

  std::vector<Section> backhaul_results;
  for (const auto& c : backhaul_classes) {
    backhaul_results.push_back(run_section(
        c.label,
        radio_scenario(rem::bench::periodic(c.kind, c.first_s, c.period_s,
                                            c.duration_s, c.magnitude,
                                            duration_s)),
        false));
  }

  // Fleet sweep: N UEs genuinely contending for BS slots and backhaul
  // capacity under the library's rail_overload_fleet scenario (the same
  // periodic bs_overload schedule as the single-UE class), compiled by
  // rem::scenario with the sweep's duration and fleet size as overrides.
  // Each fleet runs with one InvariantChecker per UE (run_fleet_scenario
  // throws on violations); per-seed aggregates fold in seed order, so the
  // section is deterministic at any thread count.
  const int fleet_size = smoke ? 6 : 12;
  rem::scenario::CompileOverrides fleet_ov;
  fleet_ov.duration_s = duration_s;
  fleet_ov.ue_count = fleet_size;
  const auto fleet_compiled = rem::scenario::compile(
      rem::scenario::load_scenario(REM_SCENARIO_DIR, "rail_overload_fleet"),
      fleet_ov);
  std::vector<Section> fleet_results = {
      run_section("bs_overload", fleet_compiled.scenario, true)};
  Section& fleet = fleet_results.front();
  fleet.head = "\"scenario\": \"" + fleet_compiled.name +
               "\", \"fleet_size\": " + std::to_string(fleet_size) + ", " +
               fleet.head;

  // Cascade section: the two correlated-fault library scenarios —
  // rail_region_outage (staggered domain blackouts with load ads,
  // breakers, and storm damping armed) and dense_cascade_storm (a crash
  // whose load floods the surviving neighbors while breakers contain the
  // retry stampede) — run as full fleets with per-UE invariant checkers
  // (run_fleet_scenario throws on any breaker-legality or load-ad
  // staleness violation, so those invariants are machine-checked on every
  // bench run). Events stay recorded so the per-UE outage bound below is
  // computable on the merged logs.
  std::vector<Section> cascade_results;
  for (const char* scen_name : {"rail_region_outage", "dense_cascade_storm"}) {
    rem::scenario::CompileOverrides ov;
    if (smoke) ov.duration_s = duration_s;  // shrink to the smoke horizon
    auto sc = rem::scenario::compile(
                  rem::scenario::load_scenario(REM_SCENARIO_DIR, scen_name), ov)
                  .scenario;
    sc.sim.record_events = true;
    cascade_results.push_back(run_section(scen_name, sc, true));
    Section& r = cascade_results.back();
    r.head = "\"fleet_size\": " + std::to_string(sc.sim.fleet_size) + ", " +
             r.head;
  }

  std::ofstream js(out_path);
  js << "{\n";
  js << "  \"route\": \"" << rem::trace::route_name(route) << "\",\n";
  js << "  \"speed_kmh\": " << speed_kmh << ",\n";
  js << "  \"duration_s\": " << duration_s << ",\n";
  js << "  \"seeds\": " << seeds.size() << ",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"baseline\": ";
  write_section(js, base, base);
  print_section("baseline", base, base);
  js << ",\n";
  write_group(js, "faults", results, base, false);
  write_group(js, "backhaul", backhaul_results, base, false);
  write_group(js, "fleet", fleet_results, base, false);
  write_group(js, "cascade", cascade_results, base, true);
  js << "}\n";
  rem::obs::write_metrics_json_file(metrics, metrics_path);
  trace_js.close();
  std::printf("wrote %s, %s, %s\n", out_path.c_str(), metrics_path.c_str(),
              trace_path.c_str());

  // Acceptance gates: the degraded-mode fallback must actually fire under
  // a pilot outage, and the blackout class must produce observable
  // recoveries; a chaos sweep that cannot provoke its faults is rot.
  // REM must keep its failure ratio essentially flat under BS overload
  // (client-side prediction sidesteps the shed decision queue) while
  // legacy degrades by a visible margin; crash recovery is bounded by an
  // explicit constant so "restart re-establishes state" is a checked
  // claim, not prose.
  constexpr double kMaxRemOverloadFailureRatio = 0.01;
  constexpr double kMinLegacyOverloadDegradation = 0.05;
  constexpr double kMaxCrashRecoveryS = 10.0;
  bool ok = true;
  for (const auto& r : results) {
    if (r.name == "pilot_outage" && r.rem.degraded_enters == 0) {
      std::printf("FAIL: REM never entered degraded mode under %s\n",
                  r.name.c_str());
      ok = false;
    }
    if (r.name == "coverage_blackout" &&
        r.legacy.failures + r.rem.failures == 0) {
      std::printf("FAIL: no failures observed under %s\n", r.name.c_str());
      ok = false;
    }
    if (r.name == "bs_overload") {
      if (r.legacy.bs_queue_shed == 0) {
        std::printf("FAIL: legacy never shed a BS job under %s\n",
                    r.name.c_str());
        ok = false;
      }
      if (r.rem.failure_ratio() > kMaxRemOverloadFailureRatio) {
        std::printf("FAIL: REM failure ratio %.2f%% under %s (max %.2f%%)\n",
                    100.0 * r.rem.failure_ratio(), r.name.c_str(),
                    100.0 * kMaxRemOverloadFailureRatio);
        ok = false;
      }
      if (!smoke && r.legacy.failure_ratio() <
                        base.legacy.failure_ratio() +
                            kMinLegacyOverloadDegradation) {
        std::printf("FAIL: legacy failure ratio %.2f%% under %s did not "
                    "degrade >= %.0f points over baseline %.2f%%\n",
                    100.0 * r.legacy.failure_ratio(), r.name.c_str(),
                    100.0 * kMinLegacyOverloadDegradation,
                    100.0 * base.legacy.failure_ratio());
        ok = false;
      }
      if (r.rem.admission_rejects + r.rem.admission_backoff_retries == 0) {
        std::printf("FAIL: admission control never fired for REM under %s\n",
                    r.name.c_str());
        ok = false;
      }
    }
    if (r.name == "bs_crash_restart") {
      // Every scripted window must actually kill a BS — for both managers
      // (the schedule is deterministic: windows x seeds crashes each).
      const int expected =
          static_cast<int>(r.windows) * static_cast<int>(seeds.size());
      for (const auto* m : {&r.legacy, &r.rem}) {
        if (m->bs_crashes != expected) {
          std::printf("FAIL: %d BS crashes under %s (expected %d)\n",
                      m->bs_crashes, r.name.c_str(), expected);
          ok = false;
        }
      }
      if (r.rem.max_crash_recovery_s > kMaxCrashRecoveryS) {
        std::printf("FAIL: REM crash recovery %.1f s under %s (bound %.1f "
                    "s)\n",
                    r.rem.max_crash_recovery_s, r.name.c_str(),
                    kMaxCrashRecoveryS);
        ok = false;
      }
    }
  }

  // Chaos coverage: the sweep's class lists must exercise every
  // registered FaultKind, so a new kind cannot land without a window
  // here. Also bound the smoke run's deterministic sim-time budget so
  // wiring it into ctest stays cheap.
  std::set<int> covered;
  for (const auto& c : classes) covered.insert(static_cast<int>(c.kind));
  for (const auto& c : backhaul_classes)
    covered.insert(static_cast<int>(c.kind));
  for (const auto& r : cascade_results)
    for (const auto k : r.kinds) covered.insert(static_cast<int>(k));
  if (covered.size() != rem::sim::kNumFaultKinds) {
    std::printf("FAIL: chaos sweep covers %zu of %zu FaultKinds\n",
                covered.size(), rem::sim::kNumFaultKinds);
    ok = false;
  }
  if (smoke) {
    for (const auto& c : classes)
      if (c.first_s + c.duration_s >= duration_s) {
        std::printf("FAIL: smoke horizon misses a %s window\n",
                    rem::sim::fault_kind_name(c.kind).c_str());
        ok = false;
      }
    for (const auto& c : backhaul_classes)
      if (c.first_s >= duration_s) {
        std::printf("FAIL: smoke horizon misses a %s window\n",
                    c.label.c_str());
        ok = false;
      }
    constexpr double kMaxSmokeSimSeconds = 2600.0;
    const double sim_seconds =
        duration_s * static_cast<double>(seeds.size()) *
        static_cast<double>(1 + classes.size() + backhaul_classes.size()) *
        2.0;  // two managers per config
    if (sim_seconds > kMaxSmokeSimSeconds) {
      std::printf("FAIL: smoke budget %.0f sim-seconds exceeds %.0f\n",
                  sim_seconds, kMaxSmokeSimSeconds);
      ok = false;
    }
  }

  // Backhaul gates. Loss up to 10% and bounded delay spikes must be fully
  // absorbed by the prep retry/backoff budget: REM keeps the paper's zero
  // failure ratio. Partitions may fail handovers, but only gracefully —
  // the fallback/failure paths fire, retries stay inside the per-attempt
  // budget (no storms), every outage recovers within the horizon, and
  // legacy visibly degrades where it shares the same faulty links.
  for (const auto& r : backhaul_results) {
    const bool loss_or_delay = r.name.rfind("backhaul_loss", 0) == 0 ||
                               r.name.rfind("backhaul_delay", 0) == 0;
    if (loss_or_delay && r.rem.failures > 0) {
      std::printf("FAIL: REM failure ratio %.2f%% under %s (expected 0)\n",
                  100.0 * r.rem.failure_ratio(), r.name.c_str());
      ok = false;
    }
    for (const auto* m : {&r.legacy, &r.rem}) {
      const long long budget = static_cast<long long>(m->prep_requests) *
                               rem::sim::SimConfig{}.prep_max_retries;
      if (m->prep_retries > budget) {
        std::printf("FAIL: retry storm under %s (%d retries for %d "
                    "requests)\n",
                    r.name.c_str(), m->prep_retries, m->prep_requests);
        ok = false;
      }
    }
    if (r.name == "backhaul_partition") {
      if (r.rem.prep_fallbacks + r.rem.prep_failures == 0) {
        std::printf("FAIL: partitions never exercised the fallback/failure "
                    "path under %s\n",
                    r.name.c_str());
        ok = false;
      }
      // "Measurably degrades": either the radio failure ratio rises above
      // the fault-free baseline, or preparations visibly fail/fall back on
      // the partitioned links (the only signal in short smoke horizons
      // where recovery masks the radio impact).
      const bool legacy_degraded =
          r.legacy.failure_ratio() > base.legacy.failure_ratio() ||
          r.legacy.prep_failures + r.legacy.prep_fallbacks > 0;
      if (!legacy_degraded) {
        std::printf("FAIL: legacy did not degrade under %s (%.2f%% vs "
                    "baseline %.2f%%, no prep failures/fallbacks)\n",
                    r.name.c_str(), 100.0 * r.legacy.failure_ratio(),
                    100.0 * base.legacy.failure_ratio());
        ok = false;
      }
      if (r.rem.downtime_fraction.mean() > 0.25) {
        std::printf("FAIL: REM downtime %.1f%% under %s (recovery not "
                    "bounded)\n",
                    100.0 * r.rem.downtime_fraction.mean(), r.name.c_str());
        ok = false;
      }
    }
  }

  // Fleet gate: with N UEs genuinely contending for control-plane slots
  // under BS overload, REM's client-driven decisions must keep the fleet
  // failure ratio strictly below legacy's — the paper's asymmetry must
  // survive contention, not just the single-UE benches.
  if (!(fleet.rem.failure_ratio() < fleet.legacy.failure_ratio())) {
    std::printf("FAIL: fleet (%d UEs) REM failure ratio %.2f%% not strictly "
                "below legacy %.2f%% under bs_overload\n",
                fleet_size, 100.0 * fleet.rem.failure_ratio(),
                100.0 * fleet.legacy.failure_ratio());
    ok = false;
  }
  if (fleet.legacy.bs_queue_shed == 0) {
    std::printf("FAIL: legacy fleet never shed a BS job under overload "
                "contention\n");
    ok = false;
  }

  // Cascade gates. Under correlated regional faults REM's fleet failure
  // ratio must sit strictly below legacy's (load-aware steering + breakers
  // must buy something real, not just not hurt); service recovery after
  // the faults clear is bounded by the same explicit constant as crash
  // recovery, measured as the worst per-UE RLF-to-re-establishment gap;
  // storms must leave zero *persistent* ping-pong (a loop episode holding
  // two or more loop handovers — a single flap back is transient, a
  // sustained oscillation is a steering failure); and each scenario must
  // actually provoke its machinery (region kills, cascade injections,
  // breaker trips, load advertisements) — a cascade sweep that cannot
  // trigger its faults is rot.
  for (const auto& r : cascade_results) {
    if (r.kinds.count(FaultKind::kRegionOutage) > 0) {
      if (r.legacy.bs_crashes == 0 || r.rem.bs_crashes == 0) {
        std::printf("FAIL: %s never killed a BS (legacy %d, rem %d)\n",
                    r.name.c_str(), r.legacy.bs_crashes, r.rem.bs_crashes);
        ok = false;
      }
      if (!(r.rem.failure_ratio() < r.legacy.failure_ratio())) {
        std::printf("FAIL: %s REM fleet failure ratio %.2f%% not strictly "
                    "below legacy %.2f%%\n",
                    r.name.c_str(), 100.0 * r.rem.failure_ratio(),
                    100.0 * r.legacy.failure_ratio());
        ok = false;
      }
      if (r.rem.load_ads_received == 0) {
        std::printf("FAIL: %s REM fleet never applied a load "
                    "advertisement\n",
                    r.name.c_str());
        ok = false;
      }
    }
    if (r.kinds.count(FaultKind::kCascadeOverload) > 0) {
      if (r.legacy.cascade_activations + r.rem.cascade_activations == 0 ||
          r.legacy.cascade_jobs_injected + r.rem.cascade_jobs_injected ==
              0) {
        std::printf("FAIL: %s never injected a cascade job\n",
                    r.name.c_str());
        ok = false;
      }
      if (r.legacy.breaker_trips + r.rem.breaker_trips == 0) {
        std::printf("FAIL: %s never tripped a circuit breaker\n",
                    r.name.c_str());
        ok = false;
      }
      if (r.rem.loop_handovers > r.rem.loop_episodes) {
        std::printf("FAIL: %s REM shows persistent ping-pong (%d loop "
                    "handovers over %d episodes)\n",
                    r.name.c_str(), r.rem.loop_handovers,
                    r.rem.loop_episodes);
        ok = false;
      }
    }
    if (r.rem.max_outage_s > kMaxCrashRecoveryS) {
      std::printf("FAIL: %s REM worst outage %.1f s (recovery bound %.1f "
                  "s)\n",
                  r.name.c_str(), r.rem.max_outage_s, kMaxCrashRecoveryS);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
