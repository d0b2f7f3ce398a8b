// Shared by test_golden_traces (replay-and-diff) and golden_gen
// (regeneration): exactly how a GoldenCase is executed and digested. Both
// sides must agree byte-for-byte, so the logic lives in one place.
#pragma once

#include "scenario/scenario.hpp"
#include "scenario_runner.hpp"
#include "testkit/golden.hpp"

#include <functional>

namespace rem::testkit {

/// Run one corpus case (legacy + REM, events recorded, invariant checker
/// attached) and produce its digest.
inline TraceDigest run_golden_case(const GoldenCase& c) {
  phy::LogisticBlerModel bler;
  auto sc = trace::make_scenario(c.route, c.speed_kmh, c.duration_s);
  sc.sim.faults = golden_fault_preset(c.fault_preset, c.duration_s);
  sc.sim.record_events = true;
  if (c.fault_preset == "backhaul_loss_reorder") {
    // Pair the scripted loss windows with a transport that also reorders
    // and duplicates, so every frame path shows up in the digest.
    net::BackhaulConfig bh;
    bh.loss_prob = 0.02;
    bh.reorder_prob = 0.15;
    bh.duplicate_prob = 0.10;
    sc.sim.backhaul = bh;
  }
  const auto r = bench::run_seed(sc, c.seed, /*run_rem=*/true, bler);
  return make_digest(c, r.legacy, r.rem);
}

/// Run one fleet corpus case (a legacy fleet and a REM fleet, events
/// recorded, one invariant checker per UE) and produce its digest.
inline TraceDigest run_fleet_golden_case(const FleetGoldenCase& c) {
  phy::LogisticBlerModel bler;
  auto sc = trace::make_scenario(c.route, c.speed_kmh, c.duration_s);
  sc.sim.fleet_size = c.fleet_size;
  sc.sim.faults = golden_fault_preset(c.fault_preset, c.duration_s);
  sc.sim.record_events = true;
  if (c.fault_preset == "region_outage" || c.fault_preset == "cascade_storm") {
    // Correlated-fault cases run with the full resilience stack armed so
    // load ads, breaker transitions, and storm jitter all land in the pin.
    sc.sim.load_ad_staleness_s = 1.0;
    sc.sim.breaker_trip_k = 2;
    sc.sim.breaker_cooldown_s = 1.5;
    sc.sim.storm_jitter_frac = 0.5;
  }
  if (c.fault_preset == "cascade_storm") {
    // Single-slot stations with short queues: the cascade's background
    // load forces admission busy-rejects, so the breaker trip/probe/close
    // cycle is reliably exercised and pinned.
    sim::BsCapacityConfig cap;
    cap.slots = 1;
    cap.queue_capacity = 4;
    cap.admission_load_threshold = 0.5;
    sc.sim.bs_capacity = cap;
  }
  const auto legacy = bench::run_fleet_scenario(
      sc, c.seed, bench::Manager::kLegacy, bler);
  const auto rem =
      bench::run_fleet_scenario(sc, c.seed, bench::Manager::kRem, bler);
  return make_fleet_digest(c, legacy, rem);
}

/// One replayable unit of the committed corpus. The generator and the
/// replay test both iterate golden_jobs(), so a case added to either
/// corpus is automatically generated and regression-checked.
struct GoldenJob {
  std::string name;
  std::function<TraceDigest()> run;
};

/// Compile one library scenario and digest its *configuration* (no
/// simulation): scenario compilation is a pure function of the JSON, so
/// these digests pin the whole compiler — layout shaping, time
/// compression, fault scaling, profile resolution — byte-for-byte.
inline TraceDigest run_scenario_golden_case(const std::string& dir,
                                            const std::string& name) {
  const auto spec = rem::scenario::load_scenario(dir, name);
  const auto compiled = rem::scenario::compile(spec);
  TraceDigest d;
  d.case_name = "scen_" + name;
  d.fields = rem::scenario::digest_fields(compiled);
  return d;
}

inline std::vector<GoldenJob> golden_jobs() {
  std::vector<GoldenJob> jobs;
  for (const auto& c : golden_corpus())
    jobs.push_back({c.name, [c] { return run_golden_case(c); }});
  for (const auto& c : fleet_golden_corpus())
    jobs.push_back({c.name, [c] { return run_fleet_golden_case(c); }});
#ifdef REM_SCENARIO_DIR
  for (const auto& name : rem::scenario::list_scenario_names(REM_SCENARIO_DIR))
    jobs.push_back({"scen_" + name, [name] {
                      return run_scenario_golden_case(REM_SCENARIO_DIR, name);
                    }});
#endif
  return jobs;
}

}  // namespace rem::testkit
