// perfbench: one workload of the repository benchmark per process.
//
//   perfbench --workload <rail_corridor|dense_storm|crossband_batch>
//             --seed <n> --seconds <s> --trace <0|1>
//             --scenario-dir <dir> [--span-out <file>] [--tiny]
//             [--inject <invariant|digest|mismatch>]
//
// Prints a human-readable summary, then one JSON object as the last line:
// correct/attempted/failed, the metrics with units, provenance and
// details, and every failed check. Exits 0 when every correctness check
// passed, 1 when one failed, 2 on bad arguments or an exception.
// perfbench/run.py builds this program and turns its output into the
// benchmark result; run it directly only for debugging.
#include "crossband_workload.hpp"
#include "fleet_workloads.hpp"
#include "build_info.hpp"
#include "probes.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

namespace {

using perfbench::Report;

/// Per-layer metrics that exist on one path only. A workload that does not
/// run a layer reports it as 0: that layer did no work there.
struct LayerName {
  const char* name;
  const char* unit;
};
constexpr LayerName kFleetOnly[] = {
    {"core.rem_manager.update_ns", "ns"},
    {"core.legacy_manager.update_ns", "ns"},
    {"sim.radio_env.observations_per_ue_tick", "count"},
    {"sim.engine.legacy_self_ns_per_ue_tick", "ns"},
    {"sim.engine.rem_self_ns_per_ue_tick", "ns"},
    {"testkit.invariant_checker.ns_per_ue_tick", "ns"},
    {"obs.span_tracer.ns_per_event", "ns"},
    {"obs.span_tracer.ns_per_ue_tick", "ns"},
    {"sim.events_per_ue_tick", "count"},
    {"sim.radio_env.instant_rsrp_ns", "ns"},
    {"sim.radio_env.dd_snr_ns", "ns"},
    {"sim.radio_env.mean_rsrp_ns", "ns"},
    {"sim.radio_env.best_cell_ns", "ns"},
    {"common.rng.gaussian_ns", "ns"},
    {"common.rng.uniform_ns", "ns"},
    {"common.rng.fork_ns", "ns"},
    {"scenario.compile_ms", "ms"},
    {"sim.radio_env.build_ms", "ms"},
    {"sim.bs_station.jobs_per_ue_s", "1/s"},
    {"sim.bs_station.shed_ratio", "ratio"},
    {"sim.bs_station.queue_wait_mean_ms", "ms"},
    {"net.backhaul.frames_per_ue_s", "1/s"},
    {"net.backhaul.delivery_ratio", "ratio"},
    {"core.prep.retry_ratio", "ratio"},
    {"core.admission.reject_ratio", "ratio"},
    {"legacy_failure_ratio", "ratio"},
    {"rem_failure_ratio", "ratio"},
    {"legacy_ue_sim_s_per_s", "1/s"},
    {"rem_ue_sim_s_per_s", "1/s"},
};
constexpr LayerName kCrossbandOnly[] = {
    {"crossband.estimate_batch_ns", "ns"},
    {"crossband.estimate_ns", "ns"},
    {"dsp.sfft_batch_ns", "ns"},
    {"dsp.svd_batch_ns", "ns"},
    {"crossband.paths_per_estimate", "count"},
    {"dsp.arena.steady_state_grows", "count"},
    {"crossband_snr_error_db", "dB"},
};

template <std::size_t N>
void zero_fill(Report& r, const LayerName (&names)[N]) {
  for (const auto& l : names) r.metric(l.name, 0.0, l.unit);
}

void add_provenance(Report& r, const perfbench::Options& o) {
  r.info_str("workload", o.workload);
  r.info_num("seed", static_cast<double>(o.seed));
  r.info_num("seconds", o.seconds);
  r.info_num("trace", o.trace ? 1 : 0);
  r.info_num("hardware_threads", std::thread::hardware_concurrency());
  r.info_num("threads_used", 1);
  r.info_str("build_type", PERFBENCH_BUILD_TYPE);
  r.info_str("compiler", PERFBENCH_COMPILER);
  r.info_str("cxx_flags", PERFBENCH_CXX_FLAGS);
}

void print(const Report& r) {
  for (const auto& [k, v] : r.info) std::printf("  %-40s %s\n", k.c_str(), v.c_str());
  for (const auto& m : r.metrics)
    std::printf("  metric %-38s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& e : r.errors) std::printf("  FAILED CHECK: %s\n", e.c_str());

  std::string js = "{\"correct\": ";
  js += r.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    js += (i ? ", " : "") + perfbench::json_quote(m.name) + ": {\"value\": " +
          buf + ", \"unit\": " + perfbench::json_quote(m.unit) + "}";
  }
  js += "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i)
    js += (i ? ", " : "") + perfbench::json_quote(r.info[i].first) + ": " +
          r.info[i].second;
  js += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    js += (i ? ", " : "") + perfbench::json_quote(r.errors[i]);
  js += "]}";
  std::printf("%s\n", js.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--inject") {
      o.inject = argv[++i];
    } else if (a == "--scenario-dir") {
      o.scenario_dir = argv[++i];
    } else if (a == "--span-out") {
      o.span_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool fleet =
      o.workload == "rail_corridor" || o.workload == "dense_storm";
  if (!fleet && o.workload != "crossband_batch")
    return usage(("unknown workload '" + o.workload + "'").c_str());
  if (fleet && o.scenario_dir.empty())
    return usage("fleet workloads need --scenario-dir");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  if (!o.inject.empty() && o.inject != "invariant" && o.inject != "digest" &&
      o.inject != "mismatch")
    return usage(("unknown --inject '" + o.inject + "'").c_str());

  Report r;
  add_provenance(r, o);
  try {
    if (fleet) {
      perfbench::run_fleet_workload(o, r);
      if (o.trace) zero_fill(r, kCrossbandOnly);
    } else {
      perfbench::run_crossband_workload(o, r);
      if (o.trace) zero_fill(r, kFleetOnly);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  print(r);
  return r.correct ? 0 : 1;
}
