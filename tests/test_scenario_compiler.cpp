// Scenario compiler verification (label: tier1): the declarative JSON
// schema round-trips canonically, every malformed input is rejected with
// the offending key/scenario named, compilation reproduces a hand-built
// SimConfig bit-for-bit, time compression scales the fault timeline but
// never magnitudes, a compiled fleet run is bit-identical across
// worker-thread counts, and seeded corruptions of every library file
// either compile or are rejected with a documented exception type.
#include "scenario/scenario.hpp"

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "fleet_runner.hpp"
#include "testkit/golden.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

namespace scn = rem::scenario;

/// Expect `fn` to throw `Ex` with `fragment` somewhere in the message —
/// the reject-with-context contract: errors name what went wrong.
template <typename Ex, typename Fn>
void expect_throw_with(const std::string& fragment, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected an exception mentioning '" << fragment << "'";
  } catch (const Ex& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

scn::ScenarioSpec parse(const std::string& json) {
  std::istringstream is(json);
  return scn::read_scenario_json(is);
}

/// Minimal valid scenario JSON with extra lines spliced in before the
/// closing brace.
std::string minimal_json(const std::string& extra = "") {
  return "{\n"
         "  \"schema\": \"rem-scenario-v1\",\n"
         "  \"name\": \"t\",\n"
         "  \"description\": \"test\",\n" +
         extra + "}\n";
}

/// A spec exercising every field group: mixed classes, scripted + random
/// faults, asymmetric backhaul, a non-default BS profile, custom gates.
scn::ScenarioSpec full_spec() {
  scn::ScenarioSpec s;
  s.name = "full";
  s.description = "every field group populated";
  s.paper_ref = "fig 9";
  s.route = rem::trace::Route::kBeijingTaiyuan;
  s.layout = scn::Layout::kUrbanCanyon;
  s.speed_kmh = 90.0;
  s.duration_s = 80.0;
  s.time_compression = 2.0;
  s.seed = 77;
  s.ue_count = 5;
  s.start_spread_m = 900.0;
  s.classes = {{"vehicular", 3, 40.0, 100.0}, {"pedestrian", 2, 3.0, 6.0}};
  rem::sim::FaultWindow w;
  w.kind = rem::sim::FaultKind::kBsOverload;
  w.start_s = 10.0;
  w.duration_s = 6.0;
  w.magnitude = 1.0;
  s.faults = {w};
  rem::sim::RandomFaultSpec r;
  r.kind = rem::sim::FaultKind::kPilotOutage;
  r.mean_gap_s = 30.0;
  r.duration_lo_s = 1.0;
  r.duration_hi_s = 2.0;
  r.magnitude_lo = 10.0;
  r.magnitude_hi = 20.0;
  s.rfaults = {r};
  s.backhaul.loss_prob = 0.03;
  s.backhaul.reverse_latency_scale = 2.0;
  s.bs_profile = "small_cell";
  s.bs_capacity = rem::sim::BsCapacityConfig{};
  s.bs_capacity.slots = 1;
  s.bs_capacity.queue_capacity = 4;
  s.bs_capacity.admission_load_threshold = 0.5;
  s.gates.max_rem_failure_ratio = 0.25;
  s.gates.rem_le_legacy = false;
  s.gates.min_legacy_handovers = 7;
  return s;
}

// --- schema round-trip ----------------------------------------------------

TEST(ScenarioSchema, WriteReadWriteIsCanonical) {
  const auto spec = full_spec();
  const std::string once = scn::write_scenario_json(spec);
  std::istringstream is(once);
  const auto back = scn::read_scenario_json(is);
  EXPECT_EQ(scn::write_scenario_json(back), once);
  // Spot-check the parsed fields, not just the re-emission.
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.route, spec.route);
  EXPECT_EQ(back.layout, spec.layout);
  EXPECT_EQ(back.seed, spec.seed);
  ASSERT_EQ(back.classes.size(), 2u);
  EXPECT_EQ(back.classes[0].name, "vehicular");
  EXPECT_EQ(back.classes[0].count, 3);
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].kind, rem::sim::FaultKind::kBsOverload);
  ASSERT_EQ(back.rfaults.size(), 1u);
  EXPECT_EQ(back.backhaul.reverse_latency_scale, 2.0);
  EXPECT_EQ(back.bs_profile, "small_cell");
  EXPECT_EQ(back.gates.min_legacy_handovers, 7);
}

TEST(ScenarioSchema, EveryLibraryScenarioRoundTrips) {
  const auto names = scn::list_scenario_names(REM_SCENARIO_DIR);
  EXPECT_GE(names.size(), 10u) << "library shrank below the shipped set";
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const auto spec = scn::load_scenario(REM_SCENARIO_DIR, name);
    const std::string once = scn::write_scenario_json(spec);
    std::istringstream is(once);
    EXPECT_EQ(scn::write_scenario_json(scn::read_scenario_json(is)), once);
    // And each must compile at its authored parameters.
    EXPECT_NO_THROW(scn::compile(spec));
  }
}

TEST(ScenarioSchema, NamedShorthandsExpandToClasses) {
  const auto spec = parse(minimal_json("  \"ue.pedestrian\": \"2\",\n"
                                       "  \"ue.vehicular\": \"3\",\n"));
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.ue_count, 5);
  EXPECT_EQ(spec.classes[0].name, "pedestrian");
  EXPECT_EQ(spec.classes[0].count, 2);
  EXPECT_EQ(spec.classes[0].speed_lo_kmh, 3.0);
  EXPECT_EQ(spec.classes[0].speed_hi_kmh, 6.0);
  EXPECT_EQ(spec.classes[1].name, "vehicular");
  EXPECT_EQ(spec.classes[1].speed_hi_kmh, 100.0);
}

// --- reject-with-context --------------------------------------------------

TEST(ScenarioSchema, RejectsUnknownAndDuplicateKeys) {
  expect_throw_with<std::runtime_error>("unknown key(s) 'ue.warp_speed'", [] {
    parse(minimal_json("  \"ue.warp_speed\": \"9000\",\n"));
  });
  expect_throw_with<std::runtime_error>("duplicate key 'seed'", [] {
    parse(minimal_json("  \"seed\": \"1\",\n  \"seed\": \"2\",\n"));
  });
}

TEST(ScenarioSchema, RejectsBadSchemaAndMissingRequiredKeys) {
  expect_throw_with<std::runtime_error>("missing 'schema' key", [] {
    parse("{\n  \"name\": \"t\",\n  \"description\": \"d\",\n}\n");
  });
  expect_throw_with<std::runtime_error>("schema 'rem-scenario-v0'", [] {
    parse("{\n  \"schema\": \"rem-scenario-v0\",\n  \"name\": \"t\",\n"
          "  \"description\": \"d\",\n}\n");
  });
  expect_throw_with<std::runtime_error>("missing 'description' key", [] {
    parse("{\n  \"schema\": \"rem-scenario-v1\",\n  \"name\": \"t\",\n}\n");
  });
}

TEST(ScenarioSchema, RejectsMalformedLinesWithLineNumber) {
  expect_throw_with<std::runtime_error>("line 3", [] {
    parse("{\n  \"schema\": \"rem-scenario-v1\",\n  not json at all\n}\n");
  });
}

TEST(ScenarioSchema, RejectsContradictoryPopulationForms) {
  expect_throw_with<std::runtime_error>("contradictory UE population", [] {
    parse(minimal_json("  \"ue.speed_lo_kmh\": \"100\",\n"
                       "  \"ue.pedestrian\": \"2\",\n"));
  });
  expect_throw_with<std::runtime_error>("contradictory UE population", [] {
    parse(minimal_json("  \"ue.pedestrian\": \"2\",\n"
                       "  \"ue.class.0.name\": \"a\",\n"
                       "  \"ue.class.0.count\": \"1\",\n"
                       "  \"ue.class.0.speed_lo_kmh\": \"10\",\n"
                       "  \"ue.class.0.speed_hi_kmh\": \"20\",\n"));
  });
  expect_throw_with<std::runtime_error>("contradicts the class counts", [] {
    parse(minimal_json("  \"ue.count\": \"9\",\n"
                       "  \"ue.pedestrian\": \"2\",\n"));
  });
  expect_throw_with<std::runtime_error>("needs all of", [] {
    parse(minimal_json("  \"ue.class.0.name\": \"a\",\n"
                       "  \"ue.class.0.count\": \"1\",\n"));
  });
}

TEST(ScenarioSchema, RejectsUnknownFaultKindAndPartialWindow) {
  expect_throw_with<std::runtime_error>("fault.0.kind", [] {
    parse(minimal_json("  \"fault.0.kind\": \"meteor_strike\",\n"
                       "  \"fault.0.start_s\": \"1\",\n"
                       "  \"fault.0.duration_s\": \"1\",\n"
                       "  \"fault.0.magnitude\": \"1\",\n"));
  });
  expect_throw_with<std::runtime_error>(
      "needs all of kind/start_s/duration_s/magnitude", [] {
        parse(minimal_json("  \"fault.0.kind\": \"pilot_outage\",\n"));
      });
}

TEST(ScenarioSchema, RejectsNonFiniteAndOutOfRangeNumbers) {
  // strtod reads these spellings happily; an infinite horizon would make
  // the compile-time fault probe loop forever.
  for (const char* v : {"inf", "-inf", "nan", "1e999", "-1e999"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>("'duration_s': non-finite", [&] {
      parse(minimal_json("  \"duration_s\": \"" + std::string(v) + "\",\n"));
    });
  }
  // A long that does not fit an int used to wrap (4294967297 -> 1 UE).
  for (const char* v : {"4294967297", "-2147483649", "99999999999999999999"}) {
    SCOPED_TRACE(v);
    expect_throw_with<std::runtime_error>("'ue.count': integer", [&] {
      parse(minimal_json("  \"ue.count\": \"" + std::string(v) + "\",\n"));
    });
  }
  expect_throw_with<std::runtime_error>("'seed': integer", [] {
    parse(minimal_json("  \"seed\": \"99999999999999999999\",\n"));
  });
  // In-range class counts whose sum overflows an int.
  expect_throw_with<std::runtime_error>("beyond int range", [] {
    parse(minimal_json("  \"ue.pedestrian\": \"2000000000\",\n"
                       "  \"ue.vehicular\": \"2000000000\",\n"));
  });
}

TEST(ScenarioCompile, RejectsWithScenarioNamedInContext) {
  // Overlapping scripted windows of the same kind: FaultInjector's own
  // validation fires, rewrapped with the scenario name prefixed.
  auto spec = full_spec();
  rem::sim::FaultWindow w = spec.faults[0];
  w.start_s = 12.0;  // overlaps [10, 16) of the same kind
  spec.faults.push_back(w);
  expect_throw_with<std::invalid_argument>("scenario 'full'", [&] {
    scn::compile(spec);
  });

  // Out-of-range speeds carry the offending field name.
  auto fast = full_spec();
  fast.classes[0].speed_hi_kmh = 700.0;
  expect_throw_with<std::invalid_argument>("speed_hi_kmh", [&] {
    scn::compile(fast);
  });

  // Class counts must sum to the UE count.
  auto sum = full_spec();
  sum.ue_count = 4;
  expect_throw_with<std::invalid_argument>("class counts sum to 5", [&] {
    scn::compile(sum);
  });

  // A ue_count override is meaningless against a pinned class mix.
  scn::CompileOverrides ov;
  ov.ue_count = 9;
  expect_throw_with<std::invalid_argument>("class-mix population", [&] {
    scn::compile(full_spec(), ov);
  });
}

// --- compiled-config bit-identity -----------------------------------------

TEST(ScenarioCompile, PlainSpecMatchesHandBuiltConfigBitForBit) {
  scn::ScenarioSpec spec;
  spec.name = "hand";
  spec.description = "hand-built reference";
  spec.route = rem::trace::Route::kBeijingShanghai;
  spec.speed_kmh = 300.0;
  spec.duration_s = 60.0;
  spec.seed = 5;
  spec.ue_count = 4;
  const auto compiled = scn::compile(spec);

  // The rail-linear layout leaves the route preset untouched, so the
  // compiled scenario must be make_scenario plus exactly the documented
  // fleet wiring and route-length recompute — nothing else.
  auto hand = rem::trace::make_scenario(spec.route, 300.0, 60.0);
  hand.sim.fleet_size = 4;
  hand.sim.fleet.speed_min_kmh = spec.ue_speed_lo_kmh;
  hand.sim.fleet.speed_max_kmh = spec.ue_speed_hi_kmh;
  hand.sim.fleet.start_spread_m = spec.start_spread_m;
  hand.deployment.route_len_m =
      rem::common::kmh_to_mps(spec.ue_speed_hi_kmh) * 60.0 +
      spec.start_spread_m + 2.0 * hand.deployment.site_spacing_mean_m;

  scn::CompiledScenario ref;
  ref.name = compiled.name;
  ref.description = compiled.description;
  ref.paper_ref = compiled.paper_ref;
  ref.scenario = hand;
  ref.seed = compiled.seed;
  ref.gates = compiled.gates;
  const auto a = scn::digest_fields(compiled);
  const auto b = scn::digest_fields(ref);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "field order diverged at " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "field " << a[i].first;
  }
}

TEST(ScenarioCompile, TimeCompressionScalesTimelineNotMagnitudes) {
  auto spec = full_spec();
  spec.time_compression = 1.0;
  scn::CompileOverrides ov;
  ov.extra_time_compression = 4.0;
  const auto c = scn::compile(spec, ov);
  EXPECT_DOUBLE_EQ(c.scenario.sim.duration_s, spec.duration_s / 4.0);
  ASSERT_EQ(c.scenario.sim.faults.windows.size(), 1u);
  const auto& w = c.scenario.sim.faults.windows[0];
  EXPECT_DOUBLE_EQ(w.start_s, 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(w.duration_s, 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(w.magnitude, 1.0);  // protocol quantity: never scaled
  ASSERT_EQ(c.scenario.sim.faults.random.size(), 1u);
  const auto& r = c.scenario.sim.faults.random[0];
  EXPECT_DOUBLE_EQ(r.mean_gap_s, 30.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.duration_lo_s, 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.magnitude_lo, 10.0);
  EXPECT_DOUBLE_EQ(r.magnitude_hi, 20.0);
}

TEST(ScenarioCompile, LayoutPresetsShapeDeployment) {
  scn::ScenarioSpec spec;
  spec.name = "l";
  spec.description = "layout probe";
  spec.route = rem::trace::Route::kLowMobilityLA;
  spec.speed_kmh = 30.0;
  spec.layout = scn::Layout::kDenseSmallCell;
  const auto dense = scn::compile(spec);
  EXPECT_LE(dense.scenario.deployment.site_spacing_mean_m, 220.0);
  EXPECT_EQ(dense.scenario.deployment.tx_power_dbm, 30.0);
  EXPECT_EQ(dense.scenario.deployment.holes_per_km, 0.0);
  ASSERT_EQ(dense.scenario.deployment.secondary_bandwidths_hz.size(), 2u);

  spec.layout = scn::Layout::kUrbanCanyon;
  const auto canyon = scn::compile(spec);
  EXPECT_LE(canyon.scenario.deployment.site_spacing_mean_m, 600.0);
  EXPECT_EQ(canyon.scenario.propagation.pathloss_exponent, 3.8);
  EXPECT_GT(canyon.scenario.deployment.primary_missing_prob,
            dense.scenario.deployment.primary_missing_prob);
}

// --- compiled fleet determinism across worker threads ---------------------

TEST(ScenarioCompile, CompiledFleetRunBitIdenticalAcrossOneTwoEightThreads) {
  scn::ScenarioSpec spec;
  spec.name = "det";
  spec.description = "thread determinism probe";
  spec.route = rem::trace::Route::kBeijingTaiyuan;
  spec.speed_kmh = 250.0;
  spec.duration_s = 20.0;
  spec.ue_count = 4;
  spec.ue_speed_lo_kmh = 200.0;
  spec.ue_speed_hi_kmh = 300.0;
  rem::sim::FaultWindow w;
  w.kind = rem::sim::FaultKind::kSignalingLoss;
  w.start_s = 5.0;
  w.duration_s = 4.0;
  w.magnitude = 0.6;
  spec.faults = {w};
  const auto compiled = scn::compile(spec);

  rem::phy::LogisticBlerModel bler;
  rem::bench::FleetScenarioRunOptions opts;
  opts.record_events = true;
  opts.context = "the determinism probe";
  const std::vector<std::uint64_t> seeds = {61, 62, 63, 64};
  const auto batch = [&](std::size_t threads) {
    std::vector<rem::sim::FleetResult> out(seeds.size());
    rem::common::parallel_for(seeds.size(), threads, [&](std::size_t i) {
      out[i] = rem::bench::run_fleet_scenario(compiled.scenario, seeds[i],
                                              bler, opts);
    });
    return out;
  };
  const auto at1 = batch(1);
  const auto at2 = batch(2);
  const auto at8 = batch(8);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    ASSERT_EQ(at1[i].per_ue.size(), 4u);
    for (const auto* other : {&at2[i], &at8[i]}) {
      ASSERT_EQ(other->per_ue.size(), at1[i].per_ue.size());
      EXPECT_EQ(other->aggregate.handovers, at1[i].aggregate.handovers);
      EXPECT_EQ(other->aggregate.failures, at1[i].aggregate.failures);
      EXPECT_EQ(other->aggregate.events.size(),
                at1[i].aggregate.events.size());
      EXPECT_EQ(rem::testkit::hash_event_log(other->aggregate.events),
                rem::testkit::hash_event_log(at1[i].aggregate.events));
      for (std::size_t k = 0; k < at1[i].per_ue.size(); ++k)
        EXPECT_EQ(rem::testkit::hash_event_log(other->per_ue[k].events),
                  rem::testkit::hash_event_log(at1[i].per_ue[k].events));
    }
    EXPECT_GT(at1[i].aggregate.handovers, 0);
  }
}


// --- seeded fuzz ----------------------------------------------------------

/// Read and compile one scenario text. A reject must be one of the two
/// documented exception types; anything else is reported with the input.
/// Returns true when the text compiled.
bool read_and_compile(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)scn::compile(scn::read_scenario_json(is));
    return true;
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception: " << e.what() << "\ninput:\n"
                  << text;
  }
  return false;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

/// Apply 1..3 seeded corruptions: whole-line (drop, duplicate, swap),
/// single-byte (overwrite, insert, delete) or digit-level (rewrite one
/// digit, or stretch a number by an exponent or a run of zeros).
std::string corrupt(std::string s, rem::common::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {  // uniform index in [0, n)
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    switch (pick(3)) {
      case 0: {
        auto lines = split_lines(s);
        const std::size_t i = pick(lines.size()), j = pick(lines.size());
        switch (pick(3)) {
          case 0: lines.erase(lines.begin() + static_cast<long>(i)); break;
          case 1: lines.insert(lines.begin() + static_cast<long>(i), lines[j]);
                  break;
          default: std::swap(lines[i], lines[j]); break;
        }
        s.clear();
        for (const auto& l : lines) s += l + "\n";
        break;
      }
      case 1: {
        const std::size_t i = pick(s.size());
        const char b = static_cast<char>(rng.uniform_int(0, 255));
        switch (pick(3)) {
          case 0: s[i] = b; break;
          case 1: s.insert(i, 1, b); break;
          default: s.erase(i, 1); break;
        }
        break;
      }
      default: {
        std::vector<std::size_t> digits;
        for (std::size_t i = 0; i < s.size(); ++i)
          if (s[i] >= '0' && s[i] <= '9') digits.push_back(i);
        if (digits.empty()) break;
        const std::size_t i = digits[pick(digits.size())];
        static const char* const kStretch[] = {
            "e9", "e-9", "e300", "e-300", "e999", "000000000",
            "00000000000000000000"};
        if (rng.bernoulli(0.5))
          s[i] = static_cast<char>('0' + pick(10));
        else
          s.insert(i + 1, kStretch[pick(std::size(kStretch))]);
        break;
      }
    }
  }
  return s;
}

TEST(ScenarioFuzz, SeededCorruptionsCompileOrRejectTyped) {
  // Every corrupted library file must either compile or be rejected with
  // std::runtime_error (reader) / std::invalid_argument (compiler): no
  // other exception, no crash, no hang.
  std::vector<std::string> library;
  for (const auto& name : scn::list_scenario_names(REM_SCENARIO_DIR)) {
    std::ifstream in(std::string(REM_SCENARIO_DIR) + "/" + name + ".json");
    std::ostringstream text;
    text << in.rdbuf();
    library.push_back(text.str());
    ASSERT_TRUE(read_and_compile(library.back())) << name;
  }
  ASSERT_GE(library.size(), 10u);
  rem::common::Rng rng(20261017);
  int compiled = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto& base = library[static_cast<std::size_t>(trial) % library.size()];
    if (read_and_compile(corrupt(base, rng)))
      ++compiled;
    else
      ++rejected;
  }
  // Both outcomes must be common, or the corruptions are too timid (all
  // compile) or too blunt (none reach the compiler).
  EXPECT_GT(compiled, 400);
  EXPECT_GT(rejected, 400);
}

/// Library scenario `name` with the line holding `"key":` replaced by
/// `"key": "value",`.
std::string library_with(const std::string& name, const std::string& key,
                         const std::string& value) {
  std::ifstream in(std::string(REM_SCENARIO_DIR) + "/" + name + ".json");
  std::string out;
  bool replaced = false;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"" + key + "\":") != std::string::npos) {
      line = "  \"" + key + "\": \"" + value + "\",";
      replaced = true;
    }
    out += line + "\n";
  }
  EXPECT_TRUE(replaced) << name << " has no key " << key;
  return out;
}

TEST(ScenarioFuzz, PinnedFindingsRejectWithContext) {
  const auto compile_text = [](const std::string& text) {
    std::istringstream is(text);
    return scn::compile(scn::read_scenario_json(is));
  };
  // A finite but huge horizon with a random fault process: the compile
  // probe built horizon / mean_gap windows until std::bad_alloc.
  expect_throw_with<std::invalid_argument>("exceeds 86400 s", [&] {
    compile_text(library_with("rail_hst350_signaling_storm", "duration_s",
                              "20000000000000000000040"));
  });
  // A vanishing mean gap over an ordinary horizon: the same blow-up.
  expect_throw_with<std::invalid_argument>(
      "rfault.0.mean_gap_s 6.0000000000000004e-90 s would schedule", [&] {
        compile_text(library_with("day_compressed_soak",
                                  "rfault.0.mean_gap_s", "6e-90"));
      });
}

}  // namespace
