#include "common/units.hpp"
#include "sim/radio_env.hpp"
#include "common/stats.hpp"
#include "sim/tcp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rs = rem::sim;

namespace {
rs::RadioEnv small_env(std::uint64_t seed = 1,
                       std::vector<rs::HoleSegment> holes = {}) {
  rem::common::Rng rng(seed);
  rs::DeploymentConfig dc;
  dc.route_len_m = 10e3;
  dc.site_spacing_mean_m = 1000.0;
  dc.site_spacing_jitter_m = 100.0;
  auto cells = rs::make_rail_deployment(dc, rng);
  return rs::RadioEnv(std::move(cells), rs::PropagationConfig{}, rng.fork(),
                      std::move(holes));
}
}  // namespace

TEST(Deployment, CoversRouteWithSites) {
  rem::common::Rng rng(2);
  rs::DeploymentConfig dc;
  dc.route_len_m = 20e3;
  dc.site_spacing_mean_m = 1000.0;
  const auto cells = rs::make_rail_deployment(dc, rng);
  ASSERT_FALSE(cells.empty());
  // Roughly route/spacing sites; each hosting 1-2 cells.
  int max_site = 0;
  for (const auto& c : cells) max_site = std::max(max_site, c.id.base_station);
  EXPECT_NEAR(max_site, 19, 4);
  EXPECT_GE(cells.size(), static_cast<std::size_t>(max_site));
  // Unique cell ids.
  std::set<int> ids;
  for (const auto& c : cells) ids.insert(c.id.cell);
  EXPECT_EQ(ids.size(), cells.size());
}

TEST(Deployment, PrimaryLayerSharedChannel) {
  rem::common::Rng rng(3);
  rs::DeploymentConfig dc;
  dc.route_len_m = 40e3;
  const auto cells = rs::make_rail_deployment(dc, rng);
  // Apart from the few corridor-gap sites, the first cell of every site
  // uses the corridor channel.
  std::map<int, rem::mobility::ChannelId> first_channel;
  for (const auto& c : cells) first_channel.try_emplace(c.id.base_station,
                                                        c.id.channel);
  int on_corridor = 0;
  for (const auto& [site, ch] : first_channel)
    on_corridor += (ch == dc.channels[0].first);
  const double frac = static_cast<double>(on_corridor) /
                      static_cast<double>(first_channel.size());
  EXPECT_NEAR(frac, 1.0 - dc.primary_missing_prob, 0.1);
}

TEST(Deployment, ColocationProbabilityRespected) {
  rem::common::Rng rng(4);
  rs::DeploymentConfig dc;
  dc.route_len_m = 200e3;
  dc.colocated_second_cell_prob = 0.75;
  const auto cells = rs::make_rail_deployment(dc, rng);
  std::map<int, int> cells_per_site;
  for (const auto& c : cells) ++cells_per_site[c.id.base_station];
  int two = 0;
  for (const auto& [site, n] : cells_per_site) two += (n == 2);
  const double frac =
      static_cast<double>(two) / static_cast<double>(cells_per_site.size());
  // Only corridor-layer sites can host a second cell.
  const double expected =
      (1.0 - dc.primary_missing_prob) * dc.colocated_second_cell_prob;
  EXPECT_NEAR(frac, expected, 0.08);
}

TEST(RadioEnv, RsrpDecaysWithDistance) {
  const auto env = small_env();
  const auto& c0 = env.cells()[0];
  const double near = env.mean_rsrp_dbm(0, c0.site_pos_m);
  const double far = env.mean_rsrp_dbm(0, c0.site_pos_m + 3000.0);
  EXPECT_GT(near, far + 15.0);
}

TEST(RadioEnv, CoSitedCellsShareShadowing) {
  // Co-sited cells' RSRP difference should be nearly constant along the
  // track (shared site shadowing), unlike cells on different sites.
  const auto env = small_env(5);
  // Find a site with two cells.
  int site = -1;
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i + 1 < env.cells().size(); ++i) {
    if (env.cells()[i].id.base_station ==
        env.cells()[i + 1].id.base_station) {
      site = env.cells()[i].id.base_station;
      a = i;
      b = i + 1;
      break;
    }
  }
  ASSERT_GE(site, 0) << "no co-sited pair in deployment";
  rem::common::Summary diff;
  for (double x = 0; x < 5000.0; x += 50.0)
    diff.add(env.mean_rsrp_dbm(a, x) - env.mean_rsrp_dbm(b, x));
  // Difference = frequency term + small per-cell residual only.
  EXPECT_LT(diff.stddev(), 2.5);
}

TEST(RadioEnv, HoleSegmentKillsCoverage) {
  std::vector<rs::HoleSegment> holes = {{2000.0, 300.0}};
  const auto env = small_env(6, holes);
  EXPECT_TRUE(env.position_in_hole(2100.0));
  EXPECT_FALSE(env.position_in_hole(1900.0));
  EXPECT_LT(env.best_cell(2150.0, -120.0), 0);   // no usable cell inside
  EXPECT_GE(env.best_cell(5000.0, -120.0), 0);   // fine outside
}

TEST(RadioEnv, DdSnrIsMoreStableThanInstantRsrp) {
  const auto env = small_env(7);
  rem::common::Rng rng(8);
  rem::common::Summary rsrp, dd;
  for (int i = 0; i < 500; ++i) {
    rsrp.add(env.instant_rsrp_dbm(0, 500.0, rng));
    dd.add(env.dd_snr_db(0, 500.0, rng));
  }
  EXPECT_GT(rsrp.stddev(), 2.0 * dd.stddev());
}

TEST(RadioEnv, BestCellPicksNearest) {
  const auto env = small_env(9);
  // At a site's position, that site's primary cell should usually win.
  const auto& cells = env.cells();
  int hits = 0, trials = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].id.channel != 1825) continue;  // corridor layer only
    ++trials;
    const int best = env.best_cell(cells[i].site_pos_m, -120.0);
    ASSERT_GE(best, 0);
    if (env.cells()[static_cast<std::size_t>(best)].id.base_station ==
        cells[i].id.base_station)
      ++hits;
  }
  ASSERT_GT(trials, 3);
  EXPECT_GE(hits * 10, trials * 7);  // >= 70% despite shadowing
}

TEST(RadioEnv, SampleFromMeanMatchesThreeCallSequence) {
  // The engine computes each cell's mean once per UE-tick from one
  // TrackPoint, then draws fading, then the DD residual. That must equal,
  // bit for bit, the per-call API on a twin-seeded stream, and the
  // closed-form draws: mean + N(0, fading), snr(mean + N(0, dd residual)).
  const std::vector<rs::HoleSegment> holes = {{2000.0, 300.0},
                                              {7000.0, 150.0}};
  const auto env = small_env(12, holes);
  const auto& cfg = env.config();
  std::vector<double> positions = {-250.0, 0.0, 2000.0, 2150.0, 2299.9,
                                   2300.0, 7075.0, 1e6};  // both ends clamp
  rem::common::Rng pick(13);
  for (int i = 0; i < 200; ++i) positions.push_back(pick.uniform(-1e3, 2e4));
  rem::common::Rng a(14), b(14), c(14);
  for (const double x : positions) {
    const auto at = env.track_point(x);
    EXPECT_EQ(at.in_hole, env.position_in_hole(x)) << x;
    for (std::size_t i = 0; i < env.cells().size(); ++i) {
      const double mean = env.mean_rsrp_dbm(i, at);
      ASSERT_EQ(mean, env.mean_rsrp_dbm(i, x)) << "cell " << i << " x " << x;
      const double rsrp = env.faded_rsrp_dbm(mean, a);
      const double dd = env.dd_snr_from_mean_db(mean, a);
      ASSERT_EQ(rsrp, env.instant_rsrp_dbm(i, x, b)) << x;
      ASSERT_EQ(dd, env.dd_snr_db(i, x, b)) << x;
      ASSERT_EQ(rsrp, mean + c.gaussian(0.0, cfg.fading_sigma_db));
      ASSERT_EQ(dd, env.snr_db_from_rsrp(
                        mean + c.gaussian(0.0, cfg.dd_residual_sigma_db)));
    }
  }
  // Inside a hole every cell sits 45 dB below the same position's
  // hole-free level.
  const auto hole_free = small_env(12);
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 2150.0),
              hole_free.mean_rsrp_dbm(0, 2150.0) - cfg.hole_extra_loss_db,
              1e-9);
}

TEST(RadioEnv, MeanRsrpMatchesClosedForm) {
  // Shadowing made negligible, so the mean is the log-distance formula:
  // tx - (ref + 10 n log10(d) + 20 log10(f / 2 GHz) [+ hole]),
  // d = max(sqrt(dx^2 + offset^2), 1).
  rs::PropagationConfig pc;
  pc.shadowing_sigma_db = 1e-9;
  pc.per_cell_shadow_sigma_db = 1e-9;
  rs::Cell flat;  // 2 GHz: no carrier term
  flat.id = {0, 0, 1};
  flat.site_pos_m = 1000.0;
  flat.site_offset_m = 0.0;
  rs::Cell high = flat;
  high.id = {1, 1, 2};
  high.site_offset_m = 100.0;
  high.carrier_hz = 2.36e9;
  const rs::RadioEnv env({flat, high}, pc, rem::common::Rng(15),
                         {{3000.0, 100.0}});
  // 46 dBm - 34 dB at d = 1 m (clamped), 46 - 34 - 35 * 3 at 1 km.
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 1000.0), 12.0, 1e-6);
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 1000.3), 12.0, 1e-6);
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 2000.0), -93.0, 1e-6);
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 0.0), -93.0, 1e-6);
  EXPECT_NEAR(env.mean_rsrp_dbm(0, 3050.0),
              46.0 - 34.0 - 35.0 * std::log10(2050.0) - 45.0, 1e-6);
  // 100 m lateral offset and the 2.36 GHz carrier term.
  EXPECT_NEAR(env.mean_rsrp_dbm(1, 1000.0),
              46.0 - 34.0 - 35.0 * 2.0 - 20.0 * std::log10(1.18), 1e-6);
  EXPECT_NEAR(env.mean_rsrp_dbm(1, 1000.0 + 100.0 * std::sqrt(99.0)),
              46.0 - 34.0 - 35.0 * 3.0 - 20.0 * std::log10(1.18), 1e-6);

  // With real shadowing, mean minus the closed form is the shadowing:
  // linear between the 10 m grid samples, and clamped to the first and
  // last sample off either end of the track (last site + 5 km).
  const rs::RadioEnv shadowed({flat, high}, rs::PropagationConfig{},
                              rem::common::Rng(16));
  const auto shadow_db = [&](std::size_t i, double x) {
    const auto& c = i == 0 ? flat : high;
    const double dx = x - c.site_pos_m;
    const double d =
        std::max(std::sqrt(dx * dx + c.site_offset_m * c.site_offset_m), 1.0);
    const double pl = 34.0 + 35.0 * std::log10(d) +
                      20.0 * std::log10(c.carrier_hz / 2.0e9);
    return shadowed.mean_rsrp_dbm(i, x) - (46.0 - pl);
  };
  for (std::size_t i = 0; i < 2; ++i) {
    for (const double x0 : {0.0, 990.0, 2500.0, 5990.0}) {
      EXPECT_NEAR(shadow_db(i, x0 + 5.0),
                  0.5 * (shadow_db(i, x0) + shadow_db(i, x0 + 10.0)), 1e-9)
          << "cell " << i << " x " << x0;
      EXPECT_NEAR(shadow_db(i, x0 + 2.5),
                  0.75 * shadow_db(i, x0) + 0.25 * shadow_db(i, x0 + 10.0),
                  1e-9);
    }
    EXPECT_NEAR(shadow_db(i, -300.0), shadow_db(i, 0.0), 1e-9);
    EXPECT_NEAR(shadow_db(i, 1e6), shadow_db(i, 6010.0), 1e-9);
    EXPECT_GT(std::abs(shadow_db(i, 6010.0) - shadow_db(i, 6000.0)), 0.0);
  }
}

// ---------- TCP model ----------

TEST(Tcp, StallAtLeastOutage) {
  rs::TcpConfig cfg;
  for (double outage : {0.5, 1.0, 3.0, 8.0}) {
    const double stall = rs::tcp_stall_for_outage(outage, cfg, 0.3);
    EXPECT_GE(stall, outage);
  }
}

TEST(Tcp, BackoffAmplifiesLongOutages) {
  rs::TcpConfig cfg;
  // Fig. 9b: a ~2.3 s radio outage became a ~6.5 s stall via RTO backoff.
  const double stall = rs::tcp_stall_for_outage(2.3, cfg, 0.0);
  EXPECT_GT(stall, 2.3 * 1.3);
  // Short outages are barely amplified.
  const double short_stall = rs::tcp_stall_for_outage(0.3, cfg, 0.0);
  EXPECT_LT(short_stall, 0.9);
}

TEST(Tcp, StallMonotoneInOutage) {
  rs::TcpConfig cfg;
  double prev = 0.0;
  for (double outage = 0.2; outage < 20.0; outage += 0.2) {
    const double stall = rs::tcp_stall_for_outage(outage, cfg, 0.5);
    EXPECT_GE(stall, prev - 1e-9);
    prev = stall;
  }
}

TEST(Tcp, VectorApiValidatesSizes) {
  EXPECT_THROW(rs::tcp_stalls({1.0, 2.0}, {0.5}), std::invalid_argument);
  const auto stalls = rs::tcp_stalls({1.0, 2.0}, {0.1, 0.9});
  EXPECT_EQ(stalls.size(), 2u);
}

TEST(Tcp, RtoCappedAtMax) {
  rs::TcpConfig cfg;
  cfg.max_rto_s = 4.0;
  // Stall exceeds outage by at most max_rto (the last backoff interval).
  const double stall = rs::tcp_stall_for_outage(60.0, cfg, 0.0);
  EXPECT_LE(stall - 60.0, 4.0 + 1e-9);
}
