#include "core/legacy_manager.hpp"
#include "core/overlay.hpp"
#include "core/rem_manager.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace rc = rem::core;
namespace rs = rem::sim;
namespace rm = rem::mobility;

namespace {

rs::ServingState serving_at(double rsrp) {
  rs::ServingState s;
  s.cell_idx = 0;
  s.id = {0, 0, 10};
  s.rsrp_dbm = rsrp;
  s.dd_snr_db = rsrp + 101.0;
  s.snr_db = rsrp + 101.0;
  return s;
}

rs::Observation neighbor(std::size_t idx, int cell, int site, int channel,
                         double rsrp) {
  rs::Observation o;
  o.cell_idx = idx;
  o.id = {cell, site, channel};
  o.rsrp_dbm = rsrp;
  o.dd_snr_db = rsrp + 101.0;
  return o;
}

rm::CellPolicy simple_a3_policy(double offset, double ttt) {
  rm::CellPolicy p;
  rm::PolicyRule r;
  r.channel = rm::PolicyRule::kServingChannel;
  r.event = {rm::EventType::kA3, 0, 0, offset, 0, ttt};
  p.rules.push_back(r);
  return p;
}

}  // namespace

TEST(LegacyManager, TriggersA3AfterTtt) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.04);
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 10, -90.0)};
  EXPECT_FALSE(mgr.update(0.00, sv, obs).has_value());  // TTT running
  EXPECT_FALSE(mgr.update(0.02, sv, obs).has_value());
  const auto d = mgr.update(0.05, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 1u);
  EXPECT_GT(d->feedback_delay_s, 0.0);
}

TEST(LegacyManager, IgnoresInterFrequencyInStageZero) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.0);
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  // Strong neighbor on another channel: invisible to the intra-only rule.
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 20, -80.0)};
  EXPECT_FALSE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_TRUE(mgr.visible_cells().empty());
}

TEST(LegacyManager, MultiStageReconfiguresAfterA2WithDelay) {
  rc::LegacyConfig cfg;
  rm::CellPolicy p;
  rm::PolicyRule guard;
  guard.event = {rm::EventType::kA2, -105, 0, 0, 0, 0};
  guard.action = rm::PolicyAction::kReconfigure;
  guard.next_stage = 1;
  p.rules.push_back(guard);
  rm::PolicyRule inter;
  inter.stage = 1;
  inter.channel = 20;
  inter.event = {rm::EventType::kA4, -108, 0, 0, 0, 0};
  p.rules.push_back(inter);
  cfg.default_policy = p;
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-110.0);  // A2 satisfied
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 20, -95.0)};
  EXPECT_FALSE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_EQ(mgr.current_stage(), 0);  // reconfiguration in flight
  // After the round trip the stage switches and A4 can fire.
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.01; t < 0.5 && !d; t += 0.01) d = mgr.update(t, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(mgr.current_stage(), 1);
  EXPECT_EQ(mgr.reconfigurations(), 1);
  EXPECT_EQ(d->target_idx, 1u);
}

TEST(LegacyManager, RefireIntervalSuppressesDuplicates) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.0);
  cfg.refire_interval_s = 0.24;
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 10, -90.0)};
  ASSERT_TRUE(mgr.update(0.0, sv, obs).has_value());
  EXPECT_FALSE(mgr.update(0.05, sv, obs).has_value());
  EXPECT_TRUE(mgr.update(0.30, sv, obs).has_value());  // re-fire allowed
}

TEST(RemManager, SeesAllChannelsImmediately) {
  rc::RemManager mgr(rc::RemConfig{}, rem::common::Rng(1));
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> obs = {
      neighbor(1, 1, 1, 20, -90.0),   // inter-frequency
      neighbor(2, 2, 1, 10, -95.0)};  // co-sited intra
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.0; t < 0.2 && !d; t += 0.01) d = mgr.update(t, sv, obs);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 1u);  // best candidate, despite the channel
  EXPECT_EQ(mgr.visible_cells().size(), 2u);
}

TEST(RemManager, RespectsA3OffsetAndTtt) {
  rc::RemConfig rcfg;
  rcfg.a3_offset_db = 3.0;
  rcfg.hysteresis_db = 1.0;
  rcfg.time_to_trigger_s = 0.04;
  rc::RemManager mgr(rcfg, rem::common::Rng(2));
  mgr.on_serving_changed(0.0, 0);
  const auto sv = serving_at(-100.0);
  // Only 2 dB better: below offset+hysteresis, never triggers.
  const std::vector<rs::Observation> weak = {neighbor(1, 1, 1, 10, -98.0)};
  for (double t = 0.0; t < 0.3; t += 0.01)
    EXPECT_FALSE(mgr.update(t, sv, weak).has_value());
  // 6 dB better: triggers after TTT.
  const std::vector<rs::Observation> strong = {neighbor(1, 1, 1, 10, -94.0)};
  EXPECT_FALSE(mgr.update(0.31, sv, strong).has_value());
  std::optional<rs::HandoverDecision> d;
  for (double t = 0.32; t < 0.5 && !d; t += 0.01)
    d = mgr.update(t, sv, strong);
  EXPECT_TRUE(d.has_value());
}

TEST(RemManager, FeedbackDelayBelowLegacy) {
  rc::RemManager rem_mgr(rc::RemConfig{}, rem::common::Rng(3));
  rc::LegacyConfig lcfg;
  // Like-for-like: the legacy policy must also monitor the channel-20
  // cells (A4), paying the measurement-gap + long-TTT cost REM avoids.
  lcfg.default_policy = simple_a3_policy(3.0, 0.04);
  rm::PolicyRule inter;
  inter.channel = 20;
  inter.event = {rm::EventType::kA4, -105, 0, 0, 0, 0.640};
  lcfg.default_policy.rules.push_back(inter);
  rc::LegacyManager legacy_mgr(lcfg);
  rem_mgr.on_serving_changed(0.0, 0);
  legacy_mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-100.0);
  std::vector<rs::Observation> obs;
  for (int site = 1; site <= 3; ++site) {
    obs.push_back(neighbor(static_cast<std::size_t>(site * 2), site * 2,
                           site, 10, -92.0));
    obs.push_back(neighbor(static_cast<std::size_t>(site * 2 + 1),
                           site * 2 + 1, site, 20, -94.0));
  }
  std::optional<rs::HandoverDecision> dr, dl;
  for (double t = 0.0; t < 0.5 && (!dr || !dl); t += 0.01) {
    if (!dr) dr = rem_mgr.update(t, sv, obs);
    if (!dl) dl = legacy_mgr.update(t, sv, obs);
  }
  ASSERT_TRUE(dr.has_value());
  ASSERT_TRUE(dl.has_value());
  EXPECT_LT(dr->feedback_delay_s, dl->feedback_delay_s);
}

// ---------- Manager TTT and visibility state ----------
//
// The managers keep TTT state in flat arrays indexed by cell id and their
// per-update sets in reused buffers. These pin the semantics that state
// must keep.

namespace {

/// REM with a 0.1 s TTT; one cell per site, so no cross-band draws.
rc::RemManager rem_with_ttt() {
  rc::RemConfig cfg;
  cfg.time_to_trigger_s = 0.1;
  rc::RemManager mgr(cfg, rem::common::Rng(11));
  mgr.on_serving_changed(0.0, 0);
  return mgr;
}

}  // namespace

TEST(RemManager, MissingForOneTickKeepsTttEntry) {
  auto mgr = rem_with_ttt();
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> strong = {neighbor(1, 1, 1, 10, -90.0)};
  EXPECT_FALSE(mgr.update(0.00, sv, strong).has_value());  // enters at 0
  EXPECT_FALSE(mgr.update(0.05, sv, {}).has_value());      // not observed
  const auto d = mgr.update(0.10, sv, strong);  // TTT counted from 0
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 1u);
}

TEST(RemManager, TttEntryClearedBelowThresholdOrBreakerOpen) {
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> strong = {neighbor(1, 1, 1, 10, -90.0)};
  auto open = strong;
  open[0].breaker_open = true;
  const std::vector<std::vector<rs::Observation>> interruptions = {
      {neighbor(1, 1, 1, 10, -99.0)},  // below offset + hysteresis
      open};
  for (const auto& mid : interruptions) {
    auto mgr = rem_with_ttt();
    EXPECT_FALSE(mgr.update(0.00, sv, strong).has_value());
    EXPECT_FALSE(mgr.update(0.05, sv, mid).has_value());
    // Re-entered at 0.10: the full TTT runs again from there.
    EXPECT_FALSE(mgr.update(0.10, sv, strong).has_value());
    EXPECT_FALSE(mgr.update(0.15, sv, strong).has_value());
    EXPECT_TRUE(mgr.update(0.20, sv, strong).has_value());
  }
}

TEST(RemManager, ServingChangeClearsAllTttEntries) {
  auto mgr = rem_with_ttt();
  const auto sv = serving_at(-100.0);
  const std::vector<rs::Observation> strong = {neighbor(1, 1, 1, 10, -90.0),
                                               neighbor(2, 2, 2, 10, -91.0)};
  EXPECT_FALSE(mgr.update(0.00, sv, strong).has_value());
  mgr.on_serving_changed(0.05, 0);
  EXPECT_TRUE(mgr.visible_cells().empty());
  EXPECT_FALSE(mgr.update(0.10, sv, strong).has_value());
  EXPECT_TRUE(mgr.update(0.20, sv, strong).has_value());
}

TEST(RemManager, FirstSeenLargeCellIdsAreSafe) {
  auto mgr = rem_with_ttt();
  const auto sv = serving_at(-100.0);
  EXPECT_FALSE(
      mgr.update(0.00, sv, {neighbor(1, 5, 5, 10, -99.0)}).has_value());
  // Never-seen id, breaker open: its (absent) TTT entry is cleared.
  auto open = neighbor(2, 1000, 6, 10, -90.0);
  open.breaker_open = true;
  EXPECT_FALSE(mgr.update(0.01, sv, {open}).has_value());
  // A larger never-seen id enters and qualifies after the TTT.
  const std::vector<rs::Observation> big = {neighbor(3, 2000, 7, 10, -90.0)};
  EXPECT_FALSE(mgr.update(0.02, sv, big).has_value());
  const auto d = mgr.update(0.12, sv, big);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target_idx, 3u);
  // Once its breaker closes, the id-1000 cell starts its TTT afresh.
  open.breaker_open = false;
  EXPECT_FALSE(mgr.update(0.50, sv, {open}).has_value());
  EXPECT_TRUE(mgr.update(0.60, sv, {open}).has_value());
}

TEST(RemManager, RejectsNeighborWithoutCellId) {
  auto mgr = rem_with_ttt();
  auto o = neighbor(1, 1, 1, 10, -90.0);
  o.id.cell = -1;
  EXPECT_THROW(mgr.update(0.0, serving_at(-100.0), {o}),
               std::invalid_argument);
}

TEST(RemManager, VisibleCellsAreEveryObservedNeighbor) {
  auto mgr = rem_with_ttt();
  auto open = neighbor(7, 7, 3, 20, -80.0);
  open.breaker_open = true;  // hidden from selection, still visible
  const std::vector<rs::Observation> obs = {
      neighbor(4, 4, 1, 10, -95.0), neighbor(2, 2, 1, 20, -97.0), open,
      neighbor(9, 9, 4, 10, -120.0)};
  mgr.update(0.0, serving_at(-100.0), obs);
  EXPECT_EQ(mgr.visible_cells(), (std::set<std::size_t>{2, 4, 7, 9}));
  mgr.update(0.01, serving_at(-100.0), {obs[1]});
  EXPECT_EQ(mgr.visible_cells(), (std::set<std::size_t>{2}));
}

TEST(LegacyManager, VisibleCellsAreTheStrongestMonitoredMatches) {
  rc::LegacyConfig cfg;
  cfg.default_policy = simple_a3_policy(3.0, 0.04);  // serving channel only
  cfg.max_monitored_cells = 2;
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);
  auto open = neighbor(6, 6, 6, 10, -70.0);
  open.breaker_open = true;
  const std::vector<rs::Observation> obs = {
      neighbor(1, 1, 1, 10, -95.0), neighbor(2, 2, 2, 10, -90.0),
      neighbor(3, 3, 3, 20, -80.0),  // other channel: no rule matches
      neighbor(4, 4, 4, 10, -85.0), open};
  mgr.update(0.0, serving_at(-100.0), obs);
  EXPECT_EQ(mgr.visible_cells(), (std::set<std::size_t>{2, 4}));
  mgr.on_serving_changed(0.01, 1);
  EXPECT_TRUE(mgr.visible_cells().empty());
}

TEST(LegacyManager, ReconfigurationResetsOnlyNeighborMonitors) {
  // Stage 0: intra A3 handover (TTT 0.5) and an A2 guard into stage 1;
  // stage 1: an A1 guard straight back to stage 0. The serving RSRP keeps
  // both guards' conditions true throughout.
  rm::CellPolicy p = simple_a3_policy(3.0, 0.5);
  rm::PolicyRule a2;
  a2.event = {rm::EventType::kA2, -105, 0, 0, 0, 0};
  a2.action = rm::PolicyAction::kReconfigure;
  a2.next_stage = 1;
  p.rules.push_back(a2);
  rm::PolicyRule a1;
  a1.stage = 1;
  a1.event = {rm::EventType::kA1, -120, 0, 0, 0, 0};
  a1.action = rm::PolicyAction::kReconfigure;
  a1.next_stage = 0;
  p.rules.push_back(a1);
  rc::LegacyConfig cfg;
  cfg.default_policy = p;
  rc::LegacyManager mgr(cfg);
  mgr.on_serving_changed(0.0, 0);

  const auto sv = serving_at(-110.0);
  const std::vector<rs::Observation> obs = {neighbor(1, 1, 1, 10, -100.0)};
  std::optional<rs::HandoverDecision> d;
  int k = 0;
  double t = 0.0;
  for (; k < 200 && !d; ++k) {
    t = 0.01 * k;
    d = mgr.update(t, sv, obs);
  }
  ASSERT_TRUE(d.has_value());
  // Stage 0 -> 1 -> 0 took two reconfigurations. Each reset the A3
  // monitor, so its TTT restarted after the second (it would have fired
  // at 0.50 from its first entry otherwise). The A2 guard kept its fired
  // state across both, so it did not fire a third reconfiguration.
  EXPECT_GT(t, 0.6);
  EXPECT_EQ(mgr.current_stage(), 0);
  EXPECT_EQ(mgr.reconfigurations(), 2);

  // A decision resets every monitor, the guards included: the A2 guard
  // re-fires into stage 1, whose A1 guard re-fires back to stage 0.
  for (int j = 0; j < 20; ++j) mgr.update(0.01 * (k + j), sv, obs);
  EXPECT_EQ(mgr.reconfigurations(), 4);
  EXPECT_EQ(mgr.current_stage(), 0);
}

// ---------- Signaling overlay ----------

TEST(Overlay, DeliversAtGoodSnr) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_signaling(1, 20);
  ov.enqueue_data(100, 50);
  rem::common::Rng rng(4);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 25.0, rng);
  ASSERT_TRUE(out.allocation.signaling.has_value());
  EXPECT_EQ(out.delivered_signaling_ids, std::vector<std::uint64_t>{1});
  EXPECT_TRUE(out.lost_signaling_ids.empty());
  EXPECT_GT(out.data_res, 0u);
}

TEST(Overlay, LosesAtTerribleSnr) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_signaling(1, 20);
  rem::common::Rng rng(5);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, -20.0, rng);
  EXPECT_EQ(out.lost_signaling_ids, std::vector<std::uint64_t>{1});
}

TEST(Overlay, NoSignalingMeansFullDataGrid) {
  rc::SignalingOverlay ov(rc::OverlayConfig{});
  ov.enqueue_data(100, 10);
  rem::common::Rng rng(6);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 20.0, rng);
  EXPECT_FALSE(out.allocation.signaling.has_value());
  EXPECT_EQ(out.data_res, ov.config().num.total_res());
}

TEST(Overlay, BacklogCarriesAcrossSubframes) {
  rc::OverlayConfig cfg;
  cfg.num = rem::phy::Numerology::lte(12, 14);  // small grid
  rc::SignalingOverlay ov(cfg);
  for (std::uint64_t i = 0; i < 4; ++i) ov.enqueue_signaling(i, 10);
  rem::common::Rng rng(7);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  std::size_t delivered = 0;
  for (int sub = 0; sub < 6 && delivered < 4; ++sub)
    delivered += ov.transmit_subframe(ch, 25.0, rng)
                     .delivered_signaling_ids.size();
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(ov.signaling_backlog_bytes(), 0u);
}

TEST(Overlay, LegacyModeUsesOfdm) {
  rc::OverlayConfig cfg;
  cfg.legacy_ofdm = true;
  rc::SignalingOverlay ov(cfg);
  ov.enqueue_signaling(1, 20);
  rem::common::Rng rng(8);
  rem::channel::Path p;
  p.gain = {1, 0};
  rem::channel::MultipathChannel ch({p});
  const auto out = ov.transmit_subframe(ch, 25.0, rng);
  EXPECT_EQ(out.delivered_signaling_ids.size(), 1u);  // clean channel: fine
}
