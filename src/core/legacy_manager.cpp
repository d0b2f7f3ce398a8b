#include "core/legacy_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rem::core {

namespace rm = rem::mobility;

LegacyManager::LegacyManager(LegacyConfig cfg) : cfg_(std::move(cfg)) {
  rules_stride_ = cfg_.default_policy.rules.size();
  for (const auto& [cell, policy] : cfg_.policies)
    rules_stride_ = std::max(rules_stride_, policy.rules.size());
}

rm::TriggerState& LegacyManager::monitor(std::size_t rule, int cell) {
  const auto slot = static_cast<std::size_t>(cell + 1);
  if ((slot + 1) * rules_stride_ > monitors_.size())
    monitors_.resize((slot + 1) * rules_stride_);
  return monitors_[slot * rules_stride_ + rule];
}

const rm::CellPolicy& LegacyManager::serving_policy() const {
  const auto it = cfg_.policies.find(serving_id_.cell);
  return it != cfg_.policies.end() ? it->second : cfg_.default_policy;
}

bool LegacyManager::rule_matches(const rm::PolicyRule& rule,
                                 const rm::CellId& serving,
                                 const rm::CellId& target) const {
  if (rule.channel == rm::PolicyRule::kAnyChannel) return true;
  if (rule.channel == rm::PolicyRule::kServingChannel)
    return target.channel == serving.channel;
  if (rule.channel == rm::PolicyRule::kOtherChannels)
    return target.channel != serving.channel;
  return rule.channel == target.channel;
}

void LegacyManager::on_serving_changed(double /*t*/, std::size_t new_idx) {
  serving_cell_ = static_cast<int>(new_idx);
  stage_ = 0;
  reconfigurations_ = 0;
  pending_stage_ = -1;
  stage_change_due_ = -1.0;
  monitors_.clear();
  for (const auto idx : visible_) is_visible_[idx] = 0;
  visible_.clear();
  last_decision_t_ = -1e9;
}

std::optional<sim::HandoverDecision> LegacyManager::update(
    double t, const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors) {
  serving_id_ = serving.id;
  const auto& policy = serving_policy();
  if (stage_ == 0) stage_ = policy.initial_stage;

  // A pending reconfiguration takes effect after its round trip.
  if (pending_stage_ >= 0 && t >= stage_change_due_) {
    stage_ = pending_stage_;
    pending_stage_ = -1;
    ++reconfigurations_;
    // New measurement configuration resets the neighbor monitors (the
    // serving-only guards in slot 0 stay armed).
    if (monitors_.size() > rules_stride_) monitors_.resize(rules_stride_);
  }

  // Track what this stage can see (for missed-cell classification) and
  // build the measurement task list that sets the feedback delay. The
  // monitored set is bounded: only the strongest cells get measured.
  for (const auto idx : visible_) is_visible_[idx] = 0;
  visible_.clear();
  candidates_.clear();
  for (const auto& o : neighbors) {
    // A breaker-open target is hidden from monitoring entirely until the
    // breaker admits traffic again (never true unless breakers are on).
    if (o.breaker_open) continue;
    if (o.id.cell < 0)
      throw std::invalid_argument("LegacyManager: neighbor without a cell id");
    for (const auto& rule : policy.rules) {
      if (rule.stage != stage_) continue;
      if (rule.event.type == rm::EventType::kA1 ||
          rule.event.type == rm::EventType::kA2)
        continue;  // serving-only
      if (!rule_matches(rule, serving.id, o.id)) continue;
      candidates_.push_back({-o.rsrp_dbm, &o});
      break;
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  if (candidates_.size() > cfg_.max_monitored_cells)
    candidates_.resize(cfg_.max_monitored_cells);
  tasks_.clear();
  for (const auto& [neg, o] : candidates_) {
    if (o->cell_idx >= is_visible_.size())
      is_visible_.resize(o->cell_idx + 1, 0);
    is_visible_[o->cell_idx] = 1;
    visible_.push_back(o->cell_idx);
    tasks_.push_back({o->id, o->id.channel == serving.id.channel});
  }

  std::optional<sim::HandoverDecision> decision;
  fired_.clear();  // handover rules fired this tick, for the tie-break
  for (std::size_t r = 0; r < policy.rules.size(); ++r) {
    const auto& rule = policy.rules[r];
    if (rule.stage != stage_) continue;
    const bool serving_only = rule.event.type == rm::EventType::kA1 ||
                              rule.event.type == rm::EventType::kA2;
    // During the re-fire hold-off the reporting machinery is busy; freeze
    // the handover triggers (not the reconfiguration guards) so a held
    // fire is not silently consumed.
    if (rule.action == rm::PolicyAction::kHandover &&
        t - last_decision_t_ < cfg_.refire_interval_s)
      continue;
    // Evaluate against each applicable neighbor (or once for A1/A2).
    const auto eval_one = [&](int neighbor_cell, double neighbor_metric,
                              std::size_t target_idx, double adv_load) {
      if (!rm::update_trigger(rule.event, monitor(r, neighbor_cell), t,
                              serving.rsrp_dbm, neighbor_metric))
        return;
      if (rule.action == rm::PolicyAction::kHandover)
        fired_.push_back({neighbor_metric, target_idx, adv_load});
      if (rule.action == rm::PolicyAction::kReconfigure) {
        if (rule.next_stage != stage_ && pending_stage_ < 0) {
          // Feedback + reconfiguration command round trip before the new
          // measurement configuration is active (§3.2's extra delay).
          pending_stage_ = rule.next_stage;
          stage_change_due_ = t + cfg_.measurement.reconfigure_rtt_s +
                              cfg_.measurement.report_latency_s;
        }
        return;
      }
      if (decision) {
        // First firing rule wins this tick; the next distinct firing
        // candidate becomes the preparation fallback target.
        if (decision->fallback_idx < 0 &&
            static_cast<int>(target_idx) !=
                static_cast<int>(decision->target_idx))
          decision->fallback_idx = static_cast<int>(target_idx);
        return;
      }
      sim::HandoverDecision d;
      d.target_idx = target_idx;
      d.feedback_delay_s = rm::legacy_feedback_delay_s(
          tasks_, cfg_.measurement, reconfigurations_);
      decision = d;
    };

    if (serving_only) {
      eval_one(-1, 0.0, 0, -1.0);
      continue;
    }
    for (const auto& o : neighbors) {
      if (o.cell_idx >= is_visible_.size() || !is_visible_[o.cell_idx])
        continue;  // not monitored
      if (!rule_matches(rule, serving.id, o.id)) continue;
      eval_one(o.id.cell, o.rsrp_dbm, o.cell_idx, o.advertised_load);
    }
  }

  // Load-aware tie-breaking (cascade resilience): among this tick's fired
  // handover candidates within load_tie_band_db RSRP of the chosen target,
  // take the lowest advertised load; ties fall back to the stronger RSRP,
  // then the lower cell index. Only a known ad in the band can move the
  // choice, so runs without load advertisement keep the first-firing-rule
  // winner bit-for-bit.
  if (decision && !fired_.empty() && cfg_.load_tie_band_db > 0.0) {
    const double floor = fired_.front().metric - cfg_.load_tie_band_db;
    bool any_ad = false;
    for (const auto& f : fired_)
      if (f.metric >= floor && f.load >= 0.0) any_ad = true;
    if (any_ad) {
      double sel_eff = 2.0;
      double sel_metric = -1e9;
      std::size_t sel_idx = decision->target_idx;
      for (const auto& f : fired_) {
        if (f.metric < floor) continue;
        const double eff = f.load >= 0.0 ? f.load : 0.5;
        const bool better =
            eff < sel_eff - 1e-9 ||
            (std::abs(eff - sel_eff) <= 1e-9 &&
             (f.metric > sel_metric ||
              (f.metric == sel_metric && f.idx < sel_idx)));
        if (better) {
          sel_eff = eff;
          sel_metric = f.metric;
          sel_idx = f.idx;
        }
      }
      if (sel_idx != decision->target_idx) {
        if (decision->fallback_idx == static_cast<int>(sel_idx))
          decision->fallback_idx = static_cast<int>(decision->target_idx);
        decision->target_idx = sel_idx;
      }
    }
  }

  if (decision) {
    last_decision_t_ = t;
    // A decision re-arms the triggers so a lost report can re-fire after
    // the re-fire interval.
    monitors_.clear();
  }
  return decision;
}

}  // namespace rem::core
