#include "core/rem_manager.hpp"

#include "common/units.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rem::core {
namespace {

constexpr double kNotEntered = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void RemManager::on_serving_changed(double /*t*/, std::size_t /*new_idx*/) {
  entered_.clear();
  visible_.clear();
  last_decision_t_ = -1e9;
}

std::optional<sim::HandoverDecision> RemManager::update(
    double t, const sim::ServingState& serving,
    const std::vector<sim::Observation>& neighbors) {
  // Graceful degradation: when the delay-Doppler estimates behind the
  // observations are staler than the threshold (pilot outage), bypass
  // cross-band estimation and fall back to direct time-frequency
  // measurement — fresh but noisy beats stale and corrupted.
  double max_age = 0.0;
  for (const auto& o : neighbors)
    max_age = std::max(max_age, o.estimate_age_s);
  degraded_ = max_age > cfg_.estimate_staleness_s;
  const bool crossband = cfg_.use_crossband && !degraded_;

  // One measurement per base station; co-located cells are estimated via
  // cross-band SVD, others measured directly. Every candidate is visible —
  // there is no multi-stage gating to miss a cell behind. Only the
  // strongest few sites are measured per cycle (bounded monitored set).
  visible_.clear();
  ranked_.clear();
  for (const auto& o : neighbors) {
    // TTT state is indexed by cell id: grow it to the largest id seen.
    if (o.id.cell < 0)
      throw std::invalid_argument("RemManager: neighbor without a cell id");
    if (static_cast<std::size_t>(o.id.cell) >= entered_.size())
      entered_.resize(static_cast<std::size_t>(o.id.cell) + 1, kNotEntered);
    visible_.push_back(o.cell_idx);
    // Best observed dd-SNR per site (a handful of sites: linear search).
    const auto it = std::find_if(
        ranked_.begin(), ranked_.end(),
        [&](const auto& r) { return r.second == o.id.base_station; });
    if (it == ranked_.end())
      ranked_.push_back({o.dd_snr_db, o.id.base_station});
    else
      it->first = std::max(it->first, o.dd_snr_db);
  }
  for (auto& r : ranked_) r.first = -r.first;  // strongest site first
  std::sort(ranked_.begin(), ranked_.end());
  if (ranked_.size() > cfg_.max_measured_sites)
    ranked_.resize(cfg_.max_measured_sites);
  const auto measured = [&](int site) {
    return std::any_of(ranked_.begin(), ranked_.end(),
                       [&](const auto& r) { return r.second == site; });
  };
  tasks_.clear();
  for (const auto& o : neighbors) {
    if (!measured(o.id.base_station)) continue;
    // One measurement per site, siblings estimated; without cross-band
    // (ablation) every monitored cell costs its own measurement.
    if (crossband &&
        std::any_of(tasks_.begin(), tasks_.end(), [&](const auto& task) {
          return task.cell.base_station == o.id.base_station;
        }))
      continue;
    tasks_.push_back({o.id, o.id.channel == serving.id.channel});
  }

  // Stable DD-SNR comparison with the coordinated A3 offset. Estimated
  // cells carry the cross-band estimation error. With capacity selection,
  // the A3 comparison runs on 10*log10 of the Shannon capacity instead
  // (§5.3: Theorems 2-3 hold with SNR replaced by capacity).
  const auto policy_metric = [&](double snr_db, double bandwidth_hz) {
    if (!cfg_.capacity_selection) return snr_db;
    const double cap = common::shannon_capacity_bps(
        bandwidth_hz, common::db_to_lin(snr_db));
    return 10.0 * std::log10(std::max(cap, 1.0));
  };
  const double serving_metric = policy_metric(
      degraded_ ? serving.snr_db : serving.dd_snr_db, serving.bandwidth_hz);
  std::optional<std::size_t> best_target;
  double best_metric = -1e9;
  // Second-best TTT-qualified candidate: offered to the simulator as the
  // preparation fallback. Theorem 2 consistency is inherited — any cell
  // clearing the coordinated A3 threshold satisfies the same pairwise
  // offset-sum condition as the winner.
  int second_target = -1;
  double second_metric = -1e9;
  // Per site, the cell measured directly: the first one not hidden by
  // its breaker. TTT-qualified candidates feed the load-aware tie-break.
  site_direct_.clear();
  qualified_.clear();
  for (const auto& o : neighbors) {
    double& entered = entered_[static_cast<std::size_t>(o.id.cell)];
    if (o.breaker_open) {
      // The circuit breaker tripped on this target: hidden from selection
      // entirely, and its TTT state resets so it must re-qualify from
      // scratch once the breaker admits traffic again.
      entered = kNotEntered;
      continue;
    }
    const int idx = static_cast<int>(o.cell_idx);
    const auto it = std::find_if(
        site_direct_.begin(), site_direct_.end(),
        [&](const auto& sd) { return sd.first == o.id.base_station; });
    const bool is_direct = it == site_direct_.end() || it->second == idx;
    if (it == site_direct_.end())
      site_direct_.push_back({o.id.base_station, idx});
    // Degraded mode swaps the stale delay-Doppler estimate for the fresh
    // direct measurement of the same cell.
    double snr = degraded_ ? o.snr_db : o.dd_snr_db;
    // A sibling of the measured cell is estimated (cross-band error);
    // with the ablation every monitored cell is measured directly, which
    // removed the error but paid per-cell measurement time above.
    const bool is_estimated = crossband && !is_direct;
    if (is_estimated)
      snr += rng_.gaussian(0.0, cfg_.crossband_error_sigma_db);
    const double metric = policy_metric(snr, o.bandwidth_hz);
    const double threshold =
        serving_metric + cfg_.a3_offset_db + cfg_.hysteresis_db;
    if (metric > threshold) {
      if (std::isnan(entered)) entered = t;
      if (t - entered + 1e-12 >= cfg_.time_to_trigger_s) {
        qualified_.push_back({metric, o.cell_idx, o.advertised_load});
        if (metric > best_metric) {
          if (best_target) {
            second_metric = best_metric;
            second_target = static_cast<int>(*best_target);
          }
          best_metric = metric;
          best_target = o.cell_idx;
        } else if (metric > second_metric) {
          second_metric = metric;
          second_target = static_cast<int>(o.cell_idx);
        }
      }
    } else {
      entered = kNotEntered;
    }
  }

  if (!best_target) return std::nullopt;
  if (t - last_decision_t_ < cfg_.refire_interval_s) return std::nullopt;
  last_decision_t_ = t;

  // Load-aware tie-breaking (cascade resilience): among TTT-qualified
  // candidates within load_tie_band_db of the winner's metric, take the
  // lowest advertised control-plane load; ties fall back to the higher
  // metric, then the lower cell index — all draw-free. Only a known ad in
  // the band can move the choice, so runs without load advertisement keep
  // the pure-metric winner bit-for-bit.
  if (cfg_.load_tie_band_db > 0.0) {
    const double floor = best_metric - cfg_.load_tie_band_db;
    bool any_ad = false;
    for (const auto& q : qualified_)
      if (q.metric >= floor && q.load >= 0.0) any_ad = true;
    if (any_ad) {
      double sel_eff = 2.0;  // above any real utilization
      double sel_metric = -1e9;
      std::size_t sel_idx = *best_target;
      for (const auto& q : qualified_) {
        if (q.metric < floor) continue;
        const double eff = q.load >= 0.0 ? q.load : 0.5;
        const bool better =
            eff < sel_eff - 1e-9 ||
            (std::abs(eff - sel_eff) <= 1e-9 &&
             (q.metric > sel_metric ||
              (q.metric == sel_metric && q.idx < sel_idx)));
        if (better) {
          sel_eff = eff;
          sel_metric = q.metric;
          sel_idx = q.idx;
        }
      }
      if (sel_idx != *best_target) {
        // The displaced metric winner is still the best-qualified
        // fallback; avoid a fallback equal to the new target.
        if (second_target == static_cast<int>(sel_idx))
          second_target = static_cast<int>(*best_target);
        best_target = sel_idx;
      }
    }
  }

  sim::HandoverDecision d;
  d.target_idx = *best_target;
  d.fallback_idx = second_target;
  // Without cross-band estimation (ablation or degraded fallback) every
  // monitored cell is measured the legacy way (sequentially, with gaps
  // for inter-frequency cells).
  d.feedback_delay_s =
      crossband ? mobility::rem_feedback_delay_s(tasks_, cfg_.measurement)
                : mobility::legacy_feedback_delay_s(tasks_, cfg_.measurement);
  return d;
}

}  // namespace rem::core
