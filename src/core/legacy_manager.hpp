// Legacy 4G/5G mobility management (the baseline REM is compared against):
// wireless-signal-strength input with fast fading, per-cell multi-stage
// policies (Fig. 1b), sequential measurement with gaps and long
// inter-frequency TimeToTrigger, OFDM signaling.
#pragma once

#include "mobility/measurement.hpp"
#include "mobility/policy.hpp"
#include "sim/simulator.hpp"

#include <map>
#include <set>
#include <utility>
#include <vector>

namespace rem::core {

struct LegacyConfig {
  /// Per-cell policies, keyed by CellId::cell. Cells without an entry get
  /// `default_policy`.
  std::map<int, mobility::CellPolicy> policies;
  mobility::CellPolicy default_policy;
  mobility::MeasurementConfig measurement;
  /// After an emitted decision, how long before the (still satisfied)
  /// trigger may re-fire a report (RLC ARQ + reporting interval).
  double refire_interval_s = 0.24;
  /// Bounded monitored set: strongest cells measured per stage.
  std::size_t max_monitored_cells = 8;
  /// Cascade resilience: among rules that fired this tick within this band
  /// (dB RSRP) of the chosen target, steer toward the lowest advertised
  /// control-plane load (unknown reads as a neutral 0.5). Inert while
  /// nothing advertises load; 0 disables.
  double load_tie_band_db = 1.5;
};

class LegacyManager final : public sim::MobilityManager {
 public:
  /// A manager instance serves exactly one UE (it tracks per-UE TTT and
  /// visibility state); fleet runs construct one per UE via the
  /// Simulator::run_fleet factory. The legacy manager draws no
  /// randomness, so all fleet UEs share the same LegacyConfig.
  explicit LegacyManager(LegacyConfig cfg);

  std::string name() const override { return "Legacy"; }
  phy::Waveform waveform() const override { return phy::Waveform::kOFDM; }
  std::optional<sim::HandoverDecision> update(
      double t, const sim::ServingState& serving,
      const std::vector<sim::Observation>& neighbors) override;
  std::set<std::size_t> visible_cells() const override {
    return {visible_.begin(), visible_.end()};
  }
  void on_serving_changed(double t, std::size_t new_idx) override;

  int current_stage() const { return stage_; }
  int reconfigurations() const { return reconfigurations_; }

 private:
  const mobility::CellPolicy& serving_policy() const;
  bool rule_matches(const mobility::PolicyRule& rule,
                    const mobility::CellId& serving,
                    const mobility::CellId& target) const;

  LegacyConfig cfg_;
  int serving_cell_ = -1;
  mobility::CellId serving_id_;
  int stage_ = 0;
  int reconfigurations_ = 0;  ///< since last serving change
  /// A fired reconfiguration takes a round trip to take effect; until
  /// `stage_change_due_` the client still measures the old stage's cells.
  int pending_stage_ = -1;
  double stage_change_due_ = -1.0;
  double last_decision_t_ = -1e9;
  /// TTT state per (rule index, neighbor cell id), read under the serving
  /// policy's rule configs (a serving change clears it). Flat: slot (cell
  /// id + 1; slot 0 holds the serving-only A1/A2 guards) times
  /// `rules_stride_`, the most rules any configured policy has. Grows to
  /// the largest cell id seen, fresh states filling the new slots, so a
  /// reset truncates.
  mobility::TriggerState& monitor(std::size_t rule, int cell);
  std::vector<mobility::TriggerState> monitors_;
  std::size_t rules_stride_ = 0;
  /// The bounded monitored set of this stage, strongest first, and the
  /// same set as a mark per cell index.
  std::vector<std::size_t> visible_;
  std::vector<char> is_visible_;

  // Per-update scratch, cleared and reused so an update allocates nothing
  // once the buffers have grown.
  std::vector<std::pair<double, const sim::Observation*>> candidates_;
  std::vector<mobility::MeasureTask> tasks_;
  struct Fired {
    double metric;
    std::size_t idx;
    double load;
  };
  std::vector<Fired> fired_;  ///< handover rules fired this update
};

}  // namespace rem::core
