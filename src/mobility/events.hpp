// 4G/5G measurement-report triggering events (Table 1) with hysteresis and
// TimeToTrigger semantics per TS 36.331 / 38.331.
#pragma once

#include <limits>
#include <string>

namespace rem::mobility {

enum class EventType { kA1, kA2, kA3, kA4, kA5 };

std::string event_name(EventType t);

/// One configured triggering event. Thresholds/offsets are in dB(m) of
/// whatever metric drives the policy (RSRP for legacy, delay-Doppler SNR
/// for REM — the criteria are metric-agnostic).
struct EventConfig {
  EventType type = EventType::kA3;
  /// A1/A2/A4: the threshold. A5: serving-cell threshold (Delta_A5_1).
  double threshold1 = 0.0;
  /// A5: neighbor-cell threshold (Delta_A5_2). Unused otherwise.
  double threshold2 = 0.0;
  /// A3: the offset Delta_A3 (can be negative for proactive policies).
  double offset = 0.0;
  /// Entering hysteresis, applied to the deciding comparison.
  double hysteresis = 0.0;
  /// TimeToTrigger: the condition must hold this long before reporting.
  double time_to_trigger_s = 0.0;
};

/// Instantaneous entering condition (Table 1), before TimeToTrigger.
/// `serving` / `neighbor` are the metric values; neighbor is ignored for
/// A1/A2.
bool event_condition(const EventConfig& cfg, double serving,
                     double neighbor);

/// TimeToTrigger progress of a single (event, neighbor) pair: when the
/// entering condition started to hold (NaN while it does not) and whether
/// this entry has already fired. A default-constructed state is fresh;
/// assigning `{}` forgets any partially elapsed trigger (e.g. after a
/// reconfiguration). The config stays with the caller, so a manager can
/// keep many of these in a flat array.
struct TriggerState {
  double entered_at = std::numeric_limits<double>::quiet_NaN();
  bool fired = false;
};

/// Feed one measurement sample at time `t` to `state` under `cfg`; returns
/// true when the event fires: the first sample at which the entering
/// condition has held continuously for time_to_trigger_s. Fires once per
/// entry and re-arms after the condition lapses.
bool update_trigger(const EventConfig& cfg, TriggerState& state, double t,
                    double serving, double neighbor);

}  // namespace rem::mobility
