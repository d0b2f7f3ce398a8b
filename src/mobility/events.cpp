#include "mobility/events.hpp"

#include <cmath>

namespace rem::mobility {

std::string event_name(EventType t) {
  switch (t) {
    case EventType::kA1: return "A1";
    case EventType::kA2: return "A2";
    case EventType::kA3: return "A3";
    case EventType::kA4: return "A4";
    case EventType::kA5: return "A5";
  }
  return "?";
}

bool event_condition(const EventConfig& cfg, double serving,
                     double neighbor) {
  switch (cfg.type) {
    case EventType::kA1:
      return serving > cfg.threshold1 + cfg.hysteresis;
    case EventType::kA2:
      return serving < cfg.threshold1 - cfg.hysteresis;
    case EventType::kA3:
      return neighbor > serving + cfg.offset + cfg.hysteresis;
    case EventType::kA4:
      return neighbor > cfg.threshold1 + cfg.hysteresis;
    case EventType::kA5:
      return serving < cfg.threshold1 - cfg.hysteresis &&
             neighbor > cfg.threshold2 + cfg.hysteresis;
  }
  return false;
}

bool update_trigger(const EventConfig& cfg, TriggerState& state, double t,
                    double serving, double neighbor) {
  if (!event_condition(cfg, serving, neighbor)) {
    state = {};
    return false;
  }
  if (std::isnan(state.entered_at)) state.entered_at = t;
  if (state.fired) return false;  // report once per entry
  if (t - state.entered_at + 1e-12 >= cfg.time_to_trigger_s) {
    state.fired = true;
    return true;
  }
  return false;
}

}  // namespace rem::mobility
