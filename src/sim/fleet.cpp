#include "sim/fleet.hpp"

#include "sim/schema.hpp"

#include <algorithm>
#include <stdexcept>

namespace rem::sim {

EventLog merge_fleet_events(const std::vector<SimStats>& per_ue) {
  EventLog merged;
  std::size_t total = 0;
  for (const auto& s : per_ue) total += s.events.size();
  merged.reserve(total);
  for (const auto& s : per_ue)
    merged.insert(merged.end(), s.events.begin(), s.events.end());
  // Each per-UE log is time-sorted, so a stable sort over the UE-order
  // concatenation is exactly a k-way merge with UE-id tiebreak.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const SignalingEvent& a, const SignalingEvent& b) {
                     return a.t_s < b.t_s;
                   });
  return merged;
}

namespace {

/// Fold one scalar field over the per-UE stats in UE order, under its
/// kStatsTable merge rule.
template <class T>
T merge_field(MergeRule rule, const std::vector<SimStats>& per_ue,
              T SimStats::*field) {
  T acc{};
  int set = 0;
  for (const auto& s : per_ue) {
    const T v = s.*field;
    switch (rule) {
      case MergeRule::kSum:
      case MergeRule::kMean:
        acc += v;
        break;
      case MergeRule::kMax:
      case MergeRule::kGlobal:
        acc = std::max(acc, v);
        break;
      case MergeRule::kMeanSet:
        if (v > T{}) {
          acc += v;
          ++set;
        }
        break;
    }
  }
  if (rule == MergeRule::kMean)
    return static_cast<T>(acc / static_cast<double>(per_ue.size()));
  if (rule == MergeRule::kMeanSet)
    return set > 0 ? static_cast<T>(acc / static_cast<double>(set)) : T{};
  return acc;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

SimStats merge_fleet_stats(const std::vector<SimStats>& per_ue) {
  if (per_ue.empty())
    throw std::invalid_argument("merge_fleet_stats: no per-UE stats");
  SimStats agg;
  for (const auto& row : kStatsTable)
    std::visit(
        [&](auto field) { agg.*field = merge_field(row.merge, per_ue, field); },
        row.field);
  for (const auto& s : per_ue) {
    for (const auto& [cause, n] : s.failures_by_cause)
      agg.failures_by_cause[cause] += n;
    append(agg.outage_durations_s, s.outage_durations_s);
    append(agg.feedback_delays_s, s.feedback_delays_s);
    append(agg.pre_failure_snrs_db, s.pre_failure_snrs_db);
  }
  agg.events = merge_fleet_events(per_ue);
  return agg;
}

}  // namespace rem::sim
