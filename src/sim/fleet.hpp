// Deterministic fleet-statistics merging for Simulator::run_fleet.
//
// A fleet run produces one SimStats per UE (indexed by UE id); the
// aggregate is a pure fold over that vector in UE-id order, so it is
// reproducible run-to-run and thread-count-independent by construction.
// Scalar fields fold under their sim::kStatsTable merge rule
// (sim/schema.hpp: sum, max, mean, mean-over-set or global). The rest:
//   - failures_by_cause sums per cause;
//   - sample vectors (outage durations, feedback delays, pre-failure
//     SNRs) concatenate in UE order;
//   - events merge into one time-sorted log, UE order breaking ties, via
//     merge_fleet_events.
#pragma once

#include "sim/simulator.hpp"

#include <vector>

namespace rem::sim {

/// Merge per-UE event logs (each already time-sorted) into one log sorted
/// by t_s, with same-timestamp events kept in UE-id order (the merge is
/// stable over the UE-order concatenation). Cross-UE timestamp regression
/// is impossible in the output by construction.
EventLog merge_fleet_events(const std::vector<SimStats>& per_ue);

/// Fold per-UE stats (indexed by UE id) into the fleet aggregate under
/// the rules above. Throws std::invalid_argument on an empty input.
SimStats merge_fleet_stats(const std::vector<SimStats>& per_ue);

}  // namespace rem::sim
