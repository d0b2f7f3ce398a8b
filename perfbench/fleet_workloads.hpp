// Fleet workloads: rail_corridor and dense_storm (see fleet_workloads.cpp).
#pragma once

#include "probes.hpp"

namespace perfbench {

/// Run the fleet workload `o.workload` for `o.seconds` and fill `r` with
/// its end-to-end metrics (untraced) or per-layer metrics (o.trace).
void run_fleet_workload(const Options& o, Report& r);

}  // namespace perfbench
