// crossband_batch workload (see crossband_workload.cpp).
#pragma once

#include "probes.hpp"

namespace perfbench {

/// Run RemSvdEstimator::estimate_batch on HST-350 inputs for `o.seconds`
/// and fill `r` with end-to-end (untraced) or per-layer (o.trace) metrics.
void run_crossband_workload(const Options& o, Report& r);

}  // namespace perfbench
