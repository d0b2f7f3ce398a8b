// CSV export/import of simulated signaling event logs — the repo's
// equivalent of the operational datasets in Table 4. One row per
// control-plane event: time, kind, serving cell, target cell, serving SNR.
#pragma once

#include "sim/events.hpp"
#include "sim/schema.hpp"

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>

namespace rem::trace {

/// Serialize an event log as CSV (with a header row).
void write_event_csv(const sim::EventLog& log, std::ostream& os);
void write_event_csv_file(const sim::EventLog& log,
                          const std::string& path);

/// Parse an event log written by write_event_csv. Throws
/// std::runtime_error on malformed input.
sim::EventLog read_event_csv(std::istream& is);
sim::EventLog read_event_csv_file(const std::string& path);

/// Summary statistics straight from a log — the first-pass analysis the
/// paper runs over its captures: the event count of every kind and the
/// mean interval between completed handovers.
struct LogSummary {
  /// Events per kind, indexed by sim::event_index (kEventTable order).
  std::array<std::size_t, sim::kNumEventKinds> counts{};
  /// Mean gap between handover_complete events (0 with fewer than two).
  double mean_handover_interval_s = 0.0;

  std::size_t count(sim::EventKind k) const {
    return counts[sim::event_index(k)];
  }
};
/// Throws std::out_of_range on an event kind outside the enum.
LogSummary summarize_event_log(const sim::EventLog& log);

}  // namespace rem::trace
