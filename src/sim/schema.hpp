// The event and counter schema: one row per sim::EventKind and one row per
// scalar SimStats field. Every site that names events or counters reads
// these tables instead of keeping its own list:
//
//   - kEventTable drives event_kind_name / event_kind_from_name (the CSV
//     codec, trace/eventlog.hpp), the per-kind tallies obs::SpanTracer
//     publishes as `sim.*` counters, and the plain event-count checks in
//     SpanTracer::reconcile() and testkit::InvariantChecker;
//   - kStatsTable drives merge_fleet_stats (sim/fleet.hpp), the golden
//     digest (testkit/golden.hpp) and testkit::fleet_invariant_report.
//
// Adding an event kind or a counter is one row here (DESIGN.md §8 lists
// what each column drives). The tables say only *what* is counted: the
// simulator still counts from its own state and the observers from the
// event stream, so the reconciliation checks stay independent.
#pragma once

#include "sim/simulator.hpp"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <variant>

namespace rem::sim {

/// One event kind: its CSV token, the `sim.*` counter the span tracer
/// publishes for its count (nullptr when the tracer publishes none), and
/// the SimStats counter its count must equal (nullptr when none does).
struct EventRow {
  EventKind kind;
  const char* token;
  const char* counter;
  int SimStats::*stat;
};

/// In enum order (asserted below), so kEventTable[k] describes kind k.
inline constexpr EventRow kEventTable[] = {
    {EventKind::kMeasurementTriggered, "measurement_triggered",
     "sim.handover.triggered", nullptr},
    {EventKind::kReportDelivered, "report_delivered", "sim.report.delivered",
     nullptr},
    {EventKind::kReportLost, "report_lost", "sim.handover.report_lost",
     nullptr},
    {EventKind::kHoCommandDelivered, "ho_command_delivered",
     "sim.handover.attempts", &SimStats::handovers},
    {EventKind::kHoCommandLost, "ho_command_lost", "sim.handover.command_lost",
     nullptr},
    {EventKind::kHandoverComplete, "handover_complete",
     "sim.handover.complete", &SimStats::successful_handovers},
    {EventKind::kRadioLinkFailure, "radio_link_failure", "sim.rlf", nullptr},
    // The tracer publishes `sim.reestablished` from closed outage spans.
    {EventKind::kReestablished, "reestablished", nullptr, nullptr},
    {EventKind::kFaultStart, "fault_start", "sim.fault.windows", nullptr},
    {EventKind::kFaultEnd, "fault_end", nullptr, nullptr},
    {EventKind::kReportRetransmit, "report_retransmit",
     "sim.report.retransmits", &SimStats::report_retransmits},
    {EventKind::kT304Expiry, "t304_expiry", "sim.handover.t304_expiry",
     &SimStats::t304_expiries},
    {EventKind::kHoCommandDuplicate, "ho_command_duplicate",
     "sim.command.duplicates", &SimStats::duplicate_commands},
    {EventKind::kDegradedEnter, "degraded_enter", "sim.degraded.enters",
     &SimStats::degraded_enters},
    {EventKind::kDegradedExit, "degraded_exit", nullptr, nullptr},
    {EventKind::kPrepRequest, "prep_request", "sim.prep.requests",
     &SimStats::prep_requests},
    {EventKind::kPrepRetry, "prep_retry", "sim.prep.retries",
     &SimStats::prep_retries},
    {EventKind::kPrepAck, "prep_ack", "sim.prep.acks", &SimStats::prep_acks},
    {EventKind::kPrepReject, "prep_reject", "sim.prep.rejects",
     &SimStats::prep_rejects},
    {EventKind::kPrepFallback, "prep_fallback", "sim.prep.fallbacks",
     &SimStats::prep_fallbacks},
    {EventKind::kPrepFailed, "prep_failed", "sim.prep.failures",
     &SimStats::prep_failures},
    {EventKind::kContextFetchFailed, "context_fetch_failed",
     "sim.ctx_fetch.failures", &SimStats::context_fetch_failures},
    {EventKind::kBsQueueShed, "bs_queue_shed", "sim.bs.queue_shed",
     &SimStats::bs_queue_shed},
    {EventKind::kBsJobDone, "bs_job_done", "sim.bs.jobs_served",
     &SimStats::bs_jobs_served},
    {EventKind::kAdmissionReject, "admission_reject",
     "sim.bs.admission_rejects", &SimStats::admission_rejects},
    {EventKind::kAdmissionRetry, "admission_retry", "sim.bs.admission_retries",
     &SimStats::admission_backoff_retries},
    {EventKind::kBsCrash, "bs_crash", "sim.bs.crashes", &SimStats::bs_crashes},
    {EventKind::kBsRestart, "bs_restart", "sim.bs.restarts", nullptr},
    {EventKind::kContextStale, "context_stale", "sim.bs.stale_context",
     &SimStats::stale_context_responses},
    {EventKind::kCascadeInject, "cascade_inject", "sim.cascade.activations",
     &SimStats::cascade_activations},
    {EventKind::kBreakerTrip, "breaker_trip", "sim.breaker.trips",
     &SimStats::breaker_trips},
    {EventKind::kBreakerProbe, "breaker_probe", "sim.breaker.probes",
     &SimStats::breaker_probes},
    {EventKind::kBreakerClose, "breaker_close", "sim.breaker.closes",
     &SimStats::breaker_closes},
};

inline constexpr std::size_t kNumEventKinds = std::size(kEventTable);

constexpr bool event_table_in_enum_order() {
  for (std::size_t i = 0; i < kNumEventKinds; ++i)
    if (static_cast<std::size_t>(kEventTable[i].kind) != i) return false;
  return true;
}
static_assert(event_table_in_enum_order(),
              "kEventTable rows must follow EventKind declaration order");
// Names the last enumerator: appending a kind means appending its row and
// moving this assert to the new last kind.
static_assert(static_cast<std::size_t>(EventKind::kBreakerClose) + 1 ==
                  kNumEventKinds,
              "kEventTable must end with the last EventKind");

constexpr std::size_t event_index(EventKind k) {
  return static_cast<std::size_t>(k);
}

/// How merge_fleet_stats folds one field over the per-UE stats (UE order).
enum class MergeRule {
  kSum,      ///< additive: the fleet total
  kMax,      ///< per-UE extreme (e.g. the oldest advertisement seen)
  kMean,     ///< mean over all UEs (per-UE means over the same ticks)
  kMeanSet,  ///< mean over the UEs whose value is non-zero (set)
  kGlobal,   ///< world-global: every UE counts the same value; the fleet
             ///< report checks that they agree, the aggregate takes it
};

/// When the golden digest emits a field.
enum class DigestEmit {
  kAlways,
  /// Only when non-zero: counters added after the corpus was recorded,
  /// so cases that never exercise them digest byte-identically.
  kNonZero,
  kNever,
};

using StatsField = std::variant<int SimStats::*, std::uint64_t SimStats::*,
                                double SimStats::*>;

/// One scalar SimStats field. `name` is the member name, which is also
/// its digest key.
struct StatsRow {
  const char* name;
  StatsField field;
  MergeRule merge;
  DigestEmit digest;
};

#define REM_STATS_ROW(f, merge, digest) \
  StatsRow{#f, &SimStats::f, MergeRule::merge, DigestEmit::digest}

/// In golden-digest order. The digest writes the per-cause failure split
/// right after `failures`; vector fields and the event log are digested
/// and merged outside this table.
inline constexpr StatsRow kStatsTable[] = {
    REM_STATS_ROW(handovers, kSum, kAlways),
    REM_STATS_ROW(successful_handovers, kSum, kAlways),
    REM_STATS_ROW(failures, kSum, kAlways),
    REM_STATS_ROW(loop_handovers, kSum, kAlways),
    REM_STATS_ROW(loop_episodes, kSum, kAlways),
    REM_STATS_ROW(intra_freq_loop_episodes, kSum, kAlways),
    REM_STATS_ROW(conflict_loop_episodes, kSum, kAlways),
    REM_STATS_ROW(conflict_loop_handovers, kSum, kAlways),
    REM_STATS_ROW(t304_expiries, kSum, kAlways),
    REM_STATS_ROW(t304_fallback_success, kSum, kAlways),
    REM_STATS_ROW(report_retransmits, kSum, kAlways),
    REM_STATS_ROW(duplicate_commands, kSum, kAlways),
    REM_STATS_ROW(prep_requests, kSum, kAlways),
    REM_STATS_ROW(prep_retries, kSum, kAlways),
    REM_STATS_ROW(prep_acks, kSum, kAlways),
    REM_STATS_ROW(prep_rejects, kSum, kAlways),
    REM_STATS_ROW(prep_fallbacks, kSum, kAlways),
    REM_STATS_ROW(prep_failures, kSum, kAlways),
    REM_STATS_ROW(prep_rtt_sum_s, kSum, kAlways),
    REM_STATS_ROW(context_fetch_failures, kSum, kAlways),
    // Transport totals land on UE 0 (the others carry zeros), so the sum
    // is the shared network's total.
    REM_STATS_ROW(backhaul_sent, kSum, kAlways),
    REM_STATS_ROW(backhaul_delivered, kSum, kAlways),
    REM_STATS_ROW(backhaul_dropped_loss, kSum, kAlways),
    REM_STATS_ROW(backhaul_dropped_partition, kSum, kAlways),
    REM_STATS_ROW(backhaul_dropped_queue, kSum, kAlways),
    REM_STATS_ROW(backhaul_dropped_crash, kSum, kAlways),
    REM_STATS_ROW(backhaul_duplicated, kSum, kAlways),
    REM_STATS_ROW(backhaul_reordered, kSum, kAlways),
    REM_STATS_ROW(backhaul_latency_sum_s, kSum, kAlways),
    REM_STATS_ROW(bs_jobs_submitted, kSum, kAlways),
    REM_STATS_ROW(bs_jobs_served, kSum, kAlways),
    REM_STATS_ROW(bs_jobs_queued, kSum, kAlways),
    REM_STATS_ROW(bs_queue_shed, kSum, kAlways),
    REM_STATS_ROW(bs_jobs_flushed, kSum, kAlways),
    REM_STATS_ROW(bs_jobs_inflight_end, kSum, kAlways),
    REM_STATS_ROW(bs_queue_wait_sum_s, kSum, kAlways),
    REM_STATS_ROW(admission_rejects, kSum, kAlways),
    REM_STATS_ROW(admission_backoff_retries, kSum, kAlways),
    REM_STATS_ROW(bs_crashes, kGlobal, kAlways),
    REM_STATS_ROW(bs_crash_dropped_msgs, kSum, kAlways),
    REM_STATS_ROW(stale_context_responses, kSum, kAlways),
    REM_STATS_ROW(cascade_jobs_injected, kGlobal, kNonZero),
    REM_STATS_ROW(cascade_activations, kGlobal, kNonZero),
    REM_STATS_ROW(breaker_trips, kSum, kNonZero),
    REM_STATS_ROW(breaker_probes, kSum, kNonZero),
    REM_STATS_ROW(breaker_closes, kSum, kNonZero),
    REM_STATS_ROW(breaker_skips, kSum, kNonZero),
    REM_STATS_ROW(load_ads_received, kSum, kNonZero),
    REM_STATS_ROW(storm_jitter_applied, kSum, kNonZero),
    REM_STATS_ROW(load_ad_age_max_s, kMax, kNonZero),
    REM_STATS_ROW(degraded_enters, kSum, kAlways),
    REM_STATS_ROW(degraded_time_s, kSum, kAlways),
    // UEs with fewer than two handovers report 0 and are left out.
    REM_STATS_ROW(avg_handover_interval_s, kMeanSet, kAlways),
    REM_STATS_ROW(mean_throughput_bps, kMean, kAlways),
    REM_STATS_ROW(downtime_fraction, kMean, kAlways),
    REM_STATS_ROW(invariant_violations, kSum, kAlways),
    // All UEs share the horizon.
    REM_STATS_ROW(sim_time_s, kGlobal, kNever),
    REM_STATS_ROW(intra_freq_conflict_loops, kSum, kNever),
};

#undef REM_STATS_ROW

/// kStatsTable name of a counter, for messages ("?" when it has no row).
constexpr const char* stats_name(StatsField field) {
  for (const auto& row : kStatsTable)
    if (row.field == field) return row.name;
  return "?";
}

}  // namespace rem::sim
