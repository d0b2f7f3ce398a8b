#include "obs/tracer.hpp"

#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace rem::obs {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string failure_cause_slug(sim::FailureCause c) {
  switch (c) {
    case sim::FailureCause::kFeedbackDelayLoss: return "feedback_delay_loss";
    case sim::FailureCause::kMissedCell: return "missed_cell";
    case sim::FailureCause::kHoCommandLoss: return "ho_command_loss";
    case sim::FailureCause::kCoverageHole: return "coverage_hole";
  }
  throw std::invalid_argument(
      "failure_cause_slug: invalid FailureCause value " +
      std::to_string(static_cast<int>(c)));
}

SpanTracer::SpanTracer(Registry* registry) : registry_(registry) {}

void SpanTracer::record(Histogram*& slot, const char* name,
                        const std::vector<double>& buckets, double v) {
  if (slot == nullptr) slot = registry_->histogram(name, buckets);
  if (slot != nullptr) slot->record(v);
}

void SpanTracer::note_fault(std::size_t kind_index) {
  const std::string name =
      sim::fault_kind_name(static_cast<sim::FaultKind>(kind_index));
  const auto annotate = [&](std::optional<Span>& span) {
    if (!span) return;
    auto& fs = span->faults;
    if (std::find(fs.begin(), fs.end(), name) == fs.end()) fs.push_back(name);
  };
  annotate(handover_);
  annotate(outage_);
}

void SpanTracer::close_handover(double t, const std::string& outcome) {
  if (!handover_) return;
  Span span = std::move(*handover_);
  handover_.reset();
  if (!span.phases.empty() && span.phases.back().end_s < span.phases.back().start_s)
    span.phases.back().end_s = t;
  span.end_s = t;
  span.outcome = outcome;
  if (outcome == "complete") {
    ++tally_.latency_count;
    if (registry_ != nullptr) {
      record(latency_hist_, "sim.handover_latency_s",
             handover_latency_buckets_s(), span.duration_s());
      for (const auto& p : span.phases) {
        auto it = std::find_if(
            phase_hists_.begin(), phase_hists_.end(),
            [&](const auto& entry) { return entry.first == p.name; });
        if (it == phase_hists_.end())
          it = phase_hists_.insert(
              it, {p.name, registry_->histogram(
                               "sim.handover_phase." + p.name + "_s",
                               handover_latency_buckets_s())});
        if (it->second != nullptr) it->second->record(p.end_s - p.start_s);
      }
    }
  }
  spans_.push_back(std::move(span));
}

void SpanTracer::close_outage(double t, const std::string& outcome) {
  if (!outage_) return;
  Span span = std::move(*outage_);
  outage_.reset();
  span.end_s = t;
  span.outcome = outcome;
  span.phases.front().end_s = t;
  if (outcome == "reestablished") {
    ++tally_.reestablished;
    tally_.outage_sum_s += span.duration_s();
    if (registry_ != nullptr)
      record(outage_hist_, "sim.outage_duration_s",
             outage_duration_buckets_s(), span.duration_s());
  }
  spans_.push_back(std::move(span));
}

void SpanTracer::on_ue(int ue) {
  if (ue_ >= 0 && ue != ue_)
    throw std::logic_error(
        "SpanTracer observes exactly one UE, but saw ue=" +
        std::to_string(ue) + " after ue=" + std::to_string(ue_) +
        "; host one tracer per UE behind sim::UeObserverDemux");
  ue_ = ue;
}

void SpanTracer::on_event(const sim::SignalingEvent& e) {
  if (sim::event_index(e.kind) < sim::kNumEventKinds)
    ++tally_.count[sim::event_index(e.kind)];
  // Phases are opened with end_s < start_s as an "open" sentinel; the
  // closing transition stamps the real end.
  const auto open_phase = [&](const std::string& name, double t) {
    handover_->phases.push_back({name, t, t - 1.0});
  };
  const auto end_phase = [&](double t) {
    // Close only an *open* phase (end < start sentinel): a transition that
    // fires with no phase open must not stretch an already-closed one.
    if (handover_ && !handover_->phases.empty() &&
        handover_->phases.back().end_s < handover_->phases.back().start_s)
      handover_->phases.back().end_s = t;
  };
  // RLF and T304 expiry both start an outage (T304: re-establishment on
  // the prepared target).
  const auto open_outage = [&] {
    close_outage(e.t_s, "superseded");
    outage_ = Span{};
    outage_->kind = "outage";
    outage_->start_s = e.t_s;
    outage_->serving = e.serving_cell;
    outage_->phases.push_back({"outage", e.t_s, e.t_s - 1.0});
    for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k)
      if (fault_active_[k])
        outage_->faults.push_back(
            sim::fault_kind_name(static_cast<sim::FaultKind>(k)));
  };
  switch (e.kind) {
    case sim::EventKind::kMeasurementTriggered: {
      // The simulator never triggers a new attempt while one is live, but
      // close defensively rather than leak an open span.
      close_handover(e.t_s, "superseded");
      Span span;
      span.kind = "handover";
      span.start_s = e.t_s;
      span.serving = e.serving_cell;
      span.target = e.target_cell;
      for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k)
        if (fault_active_[k])
          span.faults.push_back(
              sim::fault_kind_name(static_cast<sim::FaultKind>(k)));
      handover_ = std::move(span);
      open_phase("measure", e.t_s);
      break;
    }
    case sim::EventKind::kReportRetransmit:
      if (handover_) ++handover_->report_retransmits;
      break;
    case sim::EventKind::kReportDelivered:
      if (handover_) {
        end_phase(e.t_s);
        open_phase("decide", e.t_s);
      }
      break;
    case sim::EventKind::kReportLost:
      close_handover(e.t_s, "report_lost");
      break;
    case sim::EventKind::kHoCommandDuplicate:
      if (handover_) handover_->duplicate_command = true;
      break;
    case sim::EventKind::kHoCommandDelivered:
      if (handover_) {
        end_phase(e.t_s);
        open_phase("execute", e.t_s);
      }
      break;
    case sim::EventKind::kHoCommandLost:
      close_handover(e.t_s, "command_lost");
      break;
    case sim::EventKind::kHandoverComplete:
      close_handover(e.t_s, "complete");
      break;
    case sim::EventKind::kT304Expiry:
      close_handover(e.t_s, "t304_expiry");
      open_outage();
      break;
    case sim::EventKind::kRadioLinkFailure:
      close_handover(e.t_s, "rlf_interrupted");
      open_outage();
      break;
    case sim::EventKind::kReestablished:
      close_outage(e.t_s, "reestablished");
      break;
    case sim::EventKind::kFaultStart:
      if (e.target_cell >= 0 &&
          e.target_cell < static_cast<int>(sim::kNumFaultKinds)) {
        fault_active_[static_cast<std::size_t>(e.target_cell)] = true;
        note_fault(static_cast<std::size_t>(e.target_cell));
      }
      break;
    case sim::EventKind::kFaultEnd:
      if (e.target_cell >= 0 &&
          e.target_cell < static_cast<int>(sim::kNumFaultKinds))
        fault_active_[static_cast<std::size_t>(e.target_cell)] = false;
      break;
    case sim::EventKind::kPrepRequest:
      if (handover_) {
        // Open the prepare phase on the first request; a fallback re-send
        // arrives with the prepare phase already open and extends it.
        const bool prepare_open =
            !handover_->phases.empty() &&
            handover_->phases.back().name == "prepare" &&
            handover_->phases.back().end_s < handover_->phases.back().start_s;
        if (!prepare_open) {
          end_phase(e.t_s);
          open_phase("prepare", e.t_s);
        }
      }
      break;
    case sim::EventKind::kPrepRetry:
      if (handover_) ++handover_->prep_retries;
      break;
    case sim::EventKind::kPrepAck:
      // The event carries the request->ack round trip in the SNR slot.
      // The prepare phase stays open past the ack: it runs until the
      // command reaches the UE, keeping the phase timeline contiguous.
      tally_.prep_rtt_sum_s += e.serving_snr_db;
      if (registry_ != nullptr)
        record(prep_rtt_hist_, "sim.backhaul.prep_rtt_s",
               backhaul_rtt_buckets_s(), e.serving_snr_db);
      break;
    case sim::EventKind::kPrepFallback:
      if (handover_) handover_->used_fallback = true;
      break;
    case sim::EventKind::kPrepFailed:
      close_handover(e.t_s, "prep_failed");
      break;
    case sim::EventKind::kBsJobDone:
      // The SNR slot carries the job's queue wait in seconds.
      tally_.bs_queue_wait_sum_s += e.serving_snr_db;
      if (registry_ != nullptr)
        record(queue_wait_hist_, "sim.bs.queue_wait_s",
               bs_queue_wait_buckets_s(), e.serving_snr_db);
      break;
    case sim::EventKind::kAdmissionReject:
      if (handover_) handover_->admission_rejected = true;
      break;
    case sim::EventKind::kAdmissionRetry:
      if (handover_) ++handover_->admission_retries;
      break;
    case sim::EventKind::kCascadeInject:
      // World-global broadcast; the payload (injected job count) rides the
      // snr slot, mirroring SimStats::cascade_jobs_injected.
      tally_.cascade_jobs += static_cast<std::uint64_t>(e.serving_snr_db);
      break;
    default:
      break;  // counted above; no span effect
  }
}

void SpanTracer::on_tick(const sim::TickView& v) {
  last_tick_s_ = v.t_s;
  if (v.estimate_age_s > max_estimate_age_s_)
    max_estimate_age_s_ = v.estimate_age_s;
  // Out-of-sync episodes: the T310-armed interval, closed on the first
  // tick where the timer is no longer running (recovery or RLF — the RLF
  // tick itself reports t310_running == false, so episodes that end in
  // failure close at the failure time).
  if (v.t310_running && !t310_prev_) {
    t310_started_ = v.t_s;
  } else if (!v.t310_running && t310_prev_) {
    if (registry_ != nullptr)
      record(out_of_sync_hist_, "sim.out_of_sync_s", out_of_sync_buckets_s(),
             v.t_s - t310_started_);
  }
  t310_prev_ = v.t310_running;
}

void SpanTracer::on_run_end(sim::SimStats& stats) {
  close_handover(stats.sim_time_s, "unfinished");
  close_outage(stats.sim_time_s, "unfinished");
  run_ended_ = true;
  if (registry_ == nullptr) return;
  // Counters are published once per run rather than per event: the values
  // derive from simulated time, so a post-run publish is equivalent to
  // live increments for every snapshot taken after the run.
  const auto put = [&](const char* name, std::uint64_t v) {
    registry_->counter(name)->add(v);
  };
  for (const auto& row : sim::kEventTable)
    if (row.counter != nullptr)
      put(row.counter, tally_.count[sim::event_index(row.kind)]);
  put("sim.reestablished", tally_.reestablished);
  put("sim.cascade.jobs_injected", tally_.cascade_jobs);
  // Failure causes exist only in SimStats (events do not carry the Table 2
  // classification); reconcile() checks the totals are consistent with the
  // event-derived failure count.
  for (const auto& [cause, n] : stats.failures_by_cause)
    registry_->counter("sim.failure_cause." + failure_cause_slug(cause))
        ->add(static_cast<std::uint64_t>(n));
  const auto age = registry_->gauge("sim.estimate_age_max_s");
  if (max_estimate_age_s_ > age->value()) age->set(max_estimate_age_s_);
}

std::vector<std::string> SpanTracer::reconcile(
    const sim::SimStats& stats) const {
  std::vector<std::string> out;
  if (!run_ended_) {
    out.push_back("reconcile: on_run_end has not fired yet");
    return out;
  }
  const auto check_u = [&](const std::string& what, std::uint64_t trace_v,
                           long long stats_v) {
    if (static_cast<long long>(trace_v) != stats_v)
      out.push_back(what + ": trace " + std::to_string(trace_v) +
                    " vs stats " + std::to_string(stats_v));
  };
  const auto count = [&](sim::EventKind k) {
    return tally_.count[sim::event_index(k)];
  };
  for (const auto& row : sim::kEventTable)
    if (row.stat != nullptr)
      check_u(std::string(row.token) + " events vs SimStats::" +
                  sim::stats_name(row.stat),
              count(row.kind), stats.*row.stat);
  const std::uint64_t failures = count(sim::EventKind::kRadioLinkFailure) +
                                 count(sim::EventKind::kT304Expiry);
  check_u("failures (rlf + t304)", failures, stats.failures);
  long long cause_sum = 0;
  for (const auto& [cause, n] : stats.failures_by_cause) cause_sum += n;
  check_u("failure-cause sum", failures, cause_sum);
  check_u("outages closed", tally_.reestablished,
          static_cast<long long>(stats.outage_durations_s.size()));
  check_u("feedback deliveries", count(sim::EventKind::kReportDelivered),
          static_cast<long long>(stats.feedback_delays_s.size()));
  check_u("latency-histogram count", tally_.latency_count,
          stats.successful_handovers);
  check_u("cascade jobs injected", tally_.cascade_jobs,
          stats.cascade_jobs_injected);
  // Queue waits accumulate the identical doubles in the identical event
  // order on both sides — bit-exact, like the RTT sum.
  if (tally_.bs_queue_wait_sum_s != stats.bs_queue_wait_sum_s)
    out.push_back("BS queue wait sum: trace " +
                  fmt_double(tally_.bs_queue_wait_sum_s) + " vs stats " +
                  fmt_double(stats.bs_queue_wait_sum_s));
  // Both sides accumulate the identical RTT doubles in event order, so the
  // sums must match bit-exactly, like the outage-duration sum below.
  if (tally_.prep_rtt_sum_s != stats.prep_rtt_sum_s)
    out.push_back("prep RTT sum: trace " + fmt_double(tally_.prep_rtt_sum_s) +
                  " vs stats " + fmt_double(stats.prep_rtt_sum_s));
  // Durations use the same subtraction of the same event timestamps the
  // simulator used, so the sums must match bit-exactly, not approximately.
  double stats_outage_sum = 0.0;
  for (double v : stats.outage_durations_s) stats_outage_sum += v;
  if (tally_.outage_sum_s != stats_outage_sum)
    out.push_back("outage duration sum: trace " +
                  fmt_double(tally_.outage_sum_s) + " vs stats " +
                  fmt_double(stats_outage_sum));
  return out;
}

void SpanTracer::write_trace_jsonl(std::ostream& os,
                                   const std::string& context) const {
  for (const auto& s : spans_) {
    os << "{";
    if (!context.empty()) os << context << ", ";
    if (ue_ >= 0) os << "\"ue\": " << ue_ << ", ";
    os << "\"kind\": \"" << s.kind << "\", \"start_s\": \""
       << fmt_double(s.start_s) << "\", \"end_s\": \"" << fmt_double(s.end_s)
       << "\", \"serving\": " << s.serving << ", \"target\": " << s.target
       << ", \"outcome\": \"" << s.outcome << "\"";
    if (s.report_retransmits > 0)
      os << ", \"retransmits\": " << s.report_retransmits;
    if (s.prep_retries > 0) os << ", \"prep_retries\": " << s.prep_retries;
    if (s.used_fallback) os << ", \"used_fallback\": true";
    if (s.duplicate_command) os << ", \"duplicate_command\": true";
    if (s.admission_rejected) os << ", \"admission_rejected\": true";
    if (s.admission_retries > 0)
      os << ", \"admission_retries\": " << s.admission_retries;
    os << ", \"phases\": [";
    for (std::size_t i = 0; i < s.phases.size(); ++i) {
      const auto& p = s.phases[i];
      os << (i ? ", " : "") << "{\"name\": \"" << p.name
         << "\", \"start_s\": \"" << fmt_double(p.start_s)
         << "\", \"end_s\": \"" << fmt_double(p.end_s) << "\"}";
    }
    os << "]";
    if (!s.faults.empty()) {
      os << ", \"faults\": [";
      for (std::size_t i = 0; i < s.faults.size(); ++i)
        os << (i ? ", " : "") << "\"" << s.faults[i] << "\"";
      os << "]";
    }
    os << "}\n";
  }
}

}  // namespace rem::obs
