// Trace-style network simulator: a client rides a rail line through the
// deployment while a pluggable mobility manager (legacy 4G/5G or REM) runs
// triggering, decision, and execution. The simulator owns the parts both
// designs share — radio dynamics, signaling transport with HARQ/ARQ
// attempts, radio-link-failure detection (N310/T310/N311 counters),
// handover execution with a T304-style failure timer, re-establishment —
// and classifies every failure into the Table 2 taxonomy. A seeded
// FaultInjector can distort any of those paths (sim/fault_injector.hpp).
#pragma once

#include "net/backhaul.hpp"
#include "phy/bler_model.hpp"
#include "sim/bs_capacity.hpp"
#include "sim/events.hpp"
#include "sim/fault_injector.hpp"
#include "sim/observer.hpp"
#include "sim/radio_env.hpp"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rem::sim {

/// What the manager sees about one candidate cell this tick.
struct Observation {
  std::size_t cell_idx = 0;
  mobility::CellId id;
  double rsrp_dbm = -160.0;   ///< instantaneous (fast-fading) RSRP
  double snr_db = -40.0;      ///< SNR of that RSRP (direct measurement)
  double dd_snr_db = -40.0;   ///< stable delay-Doppler SNR
  double bandwidth_hz = 20e6; ///< cell bandwidth (capacity-based policies)
  /// Age of the delay-Doppler estimate behind `dd_snr_db`. 0 while pilots
  /// are fresh; grows during a pilot outage, when `dd_snr_db` is the last
  /// good value plus corruption. Managers use it to detect staleness.
  double estimate_age_s = 0.0;
  bool pilot_faulted = false; ///< a pilot-outage fault is active this tick
  /// Last load advertisement heard from this cell over the backhaul
  /// (utilization in [0, 1]); -1 while unknown or older than
  /// SimConfig::load_ad_staleness_s. Managers may tie-break toward
  /// less-loaded candidates but must never widen the candidate set on it.
  double advertised_load = -1.0;
  /// This UE's per-target circuit breaker is open for the cell: recent
  /// consecutive preparation failures/busy-rejects, cool-down not yet
  /// elapsed. Managers must not select it as a handover target.
  bool breaker_open = false;
};

struct ServingState {
  std::size_t cell_idx = 0;
  mobility::CellId id;
  double rsrp_dbm = -160.0;
  double dd_snr_db = -40.0;
  double snr_db = -40.0;      ///< instantaneous link SNR (drives BLER)
  double bandwidth_hz = 20e6;
};

/// A manager's handover decision: measured/estimated feedback is ready
/// `feedback_delay_s` after the triggering tick. `fallback_idx` names the
/// second-best policy-consistent target (-1 = none): if the primary
/// target rejects admission or the backhaul partitions during
/// preparation, the simulator retries preparation toward the fallback
/// before declaring the attempt failed.
struct HandoverDecision {
  std::size_t target_idx = 0;
  double feedback_delay_s = 0.0;
  int fallback_idx = -1;
};

/// The pluggable mobility management design under test.
class MobilityManager {
 public:
  virtual ~MobilityManager() = default;
  virtual std::string name() const = 0;
  /// Waveform carrying this design's signaling (sets its loss behaviour).
  virtual phy::Waveform waveform() const = 0;
  /// Per-tick policy evaluation. Returns a decision at most once per
  /// handover attempt; the simulator handles delivery and execution.
  virtual std::optional<HandoverDecision> update(
      double t, const ServingState& serving,
      const std::vector<Observation>& neighbors) = 0;
  /// Cells the manager is currently able to measure/estimate (classifies
  /// "missed cell" failures). Indices into RadioEnv::cells().
  virtual std::set<std::size_t> visible_cells() const = 0;
  /// Serving cell changed (handover completed or re-established).
  virtual void on_serving_changed(double t, std::size_t new_idx) = 0;
  /// True while the manager has fallen back from its preferred input to a
  /// degraded one (e.g. REM bypassing stale cross-band estimates). The
  /// simulator samples this every tick to log degraded-mode enter/exit.
  virtual bool degraded_mode() const { return false; }
  /// True when the handover decision is computed on the client (REM's
  /// design): the decision then bypasses the serving BS's control-plane
  /// processing queue, so a BS overload cannot stall or shed it. Legacy
  /// network-side designs leave this false and pay BS capacity for every
  /// decision (the paper's degraded-mode asymmetry, made measurable).
  virtual bool client_driven() const { return false; }
};

/// Inert: the simulator always runs its one tick loop, and nothing reads
/// this. It is kept only because perfbench/fleet_workloads.cpp:163, whose
/// directory the benchmark definition (BENCHMARK.json) fixes, assigns
/// SimConfig::engine. Delete the enum and the field together with that
/// line when the benchmark is next redefined.
enum class SimEngine {
  kTickLoop,
  kEventQueue,
};

/// One mobility class of a mixed-speed fleet population: `count` UEs
/// drawing their speed uniformly from [speed_lo_kmh, speed_hi_kmh].
/// Compiled scenarios (rem::scenario) map the paper's pedestrian /
/// vehicular / HST-350 populations onto these bands.
struct FleetSpeedClass {
  std::string name;        ///< label for diagnostics ("pedestrian", ...)
  int count = 0;           ///< UEs of this class (UE 0 fills the first slot)
  double speed_lo_kmh = 200.0;
  double speed_hi_kmh = 350.0;
};

/// Multi-UE fleet knobs (Simulator::run_fleet). UE 0 always uses the
/// scenario's SimConfig::speed_kmh and starts at position 0 — and draws
/// nothing extra — so a fleet of one is bit-identical to a single-UE
/// run(). Every further UE forks its own RNG stream from the simulation
/// RNG (in UE-id order) and derives a mixed speed and start offset from
/// that stream's first draws.
struct FleetConfig {
  /// Speed range (km/h) for UE 1..N-1, drawn uniformly per UE. Ignored
  /// when `classes` is non-empty.
  double speed_min_kmh = 200.0;
  double speed_max_kmh = 350.0;
  /// Start-position spread (m): UE 1..N-1 begin uniformly in [0, spread).
  double start_spread_m = 2000.0;
  /// Mixed-speed population: when non-empty, the class counts must sum to
  /// SimConfig::fleet_size and UE k takes the class whose cumulative count
  /// covers k (classes fill in order). UE 0 still rides the scenario's
  /// exact speed_kmh without drawing — its slot belongs to the first
  /// class — and every other UE draws one uniform speed from its class
  /// band, so the per-UE draw count (and therefore the RNG contract of
  /// run_fleet) is identical to the single-band path. Empty (the default)
  /// preserves the [speed_min_kmh, speed_max_kmh] behaviour bit-for-bit.
  std::vector<FleetSpeedClass> classes;
};

enum class FailureCause {
  kFeedbackDelayLoss,  ///< feedback too slow or lost in delivery (§3.1)
  kMissedCell,         ///< viable cell invisible to the decision (§3.2)
  kHoCommandLoss,      ///< handover command lost in delivery (§3.3)
  kCoverageHole,       ///< nothing to hand over to
};

/// Table 2 row label. Throws std::invalid_argument on a value outside the
/// enum instead of returning a placeholder.
std::string failure_cause_name(FailureCause c);

struct SimConfig {
  double speed_kmh = 300.0;
  double duration_s = 2000.0;
  double tick_s = 0.010;
  /// Radio link failure detection, N310/T310/N311 style: `n310`
  /// consecutive ticks with serving SNR below `qout_snr_db` start T310;
  /// RLF is declared when T310 runs for `t310_s`, unless `n311`
  /// consecutive in-sync ticks (SNR >= qout + `qin_margin_db`) cancel it.
  /// Defaults reproduce the seed's single 0.5 s Qout timer at tick 10 ms.
  double qout_snr_db = -7.0;
  int n310 = 5;
  double t310_s = 0.45;
  int n311 = 3;
  double qin_margin_db = 1.0;
  /// Minimum mean RSRP for a cell to count as coverage.
  double min_coverage_rsrp_dbm = -120.0;
  /// Minimum SNR for a handover execution to succeed at the target.
  double min_connect_snr_db = -6.0;
  /// Re-establishment after RLF: search + connect time.
  double reestablish_s = 0.8;
  /// Handover-execution failure (T304 analogue): when the target cannot
  /// be connected at execution time, fall back to re-establishment on the
  /// prepared target, which is faster than a full RLF search because the
  /// target already holds the UE context.
  double t304_reestablish_s = 0.3;
  /// Signaling transport: attempts (HARQ/ARQ) and per-attempt spacing.
  int uplink_attempts = 2;
  int downlink_attempts = 1;  // commands are time-critical (no ARQ window)
  double retry_spacing_s = 0.008;
  /// Lost measurement reports are retransmitted with bounded exponential
  /// backoff (base delay doubles per retry) before counting as lost.
  int report_max_retries = 3;
  double report_retry_backoff_s = 0.04;
  /// Base-station processing between feedback arrival and HO command.
  double decision_proc_s = 0.050;
  /// Execution interruption (detach + random access on target).
  double ho_interruption_s = 0.050;
  /// Ping-pong window: A->B->A within this window counts as a loop.
  double loop_window_s = 15.0;
  /// After a completed handover, suppress new decisions briefly (standard
  /// post-handover measurement blanking).
  double post_ho_suppress_s = 0.3;
  /// Record a per-event signaling log (SimStats::events) — the simulated
  /// analogue of the paper's MobileInsight captures.
  bool record_events = false;
  /// Optional non-owning observation hook (sim/observer.hpp): receives the
  /// event stream, per-tick state snapshots, and the final stats. Used by
  /// rem::testkit::InvariantChecker; never changes simulation results.
  SimObserver* observer = nullptr;
  /// Fault schedule (empty = no faults, zero overhead on the hot path).
  FaultConfig faults;
  /// Inter-BS control-plane transport (rem::net). When enabled, handover
  /// preparation (HANDOVER REQUEST/ACK) and outage context fetch ride a
  /// lossy, delayed message network; when disabled, preparation is
  /// instantaneous and infallible (the pre-backhaul behaviour).
  net::BackhaulConfig backhaul;
  /// Preparation timer (T-prep analogue): if no ack/reject arrives within
  /// `prep_timeout_s` of the HANDOVER REQUEST, re-send with exponential
  /// backoff (timeout doubles per retry) up to `prep_max_retries` times,
  /// then try the decision's fallback target, then fail the attempt.
  double prep_timeout_s = 0.030;
  int prep_max_retries = 4;
  /// Context fetch during RLF re-establishment: the new cell asks the old
  /// serving cell for the UE context over the backhaul. Retries use the
  /// same exponential-backoff shape; exhaustion forces a context-less
  /// degraded re-establishment that costs `ctx_degraded_penalty_s` extra.
  double ctx_fetch_timeout_s = 0.040;
  int ctx_fetch_max_retries = 3;
  double ctx_degraded_penalty_s = 0.4;
  /// Per-BS control-plane capacity (sim/bs_capacity.hpp): processing
  /// slots + bounded FIFO signaling queue consumed by prep admission,
  /// context lookups, and network-side RRC decisions. Disabled restores
  /// the infinite-capacity, always-alive BS model.
  BsCapacityConfig bs_capacity;
  // --- Cascade resilience (all default-off: zero behavioural change and
  // --- zero extra RNG draws unless a scenario opts in) ---
  /// Staleness bound (s) for per-BS load advertisements piggybacked on
  /// backhaul control frames. > 0 enables the feature: every frame a BS
  /// sends carries its control-plane utilization, the UE keeps the latest
  /// per-cell value, and Observation::advertised_load exposes it while it
  /// is younger than this bound (stale values read as unknown). 0 (the
  /// default) disables advertisement entirely.
  double load_ad_staleness_s = 0.0;
  /// Per-target circuit breaker: trip after this many *consecutive*
  /// preparation failures/busy-rejects toward one target cell, then
  /// refuse it (Observation::breaker_open) until `breaker_cooldown_s`
  /// elapses, when one half-open probe preparation is allowed — success
  /// closes the breaker, failure re-trips it. 0 (the default) disables.
  int breaker_trip_k = 0;
  double breaker_cooldown_s = 2.0;
  /// Storm damping: scale every admission-backoff retry delay by a
  /// deterministic per-UE jitter in [1, 1 + storm_jitter_frac), drawn
  /// from the UE's own RNG stream, so a displaced fleet's retries
  /// desynchronize instead of hammering the next BS in lockstep. 0 (the
  /// default) draws nothing and keeps the legacy timing bit-for-bit.
  double storm_jitter_frac = 0.0;
  /// Inert (see SimEngine): nothing in the simulator reads it.
  SimEngine engine = SimEngine::kTickLoop;
  /// Number of UEs a run_fleet() carries. run() ignores it; run_fleet()
  /// rejects values < 1. UEs genuinely share BsStation slots, RRC queues,
  /// and the backhaul's in-flight capacity.
  int fleet_size = 1;
  /// Per-UE speed/start derivation for run_fleet().
  FleetConfig fleet;
};

struct SimStats {
  double sim_time_s = 0.0;
  int handovers = 0;              ///< attempts (success + failure)
  int successful_handovers = 0;
  int failures = 0;               ///< network failures (RLF events)
  std::map<FailureCause, int> failures_by_cause;
  int loop_handovers = 0;         ///< handovers that are part of a loop
  int loop_episodes = 0;
  int intra_freq_loop_episodes = 0;
  /// Loop episodes whose cell pair has a *policy conflict* (per the exact
  /// analyzer) — the paper's "handovers in conflicts" metric. Requires a
  /// pair_conflicts predicate at run() time.
  int conflict_loop_episodes = 0;
  int conflict_loop_handovers = 0;
  int intra_freq_conflict_loops = 0;
  double avg_handover_interval_s = 0.0;
  std::vector<double> outage_durations_s;  ///< per RLF, until re-established
  std::vector<double> feedback_delays_s;
  // --- Recovery-path accounting (fault injection / hardened FSM) ---
  int report_retransmits = 0;     ///< lost reports re-sent with backoff
  int t304_expiries = 0;          ///< handover executions that failed
  int t304_fallback_success = 0;  ///< ...re-established on prepared target
  int duplicate_commands = 0;     ///< stale duplicate commands executed
  int degraded_enters = 0;        ///< manager degraded-mode transitions
  double degraded_time_s = 0.0;   ///< total time in degraded mode
  // --- Backhaul preparation / context fetch (rem::net transport) ---
  int prep_requests = 0;          ///< HANDOVER REQUESTs first-sent
  int prep_retries = 0;           ///< timed-out requests re-sent
  int prep_acks = 0;              ///< preparations admitted by the target
  int prep_rejects = 0;           ///< admission rejections received
  int prep_fallbacks = 0;         ///< switches to the fallback target
  int prep_failures = 0;          ///< attempts abandoned in preparation
  double prep_rtt_sum_s = 0.0;    ///< summed request->ack round trips
  int context_fetch_failures = 0; ///< outage context fetches exhausted
  // Transport-level counters mirrored from net::TransportStats.
  std::uint64_t backhaul_sent = 0;
  std::uint64_t backhaul_delivered = 0;
  std::uint64_t backhaul_dropped_loss = 0;
  std::uint64_t backhaul_dropped_partition = 0;
  std::uint64_t backhaul_dropped_queue = 0;
  std::uint64_t backhaul_dropped_crash = 0;
  std::uint64_t backhaul_duplicated = 0;
  std::uint64_t backhaul_reordered = 0;
  double backhaul_latency_sum_s = 0.0;
  // --- BS capacity model (sim/bs_capacity.hpp) ---
  // Conservation: bs_jobs_submitted == bs_jobs_served + bs_queue_shed +
  // bs_jobs_flushed + bs_jobs_inflight_end (background jobs excluded
  // throughout; they consume capacity but are not UE-visible work).
  int bs_jobs_submitted = 0;      ///< UE jobs offered to a station
  int bs_jobs_served = 0;         ///< jobs whose service completed
  int bs_jobs_queued = 0;         ///< served jobs that had to wait
  int bs_queue_shed = 0;          ///< jobs shed on a full signaling queue
  int bs_jobs_flushed = 0;        ///< queued jobs lost to a BS crash
  int bs_jobs_inflight_end = 0;   ///< still scheduled at the horizon
  double bs_queue_wait_sum_s = 0.0;  ///< summed wait over served jobs
  int admission_rejects = 0;      ///< busy-rejects received by the source
  int admission_backoff_retries = 0;  ///< hint-honoring re-attempts
  int bs_crashes = 0;             ///< BS deaths (crash windows + region
                                  ///< outage members); global in fleets
  int bs_crash_dropped_msgs = 0;  ///< signaling addressed to a dead BS
  int stale_context_responses = 0;  ///< context fetches answered stale
  // --- Correlated faults / cascade resilience ---
  // World-global like bs_crashes (every UE of a fleet counts the same
  // cascade events; merge takes the max and the fleet report checks
  // agreement): cascade_jobs_injected / cascade_activations. Genuinely
  // per-UE (merge sums them): every breaker_* and load_ad_* counter.
  int cascade_jobs_injected = 0;  ///< background jobs injected by cascade
  int cascade_activations = 0;    ///< neighbor top-up events (kCascadeInject)
  int breaker_trips = 0;          ///< per-target breakers opened
  int breaker_probes = 0;         ///< half-open probe preparations allowed
  int breaker_closes = 0;         ///< probes that closed a breaker
  int breaker_skips = 0;          ///< candidate cells hidden while open
  int load_ads_received = 0;      ///< load advertisements applied
  int storm_jitter_applied = 0;   ///< backoff retries jittered
  /// Oldest advertisement actually exposed to a manager (age at use, s);
  /// the invariant checker asserts <= load_ad_staleness_s.
  double load_ad_age_max_s = 0.0;
  /// Data-plane accounting (§8 "On data speed"): Shannon capacity of the
  /// serving link averaged over the whole run (zero while in outage) and
  /// the fraction of time without radio connectivity.
  double mean_throughput_bps = 0.0;
  double downtime_fraction = 0.0;
  /// Serving-link SNR samples from the 5 s windows preceding each failure
  /// (decimated) — the Fig. 2b signaling-loss analysis window.
  std::vector<double> pre_failure_snrs_db;
  /// Cross-cutting invariant violations found by an attached
  /// rem::testkit::InvariantChecker (written in its on_run_end); 0 when no
  /// checker was attached or the run was clean.
  int invariant_violations = 0;
  /// Per-event signaling log (only when SimConfig::record_events).
  EventLog events;

  double failure_ratio() const {
    const int denom = handovers + failures;
    return denom > 0 ? static_cast<double>(failures) / denom : 0.0;
  }
  double failure_ratio_excluding_holes() const;
  double loop_frequency_s() const {
    return loop_episodes > 0 ? sim_time_s / loop_episodes : 0.0;
  }
};

/// Result of a fleet run: one SimStats per UE (indexed by UE id) plus the
/// deterministic aggregate merged in UE-id order (sim/fleet.hpp —
/// merge_fleet_stats documents which fields sum and which are global).
struct FleetResult {
  std::vector<SimStats> per_ue;
  SimStats aggregate;
};

class Simulator {
 public:
  Simulator(const RadioEnv& env, const SimConfig& cfg,
            const phy::BlerModel& bler, common::Rng rng);

  /// Run the full scenario with the given manager and return statistics.
  /// `pair_conflicts(cell_a, cell_b)` (CellId::cell values) marks loop
  /// episodes caused by policy conflicts; pass an empty function to skip.
  /// Runs on the tick loop (one world step, then the UE's step, per tick)
  /// and never fires SimObserver::on_ue. Throws std::invalid_argument
  /// unless tick_s is finite and > 0 and duration_s finite and >= 0.
  SimStats run(MobilityManager& manager,
               const std::function<bool(int, int)>& pair_conflicts = {});

  /// Multi-UE fleet run on the same tick loop as run(): at each tick the
  /// world steps once, then UE 0..N-1 in order. cfg.fleet_size UEs share the
  /// radio environment, BsStation capacity, and backhaul transport, each
  /// with its own manager built by `make_manager(ue)` (called in UE-id
  /// order). UE 0 runs the scenario's exact single-UE parameters and RNG
  /// stream, so a fleet of one is bit-identical to run(); UEs 1..N-1
  /// derive mixed speeds and start offsets from per-UE forked streams
  /// (SimConfig::fleet). Per-UE stats come back indexed by UE id with the
  /// deterministic aggregate merged in UE-id order (sim/fleet.hpp).
  /// Throws std::invalid_argument when cfg.fleet_size < 1, make_manager
  /// returns nullptr, or the clock is bad (as for run()).
  FleetResult run_fleet(
      const std::function<std::unique_ptr<MobilityManager>(int)>&
          make_manager,
      const std::function<bool(int, int)>& pair_conflicts = {});

 private:
  const RadioEnv& env_;
  SimConfig cfg_;
  const phy::BlerModel& bler_;
  common::Rng rng_;
};

}  // namespace rem::sim
