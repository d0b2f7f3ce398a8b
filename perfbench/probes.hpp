// Measurement plumbing shared by the perfbench workloads: a monotonic
// clock, per-layer call totals, an in-memory span log, the two timing
// decorators that measure the engine's layers from outside it, and the
// block clock that times an untraced fleet run in fixed slices.
//
// Nothing here reaches into the engine. TimedManager forwards every
// sim::MobilityManager virtual to the wrapped manager and TimedObserver
// forwards every sim::SimObserver hook to the wrapped observer, so
// run_fleet's make_manager factory and the SimConfig::observer slot take
// them unchanged; the benchmark checks that a decorated run's aggregate
// SimStats digest equals the undecorated run's.
#pragma once

#include "sim/observer.hpp"
#include "sim/simulator.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace phy = rem::phy;
namespace sim = rem::sim;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Summed wall time and call count of one layer entry point.
struct LayerTotal {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  double ns_per_call() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls)
                     : 0.0;
  }
};

/// Spans kept in memory and written as JSON Lines when the benchmark ends.
/// A span has a name, start, end and parent; every span of one fleet run
/// (or one replay block) shares a run id. Leaf spans around decorated
/// calls are sampled 1 in `sample_every` calls; the totals still count
/// every call.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int id;
    int parent;
    int run;
  };

  explicit SpanLog(std::uint64_t sample_every) : sample_every_(sample_every) {
    spans_.reserve(1 << 16);
  }

  /// Open a root span for a new run; returns its span id.
  int begin_run(const char* name) {
    current_run_ = next_run_++;
    current_root_ = add(name, now_ns(), 0, -1);
    return current_root_;
  }
  void end_run() {
    if (current_root_ >= 0) spans_[current_root_].end_ns = now_ns();
    current_root_ = -1;
  }

  /// True for the calls whose spans are kept.
  bool sample(std::uint64_t call_index) const {
    return call_index % sample_every_ == 0;
  }
  void leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    add(name, start_ns, end_ns, current_root_);
  }

  std::size_t size() const { return spans_.size(); }
  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  int add(const char* name, std::int64_t s, std::int64_t e, int parent) {
    spans_.push_back({name, s, e, static_cast<int>(spans_.size()), parent,
                      current_run_});
    return spans_.back().id;
  }

  std::uint64_t sample_every_;
  std::vector<Span> spans_;
  int next_run_ = 0;
  int current_run_ = -1;
  int current_root_ = -1;
};

/// Totals the manager decorators of one manager family accumulate.
struct ManagerTotals {
  LayerTotal update;
  LayerTotal other;  ///< visible_cells + on_serving_changed
  std::uint64_t observation_rows = 0;
};

/// Forwarding sim::MobilityManager that times update(), visible_cells()
/// and on_serving_changed() of the wrapped manager. Every virtual is
/// forwarded — client_driven() included, which routes a decision around
/// the BS queue — so a decorated run behaves exactly like a bare one.
class TimedManager final : public sim::MobilityManager {
 public:
  TimedManager(std::unique_ptr<sim::MobilityManager> inner,
               ManagerTotals& totals, SpanLog& spans, const char* span_name)
      : inner_(std::move(inner)),
        totals_(totals),
        spans_(spans),
        span_name_(span_name) {}

  std::string name() const override { return inner_->name(); }
  phy::Waveform waveform() const override { return inner_->waveform(); }
  std::optional<sim::HandoverDecision> update(
      double t, const sim::ServingState& serving,
      const std::vector<sim::Observation>& neighbors) override {
    const std::int64_t t0 = now_ns();
    auto decision = inner_->update(t, serving, neighbors);
    const std::int64_t t1 = now_ns();
    if (spans_.sample(totals_.update.calls)) spans_.leaf(span_name_, t0, t1);
    totals_.update.ns += t1 - t0;
    ++totals_.update.calls;
    totals_.observation_rows += neighbors.size();
    return decision;
  }
  std::set<std::size_t> visible_cells() const override {
    const std::int64_t t0 = now_ns();
    auto cells = inner_->visible_cells();
    totals_.other.ns += now_ns() - t0;
    ++totals_.other.calls;
    return cells;
  }
  void on_serving_changed(double t, std::size_t new_idx) override {
    const std::int64_t t0 = now_ns();
    inner_->on_serving_changed(t, new_idx);
    totals_.other.ns += now_ns() - t0;
    ++totals_.other.calls;
  }
  bool degraded_mode() const override { return inner_->degraded_mode(); }
  bool client_driven() const override { return inner_->client_driven(); }

 private:
  std::unique_ptr<sim::MobilityManager> inner_;
  ManagerTotals& totals_;
  SpanLog& spans_;
  const char* span_name_;
};

/// Totals one kind of per-UE observer (all UEs' instances) accumulates.
struct ObserverTotals {
  LayerTotal events;  ///< on_event
  LayerTotal ticks;   ///< on_tick
  LayerTotal other;   ///< on_ue + on_run_end
  std::int64_t ns() const { return events.ns + ticks.ns + other.ns; }
};

/// Forwarding sim::SimObserver that times every hook of the wrapped
/// observer.
class TimedObserver final : public sim::SimObserver {
 public:
  TimedObserver(sim::SimObserver& inner, ObserverTotals& totals,
                SpanLog& spans, const char* span_name)
      : inner_(inner), totals_(totals), spans_(spans), span_name_(span_name) {}

  void on_ue(int ue) override {
    const std::int64_t t0 = now_ns();
    inner_.on_ue(ue);
    totals_.other.ns += now_ns() - t0;
    ++totals_.other.calls;
  }
  void on_event(const sim::SignalingEvent& event) override {
    const std::int64_t t0 = now_ns();
    inner_.on_event(event);
    const std::int64_t t1 = now_ns();
    totals_.events.ns += t1 - t0;
    ++totals_.events.calls;
  }
  void on_tick(const sim::TickView& view) override {
    const std::int64_t t0 = now_ns();
    inner_.on_tick(view);
    const std::int64_t t1 = now_ns();
    if (spans_.sample(totals_.ticks.calls)) spans_.leaf(span_name_, t0, t1);
    totals_.ticks.ns += t1 - t0;
    ++totals_.ticks.calls;
  }
  void on_run_end(sim::SimStats& stats) override {
    const std::int64_t t0 = now_ns();
    inner_.on_run_end(stats);
    totals_.other.ns += now_ns() - t0;
    ++totals_.other.calls;
  }

 private:
  sim::SimObserver& inner_;
  ObserverTotals& totals_;
  SpanLog& spans_;
  const char* span_name_;
};

/// Forwarding sim::SimObserver that stamps the clock every
/// `ticks_per_block` simulated ticks, counted on UE 0's on_tick (one per
/// fleet tick). Runs of the same world stamp the same simulated instants,
/// so block i of one repetition does the same work as block i of another.
class BlockClock final : public sim::SimObserver {
 public:
  BlockClock(sim::SimObserver& inner, std::uint64_t ticks_per_block,
             std::vector<std::int64_t>& stamps)
      : inner_(inner), ticks_per_block_(ticks_per_block), stamps_(stamps) {}

  void on_ue(int ue) override { inner_.on_ue(ue); }
  void on_event(const sim::SignalingEvent& event) override {
    inner_.on_event(event);
  }
  void on_tick(const sim::TickView& view) override {
    inner_.on_tick(view);
    if (view.ue == 0 && ++ticks_ % ticks_per_block_ == 0)
      stamps_.push_back(now_ns());
  }
  void on_run_end(sim::SimStats& stats) override { inner_.on_run_end(stats); }

 private:
  sim::SimObserver& inner_;
  std::uint64_t ticks_per_block_;
  std::uint64_t ticks_ = 0;
  std::vector<std::int64_t>& stamps_;
};

/// Everything one workload run reports: the contract fields, metrics with
/// units, and free-form provenance/detail entries (values pre-encoded as
/// JSON). main.cpp prints it as the run's last stdout line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void info_num(std::string key, double value);
  void info_str(std::string key, const std::string& value);
  /// Record a failed correctness check (the run is then not correct).
  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still run every code path (benchmark self-test).
  bool tiny = false;
  /// Self-test fault: "invariant", "digest" or "mismatch" (empty = none).
  std::string inject;
  std::string scenario_dir;
  /// Where a traced run writes its spans (JSON Lines); empty = nowhere.
  std::string span_out;
};

/// JSON string literal for `s` (quotes and escapes included).
std::string json_quote(const std::string& s);

/// Median and quartiles (Python statistics.quantiles, exclusive method).
struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};
Spread spread_of(std::vector<double> v);
/// The q-quantile of `v` by the same method (0 for an empty vector).
double quantile_of(std::vector<double> v, double q);

/// Sum over blocks of each block's fastest time across repetitions:
/// `reps[r][b]` is block b's time in repetition r, and every repetition
/// has the same blocks. A shared host only ever adds delay to a block, so
/// the fastest of several is the steadiest estimate of its own cost.
double sum_of_block_minima(const std::vector<std::vector<double>>& reps);

/// Wall time of one slice of a fixed reference computation (random
/// table updates, square roots and branches; no engine code).
double reference_slice_s();

/// How much slower than nominal the host ran during a run, from reference
/// slices timed throughout it: each figure is a quantile of the slice
/// times over its typical value on the 4-thread VM the benchmark was
/// written on (0.70 ms for the 5% quantile, 1.0 ms for the median, each
/// the median over 30 runs of 30 s). The shared host slows whole
/// runs by up to 40% for minutes at a time, which no statistic of the
/// run's own timings can remove; the reported metrics are scaled to the
/// nominal machine by the figure timed the same way they are.
struct SpeedScale {
  double fast = 1.0;     ///< 5% quantile: scales fastest-slice times
  double typical = 1.0;  ///< median: scales median times
};
SpeedScale speed_scale(const std::vector<double>& reference_slices_s);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// FNV-1a over a string (the benchmark's digest of ordered stats fields).
std::uint64_t fnv1a(const std::string& s);

}  // namespace perfbench
