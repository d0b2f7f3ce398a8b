// Descriptive statistics and empirical CDFs for the evaluation harness.
//
// Not thread-safe: a Summary belongs to one thread (or one seed's run).
// Even const queries mutate the lazily sorted cache, so concurrent readers
// race — the seed-parallel runner keeps one Summary per seed and merges
// after the pool drains. For lock-free aggregation across threads use
// obs::Histogram instead (fixed buckets, relaxed atomics).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rem::common {

/// Accumulates scalar samples and answers summary queries. Samples are kept
/// so percentiles/CDFs are exact (datasets here are at most a few million
/// points).
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by linear interpolation, p in [0,100].
  /// On an empty Summary mean() and stddev() return 0, while min(), max()
  /// and percentile() throw std::runtime_error; callers gate on empty().
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Fraction of samples <= x (empirical CDF evaluated at x).
  double cdf_at(double x) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// A (value, cumulative fraction) pair of an empirical CDF.
struct CdfPoint {
  double value;
  double fraction;  // in [0,1]
};

/// Evaluate the empirical CDF of `samples` on `num_points` evenly spaced
/// values between min and max. Returns an empty vector for empty input.
std::vector<CdfPoint> empirical_cdf(const std::vector<double>& samples,
                                    std::size_t num_points = 50);

/// Render a CDF as aligned text rows ("value fraction") for bench output.
std::string format_cdf(const std::vector<CdfPoint>& cdf,
                       const std::string& value_label,
                       const std::string& indent = "  ");

}  // namespace rem::common
