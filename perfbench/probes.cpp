#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"run\": " << s.run << ", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}\n";
  }
  return static_cast<bool>(os);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::info_num(std::string key, double value) {
  char buf[64];
  if (std::isfinite(value))
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  else
    std::snprintf(buf, sizeof(buf), "null");
  info.emplace_back(std::move(key), buf);
}

void Report::info_str(std::string key, const std::string& value) {
  info.emplace_back(std::move(key), json_quote(value));
}

namespace {

/// Value at 1-based fractional rank `pos` of sorted `v`, clamped to its
/// ends (the interpolation of Python's statistics.quantiles).
double at_rank(const std::vector<double>& v, double pos) {
  pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (lo >= v.size()) return v.back();
  return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
}

}  // namespace

Spread spread_of(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const double n1 = static_cast<double>(v.size() + 1);
  s.median = at_rank(v, n1 * 0.5);
  s.q1 = at_rank(v, n1 * 0.25);
  s.q3 = at_rank(v, n1 * 0.75);
  return s;
}

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return at_rank(v, static_cast<double>(v.size() + 1) * q);
}

double sum_of_block_minima(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return 0.0;
  std::vector<double> best = reps.front();
  for (const auto& rep : reps)
    for (std::size_t b = 0; b < best.size() && b < rep.size(); ++b)
      best[b] = std::min(best[b], rep[b]);
  double total = 0.0;
  for (const double t : best) total += t;
  return total;
}

double reference_slice_s() {
  static std::vector<std::uint32_t> table(1 << 16, 1u);
  static volatile double sink = 0.0;
  std::uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& t = table[x & 0xffff];
    t += static_cast<std::uint32_t>(x >> 32);
    if (t & 1u)
      acc += std::sqrt(static_cast<double>(t & 1023u));
    else
      acc -= 0.5;
  }
  sink = sink + acc;
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

SpeedScale speed_scale(const std::vector<double>& reference_slices_s) {
  constexpr double kNominalFastS = 0.70e-3;
  constexpr double kNominalTypicalS = 1.0e-3;
  SpeedScale s;
  if (reference_slices_s.empty()) return s;
  s.fast = quantile_of(reference_slices_s, 0.05) / kNominalFastS;
  s.typical = quantile_of(reference_slices_s, 0.5) / kNominalTypicalS;
  return s;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: Linux carries the parent's RSS at fork across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
