// Small shared helpers: wall-clock timing, percentiles, output digests,
// peak RSS, and the metric list printed as the run's last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "layout/squish.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Streaming FNV-1a 64 (over 8-byte words) of pattern bytes (topology cells, dx, dy) — the
/// per-workload output digest two runs or two commits compare byte for byte.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(const diffpattern::layout::SquishPattern& pattern);
  void add(const std::vector<diffpattern::layout::SquishPattern>& patterns);
  std::uint64_t value() const { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string hex64(std::uint64_t value);

/// Peak resident set size of this process so far (getrusage ru_maxrss), MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints `name = value unit` lines as metrics are added, and the final
/// one-line JSON result object.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  void print_result(bool correct, std::int64_t attempted,
                    std::int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
