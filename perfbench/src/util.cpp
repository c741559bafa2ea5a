#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Digest::add_bytes(const void* data, std::size_t size) {
  // FNV-1a over 8-byte words (zero-padded tail): every byte reaches the
  // hash at an eighth of the byte-wise cost; ~15k patterns per
  // legalize_sweep response are digested between calls.
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof(word));
    add(word);
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, size - i);
    add(word);
  }
}

void Digest::add(std::uint64_t word) {
  hash_ ^= word;
  hash_ *= 1099511628211ULL;
}

void Digest::add(const diffpattern::layout::SquishPattern& pattern) {
  const auto& cells = pattern.topology.cells();
  add(static_cast<std::uint64_t>(pattern.topology.rows()));
  add(static_cast<std::uint64_t>(pattern.topology.cols()));
  add_bytes(cells.data(), cells.size());
  add_bytes(pattern.dx.data(), pattern.dx.size() * sizeof(pattern.dx[0]));
  add_bytes(pattern.dy.data(), pattern.dy.size() * sizeof(pattern.dy[0]));
}

void Digest::add(
    const std::vector<diffpattern::layout::SquishPattern>& patterns) {
  add(static_cast<std::uint64_t>(patterns.size()));
  for (const auto& p : patterns) {
    add(p);
  }
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

void MetricSink::add(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("metric %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

void MetricSink::print_result(bool correct, std::int64_t attempted,
                              std::int64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::cout << std::flush;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
