#include "trace.h"

#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> t_open_spans;

double us_since(Clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id) {
  if (!enabled()) {
    return -1;
  }
  Span span;
  span.name = name;
  span.id = id;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span.start_us = us_since(epoch_);
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  const double now = us_since(epoch_);
  if (!t_open_spans.empty() && t_open_spans.back() == index) {
    t_open_spans.pop_back();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = now;
}

void Tracer::link_by_id(const std::string& child, const std::string& parent) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> parents;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == parent) {
      parents[spans_[i].id] = static_cast<std::int64_t>(i);
    }
  }
  for (auto& span : spans_) {
    if (span.name == child && span.parent < 0) {
      const auto it = parents.find(span.id);
      if (it != parents.end()) {
        span.parent = it->second;
      }
    }
  }
}

std::vector<std::pair<std::uint64_t, double>> Tracer::durations_ms(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, double>> out;
  for (const auto& span : spans_) {
    if (span.name == name) {
      out.emplace_back(span.id, (span.end_us - span.start_us) / 1e3);
    }
  }
  return out;
}

void Tracer::print_summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Child time per parent, clipped to the parent's interval (a cross-thread
  // child may outlive its parent's view of it by clock skew only).
  std::vector<double> covered(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      const auto& p = spans_[static_cast<std::size_t>(span.parent)];
      const double lo = std::max(span.start_us, p.start_us);
      const double hi = std::min(span.end_us, p.end_us);
      if (hi > lo) {
        covered[static_cast<std::size_t>(span.parent)] += hi - lo;
      }
    }
  }
  struct Totals {
    std::int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_us - spans_[i].start_us;
    auto& t = by_name[spans_[i].name];
    ++t.count;
    t.total_us += duration;
    t.self_us += std::max(0.0, duration - covered[i]);
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-30s count %7lld  total %10.2f ms  self %10.2f ms  "
                "mean %9.3f ms\n",
                name.c_str(), static_cast<long long>(t.count),
                t.total_us / 1e3, t.self_us / 1e3,
                t.total_us / 1e3 / static_cast<double>(t.count));
  }
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "  {\"index\": %zu, \"name\": \"%s\", \"id\": %llu, "
                 "\"parent\": %lld, \"thread\": %llu, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.thread), s.start_us,
                 s.end_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

}  // namespace perfbench
