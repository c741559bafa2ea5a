// In-memory span recorder for the traced run.
//
// A span holds its name, start, end, parent and an id; the spans of one
// request share that request's seed as their id. Spans are recorded from the
// benchmark's own code, around its calls into each layer's public API, and
// written out as JSON when the run ends. When disabled every call is a
// single branch, so the untraced run pays nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  double start_us = 0.0;  ///< Since the tracer's epoch.
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< Index into the span list, -1 = root.
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the span's index, -1 when disabled.
  std::int64_t begin(const char* name, std::uint64_t id);
  void end(std::int64_t index);

  /// Spans recorded on one thread whose cause ran on another (a worker's
  /// handler serving a client's routed call): gives every root span named
  /// `child` the span named `parent` with the same id as its parent.
  void link_by_id(const std::string& child, const std::string& parent);

  /// Durations (ms) of every span named `name`, with their ids.
  std::vector<std::pair<std::uint64_t, double>> durations_ms(
      const std::string& name) const;

  /// Per span name: count, total and self time (duration minus the part
  /// covered by its child spans), printed as `span` lines.
  void print_summary() const;

  /// Writes every span as a JSON array to `path`.
  bool write_json(const std::string& path) const;

  std::size_t size() const;

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t id)
      : index_(tracer().enabled() ? tracer().begin(name, id) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) {
      tracer().end(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
