// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded only from the benchmark's own code, around calls into the
// library's public functions; the library itself is not instrumented.
#ifndef SEMSIM_PERFBENCH_TRACE_H_
#define SEMSIM_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace semsim::perfbench {

using Clock = std::chrono::steady_clock;

/// One layer call: name, interval, the span that caused it (0 = none) and
/// the request it served (0 = none; spans of one request share the id).
struct Span {
  const char* name;
  uint64_t request;
  uint32_t parent;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording off and on around a phase (the trace-overhead pair).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Records a finished span; returns its id (0 when disabled). `name`
  /// must be a string literal.
  uint32_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent = 0,
                  uint64_t request = 0) {
    if (!enabled()) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, request, parent, start, end});
    return static_cast<uint32_t>(spans_.size());
  }

  /// Opens a span whose end is set by Close (for parents of later spans).
  uint32_t Open(const char* name) {
    Clock::time_point now = Clock::now();
    return Record(name, now, now);
  }
  void Close(uint32_t id) {
    if (id == 0) return;
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = now;
  }

  /// Writes one JSON object per line: id, name, parent, request, and the
  /// interval in microseconds from the first span's start.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace semsim::perfbench

#endif  // SEMSIM_PERFBENCH_TRACE_H_
