#ifndef SHARK_PERFBENCH_SPANS_H_
#define SHARK_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace shark {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed between two steady-clock instants.
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span log for the traced run. Spans are recorded only by the
/// benchmark, around its calls into the engine's public API; the engine is
/// never instrumented. Each span has a name (the layer), start and end,
/// the span that caused it (-1 for a root) and the op it belongs to.
/// Written out once, at the end, as Chrome-trace JSON.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id; -1 when tracing is off.
  int Begin(const std::string& name, int64_t op_id, int parent);
  /// Closes span `id` (a no-op for -1).
  void End(int id);

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry id, parent and op so self time can be recomputed offline.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t op_id = -1;
    int parent = -1;
    uint64_t tid = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t op_id,
             int parent = -1)
      : log_(log), id_(log->Begin(name, op_id, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
}  // namespace shark

#endif  // SHARK_PERFBENCH_SPANS_H_
