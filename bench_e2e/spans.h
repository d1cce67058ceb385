#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// In-memory span recorder for the traced replay. A span is one timed call
/// into a layer: name, start, end, the enclosing span and the request it
/// served. Nothing is written until the run ends. Single-threaded by
/// design: the replay runs on one thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t request = 0;  // Negative: the replay's warm-up pass.
    int32_t parent = -1;
    int64_t start_ns = 0;  // Relative to the log's creation.
    int64_t end_ns = 0;
    int64_t count = 0;  // Units of work the span covered (videos, calls).

    double us() const { return static_cast<double>(end_ns - start_ns) / 1000.0; }
  };

  /// RAII span nested under the innermost open one.
  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name, int64_t request);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int32_t id() const { return id_; }
    int64_t start_ns() const;
    void SetCount(int64_t n);
    /// Closes the span (idempotent) and returns its duration in µs.
    double Stop();

   private:
    SpanLog* log_;
    int32_t id_;
    bool open_ = true;
  };

  SpanLog();

  /// Records a finished span under `parent`, e.g. one taken from a
  /// QueryProfile; returns its id.
  int32_t Add(std::string name, int64_t request, int32_t parent, int64_t start_ns,
              int64_t end_ns);

  /// Sum of durations (µs) over spans named `name`; with `measured_only`,
  /// warm-up spans (negative request) are skipped.
  double TotalUs(std::string_view name, bool measured_only) const;

  /// Chrome trace_event JSON ("X" events; args carry request, parent and
  /// count), loadable in chrome://tracing. Holds the first `max_events`
  /// spans, which cover whole requests in replay order.
  std::string ToChromeTrace(size_t max_events) const;

  /// Self time per layer over measured spans: a span's duration minus the
  /// time its children cover, summed by layer.
  std::string SelfTimeTable() const;

  size_t size() const { return spans_.size(); }

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace e2e

#endif  // BENCH_E2E_SPANS_H_
