// In-memory span recorder for the traced run.
//
// The benchmark records a span around every call it makes into a layer:
// name, start, end and the enclosing span. Spans stay in memory while the
// run measures and are written out once at the end. Single-threaded: only
// the benchmark's own thread opens spans (the engine's worker lanes are
// inside the `core.force` span, not traced individually).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace g5bench {

class SpanRecorder {
 public:
  struct Span {
    std::string_view name;  ///< static storage (string literals)
    int parent = -1;        ///< index of the enclosing span, -1 at the root
    double start_s = 0.0;   ///< seconds since the recorder was created
    double end_s = 0.0;
    [[nodiscard]] double seconds() const { return end_s - start_s; }
  };

  /// RAII span; a null recorder makes it a no-op, so the untraced replay
  /// shares the traced code path.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span with this name.
  [[nodiscard]] double total(std::string_view name) const;
  /// Self time of span i: its duration minus the time its children cover.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Write the spans as a Chrome trace (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const;

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace g5bench
