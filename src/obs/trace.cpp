#include "obs/trace.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/mutex.hpp"
#include "util/thread.hpp"

namespace g5::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< duration for 'X', sample value for 'C'
  char ph = 'X';
};

std::atomic<bool> g_tracing{false};

struct TraceState {
  util::Mutex mutex;
  std::vector<TraceEvent> events G5_GUARDED_BY(mutex);
  std::size_t cap G5_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped G5_GUARDED_BY(mutex) = 0;
  std::map<std::thread::id, std::uint32_t> tids G5_GUARDED_BY(mutex);
  /// Thread name captured when the tid slot was assigned (set via
  /// util::set_current_thread_name; empty for unnamed threads).
  std::map<std::uint32_t, std::string> names G5_GUARDED_BY(mutex);
  std::uint32_t next_tid G5_GUARDED_BY(mutex) = 1;
};

TraceState& state() {
  static TraceState s;
  return s;
}

std::uint32_t tid_locked(TraceState& s)
    G5_REQUIRES(s.mutex) {
  const auto id = std::this_thread::get_id();
  auto& slot = s.tids[id];
  if (slot == 0) {
    slot = s.next_tid++;
    s.names[slot] = util::current_thread_name();
  }
  return slot;
}

void append(std::string_view name, std::string_view cat, double ts_us,
            double dur_us, char ph) {
  TraceState& s = state();
  const util::MutexLock lock(s.mutex);
  if (s.events.size() >= s.cap) {
    ++s.dropped;
    return;
  }
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.tid = tid_locked(s);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.ph = ph;
  s.events.push_back(std::move(ev));
}

/// Escape a string for a JSON literal (our names are tame, but quotes
/// and control characters must never corrupt the file).
void write_json_string(std::FILE* f, const std::string& str) {
  std::fputc('"', f);
  for (const char c : str) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (u < 0x20) {
      std::fprintf(f, "\\u%04x", u);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

void start_trace(std::size_t max_events) {
  TraceState& s = state();
  {
    const util::MutexLock lock(s.mutex);
    s.events.clear();
    s.cap = max_events;
    s.dropped = 0;
  }
  g_tracing.store(true, std::memory_order_relaxed);
}

void stop_trace() { g_tracing.store(false, std::memory_order_relaxed); }

bool tracing() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void trace_counter(std::string_view name, double value) {
  if (!enabled() || !tracing()) return;
  append(name, "metric", now_us(), value, 'C');
}

void trace_complete_event(std::string_view name, std::string_view category,
                          double start_us, double duration_us) {
  if (!tracing()) return;
  append(name, category, start_us, duration_us, 'X');
}

std::size_t trace_event_count() {
  TraceState& s = state();
  const util::MutexLock lock(s.mutex);
  return s.events.size();
}

std::uint64_t trace_dropped_count() {
  TraceState& s = state();
  const util::MutexLock lock(s.mutex);
  return s.dropped;
}

bool write_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  TraceState& s = state();
  const util::MutexLock lock(s.mutex);
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const TraceEvent& ev : s.events) {
    if (!first) std::fputc(',', f);
    first = false;
    std::fprintf(f, "\n{\"name\":");
    write_json_string(f, ev.name);
    if (ev.ph == 'X') {
      std::fprintf(f, ",\"cat\":");
      write_json_string(f, ev.cat.empty() ? std::string("phase") : ev.cat);
      std::fprintf(f, ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f}",
                   ev.tid, finite_or_zero(ev.ts_us),
                   finite_or_zero(ev.dur_us));
    } else {
      std::fprintf(f, ",\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"args\":{\"value\":%.10g}}",
                   ev.tid, finite_or_zero(ev.ts_us),
                   finite_or_zero(ev.dur_us));
    }
  }
  // Thread-name metadata so the viewer labels the lanes: real names
  // (g5-main, g5-pool-N, g5-telemetry, ...) when the thread was named via
  // util::set_current_thread_name, "thread-N" otherwise.
  for (const auto& [id, tid] : s.tids) {
    static_cast<void>(id);
    if (!first) std::fputc(',', f);
    first = false;
    std::fprintf(f, "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"name\":",
                 tid);
    const auto it = s.names.find(tid);
    if (it != s.names.end() && !it->second.empty()) {
      write_json_string(f, it->second);
    } else {
      std::fprintf(f, "\"thread-%u\"", tid);
    }
    std::fprintf(f, "}}");
  }
  // Registry snapshot rides along for offline inspection.
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"dropped_events\":%llu,\"metrics\":{",
               static_cast<unsigned long long>(s.dropped));
  bool first_metric = true;
  for (const MetricSample& m : Registry::instance().snapshot()) {
    if (!first_metric) std::fputc(',', f);
    first_metric = false;
    write_json_string(f, m.name);
    if (m.kind == MetricKind::kHistogram) {
      // Distributions ride along as a summary object (full buckets stay
      // in --timing-json; the trace keeps the headline statistics).
      const Histogram::Snapshot& h = m.hist;
      std::fprintf(f,
                   ":{\"count\":%llu,\"mean\":%.10g,\"min\":%.10g,"
                   "\"max\":%.10g,\"p50\":%.10g,\"p90\":%.10g,"
                   "\"p99\":%.10g}",
                   static_cast<unsigned long long>(h.count),
                   finite_or_zero(h.mean()), finite_or_zero(h.min),
                   finite_or_zero(h.max), finite_or_zero(h.quantile(0.50)),
                   finite_or_zero(h.quantile(0.90)),
                   finite_or_zero(h.quantile(0.99)));
    } else if (m.is_counter) {
      std::fprintf(f, ":%llu", static_cast<unsigned long long>(m.count));
    } else {
      std::fprintf(f, ":%.10g", finite_or_zero(m.value));
    }
  }
  std::fprintf(f, "}}}\n");
  std::fclose(f);
  return true;
}

}  // namespace g5::obs
