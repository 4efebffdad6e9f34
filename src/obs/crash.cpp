#include "obs/crash.hpp"

#include <atomic>
#include <csignal>
#include <cstring>
#include <exception>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/mutex.hpp"
#include "util/sigsafe.hpp"

namespace g5::obs::crash {

namespace {

constexpr std::size_t kPathCap = 512;
constexpr std::size_t kDumpCap = 256 * 1024;
constexpr std::size_t kRegistryCap = 32 * 1024;
constexpr std::size_t kMaxBoards = 16;

// Everything the handler touches is static: no allocation at dump time.
char g_path[kPathCap] = {};
char g_dump[kDumpCap];
std::atomic<bool> g_installed{false};
std::atomic<bool> g_dumping{false};
std::atomic<long> g_page_size{4096};

/// Registry JSON pre-serialized off the signal path (refresh()), held
/// in a seqlock of relaxed atomic words so the handler can copy it out
/// without locks and detect a racing refresh.
struct RegistryCell {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> len{0};
  std::atomic<std::uint64_t> words[kRegistryCap / 8];
};
RegistryCell g_registry;
alignas(8) char g_registry_stage[kRegistryCap];  // refresh() scratch
alignas(8) char g_registry_read[kRegistryCap];   // handler scratch
util::Mutex g_refresh_mutex;  // serializes concurrent refresh() calls

/// Device gauges resolved via find_gauge (never created) and cached as
/// pointers: Gauge::value() is one relaxed load, safe in a handler.
std::atomic<const Gauge*> g_board_count{nullptr};
std::atomic<const Gauge*> g_jmem[kMaxBoards] = {};

double cached_gauge(const std::atomic<const Gauge*>& slot) noexcept {
  const Gauge* g = slot.load(std::memory_order_relaxed);
  return g != nullptr ? g->value() : 0.0;
}

std::uint64_t read_rss_bytes() noexcept {
#if defined(__linux__)
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // statm: "size resident shared ..." in pages; we want field 2.
  std::size_t i = 0;
  while (i < static_cast<std::size_t>(n) && buf[i] != ' ') ++i;
  while (i < static_cast<std::size_t>(n) && buf[i] == ' ') ++i;
  std::uint64_t pages = 0;
  while (i < static_cast<std::size_t>(n) && buf[i] >= '0' && buf[i] <= '9') {
    pages = pages * 10 + static_cast<std::uint64_t>(buf[i] - '0');
    ++i;
  }
  return pages *
         static_cast<std::uint64_t>(g_page_size.load(std::memory_order_relaxed));
#else
  return 0;
#endif
}

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGTERM: return "SIGTERM";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
#if defined(SIGBUS)
    case SIGBUS: return "SIGBUS";
#endif
    default: return "UNKNOWN";
  }
}

void append_step_json(util::SigsafeWriter& w, const StepMetrics& m) noexcept {
  w.append("{\"step\":");
  w.append_u64(m.step);
  w.append(",\"t_sim\":");
  w.append_double(m.t_sim);
  w.append(",\"wall_s\":");
  w.append_double(m.wall_s);
  w.append(",\"build_s\":");
  w.append_double(m.build_s);
  w.append(",\"walk_s\":");
  w.append_double(m.walk_s);
  w.append(",\"kernel_s\":");
  w.append_double(m.kernel_s);
  w.append(",\"engine_s\":");
  w.append_double(m.engine_s);
  w.append(",\"interactions\":");
  w.append_u64(m.interactions);
  w.append(",\"list_entries\":");
  w.append_u64(m.list_entries);
  w.append(",\"groups\":");
  w.append_u64(m.groups);
  w.append(",\"grape_force_calls\":");
  w.append_u64(m.grape_force_calls);
  w.append(",\"grape_emulation_s\":");
  w.append_double(m.grape_emulation_s);
  w.append(",\"grape_occupancy\":");
  w.append_double(m.grape_occupancy);
  w.append(",\"energy_drift\":");
  w.append_double(m.energy_drift);
  w.append_char('}');
}

/// Copy the pre-serialized registry section into the dump; false when
/// never refreshed or torn by a racing refresh.
bool append_registry_section(util::SigsafeWriter& w) noexcept {
  const std::uint32_t s0 = g_registry.seq.load(std::memory_order_acquire);
  if (s0 == 0 || (s0 & 1U) != 0) return false;
  std::uint32_t len = g_registry.len.load(std::memory_order_relaxed);
  if (len == 0 || len > kRegistryCap) return false;
  const std::size_t nwords = (len + 7) / 8;
  for (std::size_t i = 0; i < nwords; ++i) {
    const std::uint64_t word =
        g_registry.words[i].load(std::memory_order_relaxed);
    std::memcpy(g_registry_read + i * 8, &word, 8);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (g_registry.seq.load(std::memory_order_relaxed) != s0) return false;
  w.append(std::string_view(g_registry_read, len));
  return true;
}

std::size_t serialize(std::string_view kind, int signo,
                      std::string_view name) noexcept {
  util::SigsafeWriter w(g_dump, kDumpCap);
  w.append("{\"schema\":\"g5.postmortem.v1\",\"cause\":{\"kind\":");
  w.append_json_string(kind);
  if (signo > 0) {
    w.append(",\"signal\":");
    w.append_i64(signo);
  }
  if (!name.empty()) {
    w.append(",\"name\":");
    w.append_json_string(name);
  }
  w.append("},\"pid\":");
#if defined(__unix__) || defined(__APPLE__)
  w.append_i64(static_cast<std::int64_t>(::getpid()));
#else
  w.append_i64(0);
#endif
  w.append(",\"uptime_us\":");
  w.append_double(now_us());
  w.append(",\"rss_bytes\":");
  w.append_u64(read_rss_bytes());

  const FlightRecorder& fr = FlightRecorder::instance();
  w.append(",\"steps\":[");
  {
    const std::uint64_t count = fr.step_count();
    const std::uint64_t first = count > FlightRecorder::kStepCapacity
                                    ? count - FlightRecorder::kStepCapacity
                                    : 0;
    StepMetrics m;
    bool first_el = true;
    for (std::uint64_t i = first; i < count; ++i) {
      if (!fr.read_step(i, &m)) continue;
      if (!first_el) w.append_char(',');
      first_el = false;
      append_step_json(w, m);
    }
  }
  w.append("],\"spans\":[");
  {
    const std::uint64_t count = fr.span_count();
    const std::uint64_t first = count > FlightRecorder::kSpanCapacity
                                    ? count - FlightRecorder::kSpanCapacity
                                    : 0;
    SpanEvent ev;
    bool first_el = true;
    for (std::uint64_t i = first; i < count; ++i) {
      if (!fr.read_span(i, &ev)) continue;
      if (!first_el) w.append_char(',');
      first_el = false;
      w.append("{\"path\":");
      w.append_json_string(ev.path);
      w.append(",\"thread\":");
      w.append_json_string(ev.thread);
      w.append(",\"start_us\":");
      w.append_double(ev.start_us);
      w.append(",\"dur_us\":");
      w.append_double(ev.dur_us);
      w.append_char('}');
    }
  }
  w.append("],\"threads\":[");
  {
    ThreadPath tp;
    bool first_el = true;
    for (std::size_t s = 0; s < fr.thread_slots(); ++s) {
      if (!fr.read_thread(s, &tp)) continue;
      if (!first_el) w.append_char(',');
      first_el = false;
      w.append("{\"name\":");
      w.append_json_string(tp.thread);
      w.append(",\"path\":");
      w.append_json_string(tp.path);
      w.append_char('}');
    }
  }
  w.append("],\"device\":{\"boards\":");
  w.append_double(cached_gauge(g_board_count));
  w.append(",\"jmem_fill\":[");
  {
    bool first_el = true;
    for (std::size_t b = 0; b < kMaxBoards; ++b) {
      const Gauge* g = g_jmem[b].load(std::memory_order_relaxed);
      if (g == nullptr) continue;
      if (!first_el) w.append_char(',');
      first_el = false;
      w.append_double(g->value());
    }
  }
  w.append("]},\"metrics\":");
  if (!append_registry_section(w)) w.append("null");
  w.append("}\n");
  return w.size();
}

std::size_t write_dump(std::size_t len) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, g_dump + done, len - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  return done;
#else
  static_cast<void>(len);
  return 0;
#endif
}

extern "C" void g5_crash_signal_handler(int sig) {
  // One dump per process: a fault inside the dump path (or a second
  // signal) falls straight through to the default disposition.
  if (!g_dumping.exchange(true, std::memory_order_acq_rel)) {
    write_dump(serialize("signal", sig, signal_name(sig)));
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void g5_terminate_hook() {
  if (!g_dumping.exchange(true, std::memory_order_acq_rel)) {
    write_dump(serialize("terminate", 0, "std::terminate"));
  }
  std::signal(SIGABRT, SIG_DFL);
  std::abort();
}

}  // namespace

void install(const std::string& path) {
  std::size_t n = path.size() < kPathCap - 1 ? path.size() : kPathCap - 1;
  std::memcpy(g_path, path.data(), n);
  g_path[n] = '\0';
#if defined(__unix__) || defined(__APPLE__)
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) g_page_size.store(page, std::memory_order_relaxed);
#endif
  // Force the statics the handler reads to initialize off-signal.
  now_us();
  FlightRecorder::instance();
  refresh();
  if (g_installed.exchange(true, std::memory_order_acq_rel)) return;
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = g5_crash_signal_handler;
  sigemptyset(&sa.sa_mask);
  const int signals[] = {SIGSEGV, SIGABRT, SIGTERM, SIGFPE, SIGILL,
#if defined(SIGBUS)
                         SIGBUS,
#endif
  };
  for (const int sig : signals) ::sigaction(sig, &sa, nullptr);
#else
  std::signal(SIGSEGV, g5_crash_signal_handler);
  std::signal(SIGABRT, g5_crash_signal_handler);
  std::signal(SIGTERM, g5_crash_signal_handler);
#endif
  std::set_terminate(g5_terminate_hook);
}

bool installed() noexcept {
  return g_installed.load(std::memory_order_relaxed);
}

void refresh() {
  Registry& reg = Registry::instance();
  g_board_count.store(reg.find_gauge("g5.board.count"),
                      std::memory_order_relaxed);
  for (std::size_t b = 0; b < kMaxBoards; ++b) {
    g_jmem[b].store(
        reg.find_gauge("g5.board." + std::to_string(b) + ".jmem_fill"),
        std::memory_order_relaxed);
  }

  const std::string json = registry_json();
  const auto len = static_cast<std::uint32_t>(
      json.size() < kRegistryCap ? json.size() : kRegistryCap);
  const util::MutexLock lock(g_refresh_mutex);
  std::memset(g_registry_stage, 0, ((len + 7) / 8) * 8);
  std::memcpy(g_registry_stage, json.data(), len);
  g_registry.seq.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t nwords = (len + 7) / 8;
  for (std::size_t i = 0; i < nwords; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, g_registry_stage + i * 8, 8);
    g_registry.words[i].store(word, std::memory_order_relaxed);
  }
  g_registry.len.store(len, std::memory_order_relaxed);
  g_registry.seq.fetch_add(1, std::memory_order_release);
}

std::size_t write_postmortem_now(std::string_view cause) {
  if (g_path[0] == '\0') return 0;
  bool expected = false;
  if (!g_dumping.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return 0;
  }
  refresh();
  const std::size_t written = write_dump(serialize("manual", 0, cause));
  g_dumping.store(false, std::memory_order_release);
  return written;
}

}  // namespace g5::obs::crash
