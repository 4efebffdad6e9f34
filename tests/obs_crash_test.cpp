// Crash post-mortem: forced crashes in forked children must leave a
// schema-valid g5.postmortem.v1 dump behind. SIGABRT is the primary
// crash vector (sanitizers own SIGSEGV); the manual dump and terminate
// paths are covered too. In the TSan CI job's filter.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "obs/obs.hpp"
#include "util/thread.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define G5_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define G5_UNDER_SANITIZER 1
#else
#define G5_UNDER_SANITIZER 0
#endif
#else
#define G5_UNDER_SANITIZER 0
#endif

namespace {

using namespace g5;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

obs::StepMetrics step_record(std::uint64_t step) {
  obs::StepMetrics m;
  m.step = step;
  m.t_sim = static_cast<double>(step) * 0.01;
  m.interactions = step * 1000;
  return m;
}

/// Seed the flight recorder with a recognizable in-flight state: a few
/// step records and an open span whose path must appear in the dump.
void seed_flight_state() {
  obs::set_enabled(true);
  util::set_current_thread_name("g5-crash-child");
  auto& fr = obs::FlightRecorder::instance();
  fr.clear();
  fr.arm();
  for (std::uint64_t s = 1; s <= 10; ++s) fr.record_step(step_record(s));
  obs::gauge("g5.board.count").set(3.0);
}

/// Fork, run `crash` in the child after installing handlers + seeding
/// state, and return the child's postmortem document (or "" if none).
template <typename CrashFn>
std::string crash_in_child(const std::string& path, int expect_sig,
                           CrashFn crash) {
  std::remove(path.c_str());
  const pid_t pid = fork();
  if (pid == 0) {
    seed_flight_state();
    obs::crash::install(path);
    obs::crash::refresh();
    obs::Span span("doomed", "test");
    crash();
    ::_exit(97);  // crash() must not return
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) return "";
  EXPECT_TRUE(WIFSIGNALED(wstatus))
      << "child should die by signal, wstatus=" << wstatus;
  if (WIFSIGNALED(wstatus)) {
    // The handler re-raises with the default disposition, so the exit
    // status still names the original signal.
    EXPECT_EQ(WTERMSIG(wstatus), expect_sig);
  }
  return slurp(path);
}

class ObsCrash : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::FlightRecorder::instance().disarm();
    obs::FlightRecorder::instance().clear();
    obs::set_enabled(false);
  }
};

TEST_F(ObsCrash, SigabrtProducesSchemaValidDump) {
  const std::string path = ::testing::TempDir() + "crash_abrt.json";
  const std::string doc =
      crash_in_child(path, SIGABRT, [] { std::abort(); });
  ASSERT_FALSE(doc.empty()) << "no postmortem written";
  EXPECT_NE(doc.find("\"schema\":\"g5.postmortem.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"signal\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"SIGABRT\""), std::string::npos);
  // The last >= 8 step records ride along, newest last.
  EXPECT_NE(doc.find("\"step\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"step\":10"), std::string::npos);
  // The open span path and the thread name at crash time.
  EXPECT_NE(doc.find("/doomed"), std::string::npos);
  EXPECT_NE(doc.find("g5-crash-child"), std::string::npos);
  // Device state via the cached gauges.
  EXPECT_NE(doc.find("\"boards\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"rss_bytes\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsCrash, SigtermDumpsToo) {
  const std::string path = ::testing::TempDir() + "crash_term.json";
  const std::string doc =
      crash_in_child(path, SIGTERM, [] { ::raise(SIGTERM); });
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"name\":\"SIGTERM\""), std::string::npos);
  std::remove(path.c_str());
}

#if !G5_UNDER_SANITIZER
// ASan/TSan claim SIGSEGV for their own reporting; only exercise the
// hardware-fault path in plain builds.
TEST_F(ObsCrash, SigsegvProducesDump) {
  const std::string path = ::testing::TempDir() + "crash_segv.json";
  const std::string doc =
      crash_in_child(path, SIGSEGV, [] { ::raise(SIGSEGV); });
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"name\":\"SIGSEGV\""), std::string::npos);
  std::remove(path.c_str());
}
#endif

TEST_F(ObsCrash, UncaughtExceptionHitsTheTerminateHook) {
  const std::string path = ::testing::TempDir() + "crash_terminate.json";
  // terminate() ends in abort(), so the child still dies with SIGABRT.
  // noexcept stops the unwind at the lambda (gtest would otherwise
  // catch the exception before it ever reached std::terminate).
  const std::string doc = crash_in_child(path, SIGABRT, []() noexcept {
    throw std::runtime_error("unhandled in child");
  });
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"kind\":\"terminate\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsCrash, ManualPostmortemInProcess) {
  // write_postmortem_now exercises serialize + write without dying;
  // runs in-process (install only re-points handlers, which the gtest
  // runner tolerates because nothing here raises).
  const std::string path = ::testing::TempDir() + "crash_manual.json";
  std::remove(path.c_str());
  obs::set_enabled(true);
  auto& fr = obs::FlightRecorder::instance();
  fr.clear();
  fr.arm();
  for (std::uint64_t s = 1; s <= 3; ++s) fr.record_step(step_record(s));
  obs::crash::install(path);
  obs::crash::refresh();
  const std::size_t wrote = obs::crash::write_postmortem_now("unit-test");
  EXPECT_GT(wrote, 0u);
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"schema\":\"g5.postmortem.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"manual\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"unit-test\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  // Repeatable, unlike the one-shot signal path.
  EXPECT_GT(obs::crash::write_postmortem_now("again"), 0u);
  std::remove(path.c_str());
}

}  // namespace
