// Telemetry sampler + exporters: the status-file/Prometheus pipeline.
// In the TSan CI job's filter — the sampler thread reads the registry
// and flight recorder while the simulation writes them.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/engines.hpp"
#include "core/simulation.hpp"
#include "ic/plummer.hpp"
#include "obs/obs.hpp"

namespace {

using namespace g5;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ObsTelemetryEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_phases();
    obs::Registry::instance().reset_values();
    obs::FlightRecorder::instance().clear();
  }
  void TearDown() override {
    obs::FlightRecorder::instance().disarm();
    obs::FlightRecorder::instance().clear();
    obs::set_enabled(false);
  }
};

using ObsTelemetry = ObsTelemetryEnv;

TEST_F(ObsTelemetry, WritesStatusAndPrometheusFiles) {
  obs::counter("g5.test.ticks").add(3);
  obs::gauge("g5.test.level").set(1.5);
  obs::histogram("g5.test.lat_us").observe(100.0);

  const std::string status = ::testing::TempDir() + "telemetry_status.json";
  const std::string prom = ::testing::TempDir() + "telemetry_prom.txt";
  obs::TelemetryConfig tc;
  tc.period_ms = 3600 * 1000;  // first sample is immediate; no ticks after
  tc.status_path = status;
  tc.prom_path = prom;
  {
    obs::Telemetry telemetry(tc);
    // Construction takes an eager first sample.
    EXPECT_GE(telemetry.samples(), 1u);
    telemetry.stop();
    telemetry.stop();  // clean double-stop
  }
  const std::string doc = slurp(status);
  EXPECT_NE(doc.find("\"schema\":\"g5.status.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"heartbeat\""), std::string::npos);
  EXPECT_NE(doc.find("\"g5.test.ticks\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"g5.test.level\":1.5"), std::string::npos);

  const std::string text = slurp(prom);
  EXPECT_NE(text.find("# TYPE g5_test_ticks counter"), std::string::npos);
  EXPECT_NE(text.find("g5_test_ticks 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g5_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g5_test_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("g5_test_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("g5_test_lat_us_count 1"), std::string::npos);
  std::remove(status.c_str());
  std::remove(prom.c_str());
}

TEST_F(ObsTelemetry, StatusSequenceAdvancesPerSample) {
  const std::string status = ::testing::TempDir() + "telemetry_seq.json";
  obs::TelemetryConfig tc;
  tc.period_ms = 3600 * 1000;
  tc.status_path = status;
  obs::Telemetry telemetry(tc);
  telemetry.sample_now();
  const std::string a = slurp(status);
  telemetry.sample_now();
  const std::string b = slurp(status);
  telemetry.stop();
  const auto seq_of = [](const std::string& doc) {
    const std::size_t at = doc.find("\"sequence\":");
    return doc.substr(at, doc.find(',', at) - at);
  };
  EXPECT_NE(seq_of(a), seq_of(b));
  std::remove(status.c_str());
}

TEST_F(ObsTelemetry, StatusReportsHeartbeatAndLastStep) {
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 128, .seed = 3});
  core::TreeEngine engine(
      core::ForceParams{.eps = 0.05, .theta = 0.75, .n_crit = 32},
      core::TreeEngine::Mode::Modified);
  core::SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 5;
  core::Simulation sim(engine, cfg);

  const std::string status = ::testing::TempDir() + "telemetry_hb.json";
  obs::TelemetryConfig tc;
  tc.period_ms = 3600 * 1000;
  tc.status_path = status;
  obs::Telemetry telemetry(tc);
  sim.run(pset);
  telemetry.stop();  // final sample sees the finished run

  const std::string doc = slurp(status);
  EXPECT_NE(doc.find("\"step\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"steps_total\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"last_step\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"flight\""), std::string::npos);
  EXPECT_EQ(obs::FlightRecorder::instance().step_count(), 5u);
  std::remove(status.c_str());
}

TEST_F(ObsTelemetry, SamplerDoesNotPerturbPhysics) {
  // Bitwise determinism with the sampler on vs off: telemetry only ever
  // reads, so two identical runs must land on identical particles.
  const auto run_once = [](bool with_sampler) {
    auto pset = ic::make_plummer(ic::PlummerConfig{.n = 96, .seed = 11});
    core::TreeEngine engine(
        core::ForceParams{.eps = 0.05, .theta = 0.75, .n_crit = 32},
        core::TreeEngine::Mode::Modified);
    core::SimulationConfig cfg;
    cfg.dt = 0.01;
    cfg.steps = 8;
    core::Simulation sim(engine, cfg);
    if (with_sampler) {
      obs::TelemetryConfig tc;
      tc.period_ms = 1;  // sample as fast as possible during the run
      tc.status_path = ::testing::TempDir() + "telemetry_phys.json";
      obs::Telemetry telemetry(tc);
      sim.run(pset);
      telemetry.stop();
      std::remove(tc.status_path.c_str());
    } else {
      sim.run(pset);
    }
    return pset;
  };
  const auto baseline = run_once(false);
  obs::FlightRecorder::instance().clear();
  const auto sampled = run_once(true);
  ASSERT_EQ(baseline.size(), sampled.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline.pos()[i].x, sampled.pos()[i].x) << i;
    EXPECT_EQ(baseline.pos()[i].y, sampled.pos()[i].y) << i;
    EXPECT_EQ(baseline.pos()[i].z, sampled.pos()[i].z) << i;
    EXPECT_EQ(baseline.vel()[i].x, sampled.vel()[i].x) << i;
  }
}

TEST_F(ObsTelemetry, AtomicWriteLeavesNoTempBehind) {
  const std::string path = ::testing::TempDir() + "telemetry_atomic.json";
  ASSERT_TRUE(obs::atomic_write_file(path, "{\"ok\": true}\n"));
  EXPECT_EQ(slurp(path), "{\"ok\": true}\n");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST_F(ObsTelemetry, StepMetricsJsonMatchesWriterOutput) {
  // The status file's last_step object and the JSONL sink must be the
  // same serialization (one format, two consumers).
  obs::StepMetrics m;
  m.step = 42;
  m.t_sim = 0.42;
  m.wall_s = 0.125;
  m.interactions = 1000;
  m.energy_drift = 1.5e-6;
  const std::string path = ::testing::TempDir() + "telemetry_jsonl_eq.jsonl";
  {
    obs::MetricsWriter writer(path);
    writer.write(m);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, obs::step_metrics_json(m));
  std::remove(path.c_str());
}

// Satellite: the JSONL sink flushes per record, so a process killed
// mid-run leaves only complete lines behind.
TEST_F(ObsTelemetry, MetricsJsonlSurvivesSigkill) {
  const std::string path = ::testing::TempDir() + "telemetry_kill.jsonl";
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: write records, then die without any chance to flush or
    // run destructors. _Exit paths are not enough — SIGKILL it is.
    obs::MetricsWriter writer(path);
    for (std::uint64_t s = 1; s <= 17; ++s) {
      obs::StepMetrics m;
      m.step = s;
      m.interactions = s * 10;
      writer.write(m);
    }
    ::raise(SIGKILL);
    ::_exit(99);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  std::ifstream in(path);
  std::string line;
  std::uint64_t expect_step = 1;
  while (std::getline(in, line)) {
    // Every line is complete: starts a record, ends the object.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    obs::StepMetrics m;
    m.step = expect_step;
    m.interactions = expect_step * 10;
    EXPECT_EQ(line, obs::step_metrics_json(m));
    ++expect_step;
  }
  EXPECT_EQ(expect_step, 18u);  // all 17 records survived the kill
  std::remove(path.c_str());
}

}  // namespace
