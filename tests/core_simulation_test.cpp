#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/engines.hpp"
#include "core/simulation.hpp"
#include "ic/plummer.hpp"

namespace {

using namespace g5;
using core::ForceParams;
using core::Simulation;
using core::SimulationConfig;

model::ParticleSet small_plummer() {
  return ic::make_plummer(ic::PlummerConfig{.n = 128, .seed = 3});
}

TEST(Simulation, SummaryFieldsFilled) {
  auto pset = small_plummer();
  core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 20;
  cfg.log_every = 0;
  Simulation sim(engine, cfg);
  const auto s = sim.run(pset);
  EXPECT_EQ(s.steps, 20u);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_EQ(s.engine.evaluations, 21u);  // prime + 20 steps
  EXPECT_LT(s.energy_drift, 1e-3);
  EXPECT_LT(s.momentum_drift.x, 1e-12);
  // Central pairwise forces exert no net torque: L conserved to roundoff.
  EXPECT_LT(s.angular_momentum_drift, 1e-11);
  EXPECT_EQ(s.grape.force_calls, 0u);  // host engine: no hardware account
}

TEST(Simulation, GrapeAccountSurfaced) {
  auto pset = small_plummer();
  auto engine = core::make_engine(
      "grape-tree", ForceParams{.eps = 0.05, .theta = 0.75, .n_crit = 64});
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 3;
  cfg.log_every = 0;
  Simulation sim(*engine, cfg);
  const auto s = sim.run(pset);
  EXPECT_GT(s.grape.force_calls, 0u);
  EXPECT_GT(s.grape.interactions, 0u);
  EXPECT_GT(s.grape.modeled_total(), 0.0);
}

TEST(Simulation, ProbeJudgesTheCodecOnlyWhereAGrapeRan) {
  // The probe's codec leg runs the sampled lists through an emulated
  // pipeline; a host engine's forces never went through one, so its
  // codec fields stay unmeasured (NaN, null in --report) while the tree
  // and total legs still run.
  for (const char* name : {"host-tree-modified", "grape-tree"}) {
    auto pset = small_plummer();
    auto engine = core::make_engine(
        name, ForceParams{.eps = 0.05, .theta = 0.75, .n_crit = 64});
    SimulationConfig cfg;
    cfg.dt = 0.01;
    cfg.steps = 2;
    cfg.log_every = 0;
    cfg.probe_every = 2;
    cfg.probe_samples = 16;
    Simulation sim(*engine, cfg);
    const auto s = sim.run(pset);
    ASSERT_EQ(s.probe_calls, 1u) << name;
    EXPECT_GT(s.probe_last.tree_p50, 0.0) << name;
    EXPECT_GT(s.probe_last.total_p50, 0.0) << name;
    const bool grape = engine->grape_device() != nullptr;
    EXPECT_EQ(std::isnan(s.probe_last.codec_p50), !grape) << name;
    EXPECT_EQ(std::isnan(s.probe_last.codec_p99), !grape) << name;
  }
}

TEST(Simulation, HookCalledEveryStep) {
  auto pset = small_plummer();
  core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 7;
  cfg.log_every = 0;
  Simulation sim(engine, cfg);
  std::vector<std::uint64_t> seen;
  sim.set_step_hook([&](std::uint64_t step, const model::ParticleSet& ps) {
    EXPECT_EQ(ps.size(), 128u);
    seen.push_back(step);
  });
  sim.run(pset);
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.front(), 1u);
  EXPECT_EQ(seen.back(), 7u);
}

TEST(Simulation, SnapshotsWritten) {
  auto pset = small_plummer();
  core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 4;
  cfg.snapshot_every = 2;
  cfg.log_every = 0;
  cfg.snapshot_prefix =
      (std::filesystem::temp_directory_path() / "g5_sim_test").string();
  Simulation sim(engine, cfg);
  const auto s = sim.run(pset);
  EXPECT_EQ(s.snapshots_written, 3u);  // t=0 plus steps 2 and 4
  for (int i = 0; i < 3; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "_%06d.g5snap", i);
    const std::string path = cfg.snapshot_prefix + name;
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    std::filesystem::remove(path);
  }
}

TEST(Simulation, StatsCsvWritten) {
  auto pset = small_plummer();
  core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 5;
  cfg.log_every = 0;
  cfg.stats_csv =
      (std::filesystem::temp_directory_path() / "g5_stats.csv").string();
  Simulation sim(engine, cfg);
  sim.run(pset);
  std::ifstream in(cfg.stats_csv);
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("step,time,interactions"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 5);
  in.close();
  std::filesystem::remove(cfg.stats_csv);

  cfg.stats_csv = "/nonexistent/dir/stats.csv";
  Simulation bad(engine, cfg);
  auto pset2 = small_plummer();
  EXPECT_THROW(bad.run(pset2), std::runtime_error);
}

TEST(Simulation, DtScheduleOverridesSteps) {
  auto pset = small_plummer();
  core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
  SimulationConfig cfg;
  cfg.steps = 99;  // overridden
  cfg.dt_schedule = {0.01, 0.02, 0.03};
  cfg.log_every = 0;
  Simulation sim(engine, cfg);
  std::vector<std::uint64_t> seen;
  sim.set_step_hook(
      [&](std::uint64_t step, const model::ParticleSet&) { seen.push_back(step); });
  const auto s = sim.run(pset);
  EXPECT_EQ(s.steps, 3u);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Simulation, Validation) {
  core::HostDirectEngine engine((ForceParams{}));
  SimulationConfig cfg;
  cfg.dt = 0.0;
  EXPECT_THROW(Simulation(engine, cfg), std::invalid_argument);
  cfg.dt = 0.01;
  cfg.dt_schedule = {0.01, -0.5};
  EXPECT_THROW(Simulation(engine, cfg), std::invalid_argument);
}

TEST(Simulation, StatsResetBetweenRuns) {
  auto pset = small_plummer();
  auto engine = core::make_engine(
      "grape-tree", ForceParams{.eps = 0.05, .theta = 0.75, .n_crit = 64});
  SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 2;
  cfg.log_every = 0;
  Simulation sim(*engine, cfg);
  const auto first = sim.run(pset);
  const auto second = sim.run(pset);
  // Engine stats and hardware account restart each run.
  EXPECT_EQ(first.engine.evaluations, second.engine.evaluations);
  EXPECT_NEAR(static_cast<double>(second.grape.force_calls),
              static_cast<double>(first.grape.force_calls),
              0.25 * static_cast<double>(first.grape.force_calls) + 1.0);
}

}  // namespace
