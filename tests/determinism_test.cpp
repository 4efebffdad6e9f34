// Bit-level reproducibility: identical seeds and configurations must give
// identical trajectories — across engines, integrators and the emulated
// hardware. Regressions here usually mean hidden global state or
// uninitialized reads.
#include <gtest/gtest.h>

#include "core/blockstep.hpp"
#include "core/comoving.hpp"
#include "core/engines.hpp"
#include "core/simulation.hpp"
#include "ic/plummer.hpp"
#include "ic/zeldovich.hpp"
#include "model/units.hpp"

namespace {

using namespace g5;
using core::ForceParams;

template <typename RunFn>
void expect_identical_runs(RunFn&& run) {
  const model::ParticleSet a = run();
  const model::ParticleSet b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.pos()[i], b.pos()[i]) << i;
    ASSERT_EQ(a.vel()[i], b.vel()[i]) << i;
  }
}

TEST(Determinism, SharedStepAllEngines) {
  for (const char* name :
       {"host-direct", "host-tree-modified", "grape-tree"}) {
    expect_identical_runs([&] {
      auto pset = ic::make_plummer(ic::PlummerConfig{.n = 128, .seed = 3});
      auto engine = core::make_engine(
          name, ForceParams{.eps = 0.05, .theta = 0.6, .n_crit = 32});
      core::SimulationConfig cfg;
      cfg.dt = 0.01;
      cfg.steps = 8;
      cfg.log_every = 0;
      core::Simulation sim(*engine, cfg);
      sim.run(pset);
      return pset;
    });
  }
}

TEST(Determinism, BlockstepRuns) {
  expect_identical_runs([] {
    auto pset = ic::make_plummer(ic::PlummerConfig{.n = 128, .seed = 5});
    core::HostDirectEngine engine((ForceParams{.eps = 0.05}));
    core::BlockStepConfig cfg;
    cfg.dt_max = 0.02;
    cfg.max_rungs = 3;
    core::BlockTimestepIntegrator block(cfg);
    block.prime(pset, engine);
    for (int blk = 0; blk < 4; ++blk) block.step_block(pset, engine);
    return pset;
  });
}

TEST(Determinism, ComovingRuns) {
  expect_identical_runs([] {
    ic::CosmologicalSphereConfig cc;
    cc.grid_n = 8;
    cc.seed = 7;
    const auto icr = ic::make_cosmological_sphere(cc);
    auto pset = icr.particles;
    const double g = model::gravitational_constant();
    for (auto& m : pset.mass()) m *= g;
    const model::Cosmology cosmo(model::CosmologyParams::scdm());
    core::ComovingSimulation::physical_to_comoving(pset, cosmo, icr.a_start);
    core::TreeEngine engine(
        ForceParams{.eps = 0.1, .theta = 0.6, .n_crit = 32},
        core::TreeEngine::Mode::Modified);
    core::ComovingConfig cfg;
    cfg.a_start = icr.a_start;
    cfg.a_end = 0.2;
    cfg.steps = 8;
    core::ComovingSimulation sim(engine, cfg);
    sim.run(pset);
    return pset;
  });
}

TEST(Determinism, PipelinedGrapePathsMatchSynchronous) {
  // Lane-parallel evaluation (each lane walks and evaluates on its own
  // device) must be bitwise-identical to the single-lane run: every
  // unit writes its own targets from integer accumulators.
  for (const char* name : {"grape-tree", "grape-direct"}) {
    auto run = [&](std::uint32_t threads) {
      auto pset = ic::make_plummer(ic::PlummerConfig{.n = 512, .seed = 21});
      ForceParams fp{.eps = 0.05, .theta = 0.6, .n_crit = 64};
      fp.threads = threads;
      auto engine = core::make_engine(name, fp);
      engine->compute(pset);
      return pset;
    };
    const auto ref = run(1);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      const auto got = run(threads);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got.acc()[i], ref.acc()[i])
            << name << " threads=" << threads << " " << i;
        ASSERT_EQ(got.pot()[i], ref.pot()[i])
            << name << " threads=" << threads << " " << i;
      }
    }
  }
}

TEST(Determinism, PipelinedTargetForcesMatchSynchronous) {
  // Same check for the scattered-subset path (block-timestep style).
  std::vector<std::uint32_t> targets;
  for (std::uint32_t t = 1; t < 256; t += 3) targets.push_back(t);
  auto run = [&](std::uint32_t threads) {
    auto pset = ic::make_plummer(ic::PlummerConfig{.n = 256, .seed = 29});
    pset.zero_force();
    ForceParams fp{.eps = 0.05, .theta = 0.6, .n_crit = 32};
    fp.threads = threads;
    auto engine = core::make_engine("grape-tree", fp);
    engine->compute_targets(pset, targets);
    return pset;
  };
  const auto ref = run(1);
  const auto got = run(4);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got.acc()[i], ref.acc()[i]) << i;
    ASSERT_EQ(got.pot()[i], ref.pot()[i]) << i;
  }
}

TEST(Determinism, FreshDevicePerRun) {
  // Two devices constructed from the same config behave identically even
  // after one has processed unrelated work (no cross-device state).
  auto run_with = [](grape::Grape5Device& device) {
    auto pset = ic::make_plummer(ic::PlummerConfig{.n = 64, .seed = 11});
    core::GrapeDirectEngine engine(ForceParams{.eps = 0.05},
                                   std::shared_ptr<grape::Grape5Device>(
                                       &device, [](grape::Grape5Device*) {}));
    engine.compute(pset);
    return pset;
  };
  grape::Grape5Device d1, d2;
  // Warm d1 with unrelated work first.
  {
    auto other = ic::make_plummer(ic::PlummerConfig{.n = 32, .seed = 99});
    core::GrapeDirectEngine warm(ForceParams{.eps = 0.1},
                                 std::shared_ptr<grape::Grape5Device>(
                                     &d1, [](grape::Grape5Device*) {}));
    warm.compute(other);
  }
  const auto a = run_with(d1);
  const auto b = run_with(d2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.acc()[i], b.acc()[i]) << i;
    ASSERT_EQ(a.pot()[i], b.pot()[i]) << i;
  }
}

}  // namespace
