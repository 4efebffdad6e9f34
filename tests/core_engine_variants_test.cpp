// Engine variants end to end: the bmax MAC and quadrupole options through
// full simulations, and mixed-engine consistency under them.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.hpp"
#include "core/engines.hpp"
#include "core/simulation.hpp"
#include "ic/hernquist.hpp"
#include "ic/plummer.hpp"
#include "util/stats.hpp"

namespace {

using namespace g5;
using core::ForceParams;

TEST(EngineVariants, BmaxEngineConservesEnergy) {
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 256, .seed = 3});
  ForceParams fp;
  fp.eps = 0.05;
  fp.theta = 0.5;
  fp.n_crit = 64;
  fp.mac = tree::Mac::Bmax;
  auto engine = core::make_engine("grape-tree", fp);
  core::SimulationConfig cfg;
  cfg.dt = 0.01;
  cfg.steps = 50;
  cfg.log_every = 0;
  core::Simulation sim(*engine, cfg);
  const auto s = sim.run(pset);
  EXPECT_LT(s.energy_drift, 5e-3);
  EXPECT_GT(s.engine.interactions, 0u);
}

TEST(EngineVariants, QuadrupoleEngineConservesEnergyBetterAtLooseTheta) {
  auto run = [](bool quadrupole) {
    auto pset = ic::make_plummer(ic::PlummerConfig{.n = 256, .seed = 5});
    ForceParams fp;
    fp.eps = 0.05;
    fp.theta = 1.1;  // loose: monopole errors noticeable
    fp.n_crit = 64;
    fp.quadrupole = quadrupole;
    core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);
    core::SimulationConfig cfg;
    cfg.dt = 0.01;
    cfg.steps = 100;
    cfg.log_every = 0;
    core::Simulation sim(engine, cfg);
    return sim.run(pset).energy_drift;
  };
  const double mono = run(false);
  const double quad = run(true);
  EXPECT_LT(quad, 2e-3);
  // Quadrupoles should not make things worse; usually substantially better.
  EXPECT_LT(quad, 1.5 * mono + 1e-5);
}

TEST(EngineVariants, HernquistCuspThroughGrapeTree) {
  // The r^-1 cusp produces a huge force dynamic range; the device's range
  // window and accumulator scaling must cope without saturating.
  auto pset = ic::make_hernquist(ic::HernquistConfig{.n = 1024, .seed = 7});
  ForceParams fp;
  fp.eps = 0.01;
  fp.theta = 0.75;
  fp.n_crit = 128;
  auto engine = core::make_engine("grape-tree", fp);
  engine->compute(pset);
  ASSERT_NE(engine->grape_device(), nullptr);
  EXPECT_FALSE(engine->grape_device()->system().any_saturation());

  // Against the exact sum.
  model::ParticleSet exact = pset;
  core::HostDirectEngine ref(fp);
  ref.compute(exact);
  util::RunningStat err;
  for (std::size_t i = 0; i < pset.size(); ++i) {
    const double rn = exact.acc()[i].norm();
    if (rn > 0.0) err.add((pset.acc()[i] - exact.acc()[i]).norm() / rn);
  }
  EXPECT_LT(err.rms(), 5e-3);
}

TEST(EngineVariants, MixedOptionsFactoryRoundTrip) {
  // The factory produces engines that carry the variant parameters.
  ForceParams fp;
  fp.mac = tree::Mac::Bmax;
  fp.quadrupole = true;
  for (const char* name : {"host-tree-original", "host-tree-modified"}) {
    auto engine = core::make_engine(name, fp);
    EXPECT_EQ(engine->params().mac, tree::Mac::Bmax) << name;
    EXPECT_TRUE(engine->params().quadrupole) << name;
  }
}

}  // namespace
