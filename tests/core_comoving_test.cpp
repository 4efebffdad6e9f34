#include <gtest/gtest.h>

#include <cmath>

#include "core/comoving.hpp"
#include "core/engines.hpp"
#include "ic/zeldovich.hpp"
#include "model/units.hpp"

namespace {

using namespace g5;
using core::ComovingConfig;
using core::ComovingSimulation;
using core::ForceParams;
using math::Vec3d;
using model::Cosmology;
using model::CosmologyParams;

TEST(Cosmology, KickDriftFactorsEdsClosedForm) {
  // EdS: H = H0 a^{-3/2}.
  //   kick  = int da/(a^2 H) = [2 sqrt(a)/ (2... ] -> (2/H0)(a2^0.5-a1^0.5)/1
  //   Actually int a^{-1/2} da / H0 = (2/H0)(sqrt(a2)-sqrt(a1)).
  //   drift = int a^{-3/2} da / H0 = (2/H0)(1/sqrt(a1)-1/sqrt(a2)).
  const Cosmology cosmo(CosmologyParams::scdm());
  const double h0 = cosmo.hubble0();
  const double a1 = 0.04, a2 = 0.16;
  EXPECT_NEAR(cosmo.kick_factor(a1, a2),
              2.0 / h0 * (std::sqrt(a2) - std::sqrt(a1)), 1e-9 / h0);
  EXPECT_NEAR(cosmo.drift_factor(a1, a2),
              2.0 / h0 * (1.0 / std::sqrt(a1) - 1.0 / std::sqrt(a2)),
              1e-9 / h0);
  EXPECT_DOUBLE_EQ(cosmo.kick_factor(a1, a1), 0.0);
  EXPECT_THROW((void)cosmo.kick_factor(0.2, 0.1), std::invalid_argument);
}

TEST(Cosmology, BackgroundCoefficientSigns) {
  const Cosmology eds(CosmologyParams::scdm());
  // Matter-only: C = 0.5 Om H0^2 > 0 at all a.
  EXPECT_NEAR(eds.comoving_background_coefficient(0.5),
              0.5 * eds.hubble0() * eds.hubble0(), 1e-12);
  // Lambda flips the sign once a^3 > Om / (2 Ol).
  const Cosmology lcdm(CosmologyParams{0.3, 0.7, 0.7});
  EXPECT_GT(lcdm.comoving_background_coefficient(0.1), 0.0);
  EXPECT_LT(lcdm.comoving_background_coefficient(1.0), 0.0);
}

TEST(Comoving, ConversionRoundTrip) {
  const Cosmology cosmo(CosmologyParams::scdm());
  model::ParticleSet pset;
  pset.add(Vec3d{1.0, -2.0, 0.5}, Vec3d{0.3, 0.1, -0.2}, 1.0);
  pset.add(Vec3d{-0.4, 0.9, 2.0}, Vec3d{-0.1, 0.0, 0.4}, 2.0);
  const auto pos0 = pset.pos();
  const auto vel0 = pset.vel();
  const double a = 0.25;
  ComovingSimulation::physical_to_comoving(pset, cosmo, a);
  ComovingSimulation::comoving_to_physical(pset, cosmo, a);
  for (std::size_t i = 0; i < pset.size(); ++i) {
    EXPECT_LT((pset.pos()[i] - pos0[i]).norm(), 1e-12);
    EXPECT_LT((pset.vel()[i] - vel0[i]).norm(), 1e-12);
  }
}

TEST(Comoving, PureHubbleFlowIsStationary) {
  // An unperturbed region in pure Hubble flow has zero peculiar motion:
  // comoving positions stay put (up to discreteness noise near the edge).
  // Use a Zel'dovich sphere with near-zero fluctuation amplitude.
  ic::CosmologicalSphereConfig cc;
  cc.grid_n = 8;
  cc.power.sigma8 = 1e-6;  // essentially unperturbed
  cc.seed = 3;
  const auto icr = ic::make_cosmological_sphere(cc);
  model::ParticleSet pset = icr.particles;
  const double G = model::gravitational_constant();
  for (auto& m : pset.mass()) m *= G;

  const Cosmology cosmo(CosmologyParams::scdm());
  ComovingSimulation::physical_to_comoving(pset, cosmo, icr.a_start);

  ForceParams fp;
  fp.eps = 0.1;  // comoving
  fp.theta = 0.4;
  fp.n_crit = 64;
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);

  ComovingConfig cfg;
  cfg.a_start = icr.a_start;
  cfg.a_end = 0.2;  // 5x expansion
  cfg.steps = 24;
  ComovingSimulation sim(engine, cfg);
  const auto s = sim.run(pset);

  // Comoving displacement stays a small fraction of the lattice spacing
  // (the background term cancels the sphere's own mean-field pull; only
  // edge effects and discreteness remain).
  const double spacing = icr.box_size / 8.0;
  EXPECT_LT(s.rms_comoving_displacement, 0.2 * spacing);
}

TEST(Comoving, LinearGrowthFollowsGrowthFactor) {
  // With real fluctuations, comoving displacements from the lattice grow
  // as D(a) in the linear regime: evolving a_i -> 4 a_i should scale the
  // rms displacement by ~4 (EdS), within discreteness/nonlinearity slack.
  ic::CosmologicalSphereConfig cc;
  cc.grid_n = 12;  // rounded up to 16 by the caller normally; use 16
  cc.grid_n = 16;
  cc.seed = 17;
  const auto icr = ic::make_cosmological_sphere(cc);
  model::ParticleSet pset = icr.particles;
  const double G = model::gravitational_constant();
  for (auto& m : pset.mass()) m *= G;

  const Cosmology cosmo(CosmologyParams::scdm());
  ComovingSimulation::physical_to_comoving(pset, cosmo, icr.a_start);
  const double rms0 = icr.rms_displacement * icr.growth_start / 0.04;

  ForceParams fp;
  fp.eps = 0.05 * icr.box_size / 16.0;
  fp.theta = 0.5;
  fp.n_crit = 64;
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);

  ComovingConfig cfg;
  cfg.a_start = icr.a_start;
  cfg.a_end = 4.0 * icr.a_start;
  cfg.steps = 32;
  ComovingSimulation sim(engine, cfg);
  const auto s = sim.run(pset);

  // Displacement *change* over the run ~ (D(a_end) - D(a_start)) * psi_rms
  // = 3 * rms0 for EdS. Allow a broad band: the realization has shot noise
  // and mild nonlinearity.
  const double expected_growth = 3.0 * rms0;
  EXPECT_GT(s.rms_comoving_displacement, 0.5 * expected_growth);
  EXPECT_LT(s.rms_comoving_displacement, 2.0 * expected_growth);
}

TEST(Comoving, LcdmGrowthFollowsGrowthFactor) {
  // Generality check: in flat LCDM the linear displacement growth follows
  // D(a) (which is NOT proportional to a); run a_i -> 8 a_i and compare.
  CosmologyParams lcdm{0.3, 0.7, 0.7};
  ic::CosmologicalSphereConfig cc;
  cc.grid_n = 16;
  cc.seed = 23;
  cc.cosmo = lcdm;
  const auto icr = ic::make_cosmological_sphere(cc);
  model::ParticleSet pset = icr.particles;
  const double G = model::gravitational_constant();
  for (auto& m : pset.mass()) m *= G;

  const Cosmology cosmo(lcdm);
  ComovingSimulation::physical_to_comoving(pset, cosmo, icr.a_start);
  // z = 24 displacement amplitude the IC generator applied.
  const double rms0 =
      icr.rms_displacement / icr.growth_start * cosmo.growth_factor(0.04);
  (void)rms0;

  ForceParams fp;
  fp.eps = 0.05 * icr.box_size / 16.0;
  fp.theta = 0.5;
  fp.n_crit = 64;
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);

  ComovingConfig cfg;
  cfg.cosmo = lcdm;
  cfg.a_start = icr.a_start;
  cfg.a_end = 8.0 * icr.a_start;  // still linear at these amplitudes
  cfg.steps = 48;
  ComovingSimulation sim(engine, cfg);
  const auto s = sim.run(pset);

  const double d_start = cosmo.growth_factor(cfg.a_start);
  const double d_end = cosmo.growth_factor(cfg.a_end);
  const double psi_rms = icr.rms_displacement / icr.growth_start;
  const double expected = (d_end - d_start) * psi_rms;
  EXPECT_GT(s.rms_comoving_displacement, 0.5 * expected);
  EXPECT_LT(s.rms_comoving_displacement, 2.0 * expected);
}

TEST(Comoving, Validation) {
  core::HostDirectEngine engine((ForceParams{}));
  ComovingConfig cfg;
  cfg.a_start = 0.5;
  cfg.a_end = 0.4;
  EXPECT_THROW(ComovingSimulation(engine, cfg), std::invalid_argument);
  cfg = ComovingConfig{};
  cfg.steps = 0;
  EXPECT_THROW(ComovingSimulation(engine, cfg), std::invalid_argument);
}

}  // namespace
