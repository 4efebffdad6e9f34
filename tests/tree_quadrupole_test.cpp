// Quadrupole moments: the host-side accuracy extension (the GRAPE
// pipelines consume point masses only).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engines.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "tree/groupwalk.hpp"
#include "util/stats.hpp"

namespace {

using namespace g5;
using math::Vec3d;
using tree::Quadrupole;

TEST(Quadrupole, TensorOfDumbbell) {
  // Two unit masses at +-d on the x-axis about their COM:
  // Q_xx = 2 m (3d^2 - d^2) = 4 m d^2, Q_yy = Q_zz = -2 m d^2, traceless.
  std::vector<Vec3d> pos{{1.0, 0.0, 0.0}, {-1.0, 0.0, 0.0}};
  std::vector<double> mass{1.0, 1.0};
  tree::BhTree tree;
  tree::TreeBuildConfig cfg;
  cfg.quadrupole = true;
  tree.build(pos, mass, cfg);
  const Quadrupole& q = tree.quadrupole(0);  // root
  EXPECT_NEAR(q.xx, 4.0, 1e-12);
  EXPECT_NEAR(q.yy, -2.0, 1e-12);
  EXPECT_NEAR(q.zz, -2.0, 1e-12);
  EXPECT_NEAR(q.xy, 0.0, 1e-12);
  EXPECT_NEAR(q.xx + q.yy + q.zz, 0.0, 1e-12);  // traceless
}

TEST(Quadrupole, DumbbellFieldBeatsMonopole) {
  // Evaluate the dumbbell's field at distance R along a diagonal: the
  // quadrupole term must capture most of the monopole residual.
  std::vector<Vec3d> pos{{0.6, 0.0, 0.0}, {-0.6, 0.0, 0.0}};
  std::vector<double> mass{1.0, 1.0};
  tree::BhTree tree;
  tree::TreeBuildConfig cfg;
  cfg.quadrupole = true;
  tree.build(pos, mass, cfg);

  const Vec3d target{3.0, 2.0, 1.0};
  // Exact field.
  Vec3d exact{};
  double pot_exact = 0.0;
  grape::host_forces_on_targets({&target, 1}, pos, mass, 0.0, {&exact, 1},
                                {&pot_exact, 1});

  // Monopole-only list vs quadrupole list (the root cell as one term).
  tree::InteractionList mono, quad;
  mono.push(tree.root().com, tree.root().mass);
  quad.push(tree.root().com, tree.root().mass, tree.quadrupole(0));

  Vec3d a_mono, a_quad;
  double p_mono, p_quad;
  tree::evaluate_list_host(mono, {&target, 1}, 0.0, {&a_mono, 1},
                           {&p_mono, 1});
  tree::evaluate_list_host(quad, {&target, 1}, 0.0, {&a_quad, 1},
                           {&p_quad, 1});

  const double mono_err = (a_mono - exact).norm() / exact.norm();
  const double quad_err = (a_quad - exact).norm() / exact.norm();
  EXPECT_LT(quad_err, 0.35 * mono_err);
  EXPECT_LT(std::fabs(p_quad - pot_exact), 0.5 * std::fabs(p_mono - pot_exact));
}

TEST(Quadrupole, SphericalCellHasSmallTensor) {
  // An isotropic particle cloud has Q ~ 0 relative to m * r^2.
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 5000, .seed = 3});
  tree::BhTree tree;
  tree::TreeBuildConfig cfg;
  cfg.quadrupole = true;
  tree.build(pset, cfg);
  const Quadrupole& q = tree.quadrupole(0);
  double mr2 = 0.0;
  for (std::size_t k = 0; k < pset.size(); ++k) {
    mr2 += tree.sorted_mass()[k] *
           (tree.sorted_pos()[k] - tree.root().com).norm2();
  }
  const double q_norm = std::sqrt(q.xx * q.xx + q.yy * q.yy + q.zz * q.zz +
                                  2 * (q.xy * q.xy + q.xz * q.xz +
                                       q.yz * q.yz));
  EXPECT_LT(q_norm, 0.2 * mr2);
}

TEST(Quadrupole, TreeForceErrorDropsAtEqualTheta) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 3000, .seed = 7});
  const double eps = 0.01;
  model::ParticleSet exact = pset;
  grape::host_direct_self(exact.pos(), exact.mass(), eps, exact.acc(),
                          exact.pot());

  auto rms_error = [&](bool quadrupole) {
    core::ForceParams fp;
    fp.eps = eps;
    fp.theta = 0.9;
    fp.n_crit = 128;
    fp.quadrupole = quadrupole;
    core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);
    model::ParticleSet work = pset;
    engine.compute(work);
    util::RunningStat err;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const double rn = exact.acc()[i].norm();
      if (rn > 0.0) err.add((work.acc()[i] - exact.acc()[i]).norm() / rn);
    }
    return err.rms();
  };

  const double mono = rms_error(false);
  const double quad = rms_error(true);
  EXPECT_LT(quad, 0.5 * mono);
}

TEST(Quadrupole, ListShapeConsistent) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 800, .seed = 9});
  tree::BhTree tree;
  tree::TreeBuildConfig cfg;
  cfg.quadrupole = true;
  tree.build(pset, cfg);
  tree::InteractionList list;
  tree::WalkConfig wc;
  wc.use_quadrupole = true;
  tree::walk_original(tree, pset.pos()[0], wc, list);
  EXPECT_TRUE(list.has_quadrupoles());
  EXPECT_EQ(list.quad.size(), list.size());
  // Particle entries carry zero tensors.
  std::size_t zero_tensors = 0;
  for (const auto& q : list.quad) {
    if (q.is_zero()) ++zero_tensors;
  }
  EXPECT_GT(zero_tensors, 0u);
  // Without the flag the quad array stays empty even on a quad-built tree.
  wc.use_quadrupole = false;
  tree::walk_original(tree, pset.pos()[0], wc, list);
  EXPECT_FALSE(list.has_quadrupoles());

  // Group walk honors the flag too.
  wc.use_quadrupole = true;
  const auto groups = tree::collect_groups(tree, tree::GroupConfig{64});
  tree::walk_group(tree, groups[0], wc, list);
  EXPECT_TRUE(list.has_quadrupoles());
  EXPECT_EQ(list.quad.size(), list.size());
}

TEST(Quadrupole, NotComputedUnlessRequested) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 100, .seed = 11});
  tree::BhTree tree;
  tree.build(pset);
  EXPECT_FALSE(tree.has_quadrupoles());
}

}  // namespace
