// Coincident-pair semantics: two distinct particles at the same softened
// position exert zero force on each other by symmetry but a finite mutual
// potential -m/eps. The host evaluators used to drop EVERY zero-separation
// pair (losing that potential); with self-mass information they now exclude
// only the target's own self term. The legacy (empty self-mass) behavior
// is kept for GRAPE-pipeline comparisons, which expect the hardware cut.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engines.hpp"
#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "tree/walk.hpp"

namespace {

using namespace g5;
using math::Vec3d;

constexpr double kEps = 0.05;

TEST(CoincidentPairs, EvaluateListRecoversSoftenedPotential) {
  // Target at x with mass m1; the list holds the target itself plus a
  // distinct particle at exactly the same position with mass m2.
  const Vec3d x{0.25, -0.5, 1.0};
  const double m1 = 2.0, m2 = 3.0;
  tree::InteractionList list;
  list.push(x, m1);
  list.push(x, m2);

  Vec3d acc;
  double pot = 0.0;
  const double self_mass[] = {m1};
  tree::evaluate_list_host(list, {&x, 1}, kEps, {&acc, 1}, {&pot, 1},
                           self_mass);
  EXPECT_EQ(acc, Vec3d{});  // coincident force is exactly zero
  EXPECT_DOUBLE_EQ(pot, -m2 / kEps);  // ...but the potential survives

  // Legacy mode (no self-mass): both zero-separation entries dropped.
  tree::evaluate_list_host(list, {&x, 1}, kEps, {&acc, 1}, {&pot, 1});
  EXPECT_EQ(acc, Vec3d{});
  EXPECT_EQ(pot, 0.0);
}

TEST(CoincidentPairs, UnsoftenedZeroSeparationAlwaysSkipped) {
  const Vec3d x{1.0, 2.0, 3.0};
  tree::InteractionList list;
  list.push(x, 1.0);
  list.push(x, 4.0);
  Vec3d acc;
  double pot = 0.0;
  const double self_mass[] = {1.0};
  tree::evaluate_list_host(list, {&x, 1}, 0.0, {&acc, 1}, {&pot, 1},
                           self_mass);
  EXPECT_EQ(acc, Vec3d{});
  EXPECT_EQ(pot, 0.0);  // singular pair: no finite value to recover
}

TEST(CoincidentPairs, SelfAwareModeIsBitwiseIdenticalWithoutCoincidences) {
  // When no source coincides with the target except its own self term, the
  // correction is exactly 0.0 — results must match the legacy path bitwise.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 64, .seed = 17});
  tree::InteractionList list;
  for (std::size_t j = 0; j < pset.size(); ++j) {
    list.push(pset.pos()[j], pset.mass()[j]);
  }
  for (std::size_t i = 0; i < pset.size(); ++i) {
    Vec3d acc_legacy, acc_aware;
    double pot_legacy = 0.0, pot_aware = 0.0;
    const Vec3d xi = pset.pos()[i];
    tree::evaluate_list_host(list, {&xi, 1}, kEps, {&acc_legacy, 1},
                             {&pot_legacy, 1});
    const double self_mass[] = {pset.mass()[i]};
    tree::evaluate_list_host(list, {&xi, 1}, kEps, {&acc_aware, 1},
                             {&pot_aware, 1}, self_mass);
    ASSERT_EQ(acc_legacy, acc_aware) << i;
    ASSERT_EQ(pot_legacy, pot_aware) << i;
  }
}

TEST(CoincidentPairs, HostForcesOnTargetsRecoversPotential) {
  const Vec3d x{0.0, 0.0, 0.0};
  const std::vector<Vec3d> sources{x, {1.0, 0.0, 0.0}};
  const std::vector<double> masses{5.0, 1.0};
  Vec3d acc;
  double pot = 0.0;
  const double i_mass[] = {2.0};  // target mass differs from the coincident
  grape::host_forces_on_targets({&x, 1}, sources, masses, kEps, {&acc, 1},
                                {&pot, 1}, i_mass);
  // Expected: full source 0 potential minus the target's own self share,
  // plus the far source.
  const double far = -1.0 / std::sqrt(1.0 + kEps * kEps);
  EXPECT_DOUBLE_EQ(pot, -(5.0 - 2.0) / kEps + far);
}

TEST(CoincidentPairs, EnginesAgreeOnCoincidentPair) {
  // Two distinct equal-mass particles at the same point plus a far third
  // body: the coincident pair must see each other's softened potential
  // through both host engines, and the mutual forces must cancel exactly.
  model::ParticleSet base;
  const Vec3d x{0.1, 0.2, 0.3};
  base.add(x, {}, 1.5);
  base.add(x, {}, 1.5);
  base.add({5.0, 0.0, 0.0}, {}, 1.0);

  const core::ForceParams fp{.eps = kEps, .theta = 0.5, .n_crit = 2,
                             .leaf_max = 1};
  auto run = [&](core::ForceEngine& engine) {
    model::ParticleSet pset = base;
    engine.compute(pset);
    return pset;
  };

  core::HostDirectEngine direct(fp);
  core::TreeEngine tree_orig(fp, core::TreeEngine::Mode::Original);
  core::TreeEngine tree_mod(fp, core::TreeEngine::Mode::Modified);
  const auto a = run(direct);
  const auto b = run(tree_orig);
  const auto c = run(tree_mod);

  // The mutual potential -m/eps = -30 dominates the far body's share.
  EXPECT_LT(a.pot()[0], -1.5 / kEps + 1.0);
  EXPECT_DOUBLE_EQ(a.pot()[0], a.pot()[1]);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_NEAR(b.pot()[i], a.pot()[i], 1e-12) << i;
    ASSERT_NEAR(c.pot()[i], a.pot()[i], 1e-12) << i;
  }
  // Coincident bodies: identical acceleration (only the far body pulls).
  EXPECT_EQ(a.acc()[0], a.acc()[1]);
  EXPECT_NE(a.acc()[0], Vec3d{});
}

}  // namespace
