// evaluate_list_host against independent scalar loops, bit for bit.
//
// Monopole lists evaluate four targets per pass over the list (the
// i-parallel lane loop) and the call's last 0-3 targets one at a time;
// every target's force and potential must be bitwise those of
// grape::host_forces_on_targets, whatever the target count, list length,
// softening, masses and coincident entries. Lists carrying quadrupoles
// keep the one-target loop: they are pinned against a copy of it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grape/host_reference.hpp"
#include "math/rng.hpp"
#include "tree/tree.hpp"
#include "tree/walk.hpp"

namespace {

using namespace g5;
using math::Vec3d;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A list of `len` entries around the origin, with the first `targets`
/// positions among them (each target meets itself), one more entry at
/// target 0's position with its own mass (a distinct coincident
/// particle), one whose nonzero separation from target 1 (the origin)
/// squares to zero in double, and masses that include zeros and
/// negatives.
struct Case {
  tree::InteractionList list;
  std::vector<Vec3d> targets;
  std::vector<double> self_mass;
};

Case make_case(std::size_t n_targets, std::size_t len, std::uint64_t seed) {
  math::Rng rng(seed);
  Case c;
  for (std::size_t i = 0; i < n_targets; ++i) {
    c.targets.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                         rng.uniform(-1.0, 1.0)});
  }
  if (n_targets > 1) c.targets[1] = Vec3d{};  // see the tiny offset below
  for (std::size_t k = 0; k < len; ++k) {
    Vec3d x{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0)};
    double m = rng.uniform(0.0, 1.0);
    if (k % 7 == 3) m = 0.0;
    if (k % 5 == 1) m = -m;
    if (k < n_targets) x = c.targets[k];  // the target itself
    c.list.push(x, m);
  }
  for (std::size_t i = 0; i < n_targets; ++i) {
    c.self_mass.push_back(i < len ? c.list.mass[i] : 0.0);
  }
  if (len > n_targets) {
    c.list.pos[n_targets] = c.targets[0];  // a distinct coincident particle
  }
  if (len > n_targets + 1 && n_targets > 1) {
    c.list.pos[n_targets + 1] = Vec3d{1e-170, -1e-171, 0.0};
  }
  return c;
}

void expect_bitwise(const std::vector<Vec3d>& acc,
                    const std::vector<double>& pot,
                    const std::vector<Vec3d>& ref_acc,
                    const std::vector<double>& ref_pot,
                    const std::string& what) {
  ASSERT_EQ(acc.size(), ref_acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    EXPECT_EQ(bits(acc[i].x), bits(ref_acc[i].x)) << what << " target " << i;
    EXPECT_EQ(bits(acc[i].y), bits(ref_acc[i].y)) << what << " target " << i;
    EXPECT_EQ(bits(acc[i].z), bits(ref_acc[i].z)) << what << " target " << i;
    EXPECT_EQ(bits(pot[i]), bits(ref_pot[i])) << what << " target " << i;
  }
}

TEST(HostListKernel, MonopoleIsBitwiseTheScalarOracle) {
  const std::size_t lengths[] = {1, 2, 3, 7, 10, 37, 101};
  const double epss[] = {0.05, 0.0};
  std::uint64_t seed = 1;
  for (std::size_t n_targets = 1; n_targets <= 2 * 4 + 1; ++n_targets) {
    for (const std::size_t len : lengths) {
      const Case c = make_case(n_targets, len, seed++);
      for (const double eps : epss) {
        for (const bool with_self : {false, true}) {
          const std::span<const double> self =
              with_self ? std::span<const double>(c.self_mass)
                        : std::span<const double>();
          std::vector<Vec3d> acc(n_targets), ref_acc(n_targets);
          std::vector<double> pot(n_targets), ref_pot(n_targets);
          tree::evaluate_list_host(c.list, c.targets, eps, acc, pot, self);
          grape::host_forces_on_targets(c.targets, c.list.pos, c.list.mass,
                                        eps, ref_acc, ref_pot, self);
          expect_bitwise(acc, pot, ref_acc, ref_pot,
                         "targets " + std::to_string(n_targets) + " len " +
                             std::to_string(len) + " eps " +
                             std::to_string(eps) +
                             (with_self ? " self" : ""));
        }
      }
    }
  }
}

TEST(HostListKernel, CoincidentParticleKeepsItsPotentialInEveryLane) {
  // Nine targets (two passes of four and one scalar), each in the list
  // once, plus a distinct particle on every one of them: the excess
  // -m/eps must reach each target whichever path evaluated it.
  const Case base = make_case(9, 40, 99);
  tree::InteractionList list = base.list;
  for (std::size_t i = 0; i < base.targets.size(); ++i) {
    list.push(base.targets[i], 0.5 + static_cast<double>(i));
  }
  std::vector<Vec3d> acc(9), ref_acc(9);
  std::vector<double> pot(9), ref_pot(9);
  tree::evaluate_list_host(list, base.targets, 0.05, acc, pot,
                           base.self_mass);
  grape::host_forces_on_targets(base.targets, list.pos, list.mass, 0.05,
                                ref_acc, ref_pot, base.self_mass);
  expect_bitwise(acc, pot, ref_acc, ref_pot, "coincident");
  std::vector<double> pot_cut(9);
  tree::evaluate_list_host(list, base.targets, 0.05, acc, pot_cut);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_LT(pot[i], pot_cut[i]) << "target " << i;  // the excess is kept
  }
}

TEST(HostListKernel, UnderflowingSeparationsAreCutInEveryLane) {
  // Five targets ~1e-160 apart: each meets itself and an entry 1e-170
  // away, whose r^2 underflows to zero (cut, its mass counted as
  // coincident), while the other targets are ~1e-160 away (r^2
  // subnormal, live). A cut term leaking into a lane's sums would move
  // them by far more than an ulp.
  std::vector<Vec3d> targets;
  tree::InteractionList list;
  std::vector<double> self_mass;
  for (std::size_t k = 0; k < 5; ++k) {
    const double s = static_cast<double>(k) * 1e-160;
    targets.push_back({s, -s, 0.5 * s});
    list.push(targets.back(), 1.0 + static_cast<double>(k));
    list.push(targets.back() + Vec3d{1e-170, 0.0, -1e-170}, 0.5);
    self_mass.push_back(1.0 + static_cast<double>(k));
  }
  for (const bool with_self : {false, true}) {
    const std::span<const double> self =
        with_self ? std::span<const double>(self_mass)
                  : std::span<const double>();
    std::vector<Vec3d> acc(5), ref_acc(5);
    std::vector<double> pot(5), ref_pot(5);
    tree::evaluate_list_host(list, targets, 0.05, acc, pot, self);
    grape::host_forces_on_targets(targets, list.pos, list.mass, 0.05,
                                  ref_acc, ref_pot, self);
    expect_bitwise(acc, pot, ref_acc, ref_pot,
                   with_self ? "underflow self" : "underflow");
  }
}

TEST(HostListKernel, NaNEntryReachesEveryLaneLikeTheScalarLoop) {
  // A NaN separation is not zero: the scalar loop adds its NaN terms, so
  // every lane must too, whatever the NaN's sign bit.
  const Case c = make_case(5, 12, 3);
  for (const double nan : {std::nan(""), -std::nan("")}) {
    tree::InteractionList list = c.list;
    list.push({nan, 0.0, 0.0}, 1.0);
    std::vector<Vec3d> acc(5), ref_acc(5);
    std::vector<double> pot(5), ref_pot(5);
    tree::evaluate_list_host(list, c.targets, 0.05, acc, pot);
    grape::host_forces_on_targets(c.targets, list.pos, list.mass, 0.05,
                                  ref_acc, ref_pot);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(std::isnan(ref_acc[i].x) && std::isnan(ref_pot[i]));
      EXPECT_TRUE(std::isnan(acc[i].x)) << "target " << i;
      EXPECT_TRUE(std::isnan(pot[i])) << "target " << i;
    }
  }
}

/// The one-target loop as it stood before the lane loop, quadrupole
/// terms included (no self-mass).
void reference_quadrupole(const tree::InteractionList& list,
                          std::span<const Vec3d> targets, double eps,
                          std::span<Vec3d> acc, std::span<double> pot) {
  const double eps2 = eps * eps;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Vec3d a{};
    double p = 0.0;
    const Vec3d xi = targets[i];
    for (std::size_t j = 0; j < list.size(); ++j) {
      const Vec3d dx = list.pos[j] - xi;
      if (dx.norm2() == 0.0) continue;
      const double r2 = dx.norm2() + eps2;
      const double rinv = 1.0 / std::sqrt(r2);
      const double rinv2 = rinv * rinv;
      const double rinv3 = rinv * rinv2;
      a += (list.mass[j] * rinv3) * dx;
      p -= list.mass[j] * rinv;
      const tree::Quadrupole& q = list.quad[j];
      if (q.is_zero()) continue;
      const double rinv5 = rinv3 * rinv2;
      const Vec3d qdx = q.apply(dx);
      const double dqd = dx.dot(qdx);
      a += -rinv5 * qdx + (2.5 * dqd * rinv5 * rinv2) * dx;
      p -= 0.5 * dqd * rinv5;
    }
    acc[i] = a;
    pot[i] = p;
  }
}

TEST(HostListKernel, QuadrupoleListsKeepTheScalarLoop) {
  const Case c = make_case(9, 53, 7);
  tree::InteractionList list;
  math::Rng rng(11);
  for (std::size_t k = 0; k < c.list.size(); ++k) {
    tree::Quadrupole q;
    if (k % 3 != 0) {
      q.xx = rng.uniform(-0.1, 0.1);
      q.yy = rng.uniform(-0.1, 0.1);
      q.zz = -(q.xx + q.yy);
      q.xy = rng.uniform(-0.1, 0.1);
      q.xz = rng.uniform(-0.1, 0.1);
      q.yz = rng.uniform(-0.1, 0.1);
    }
    list.push(c.list.pos[k], c.list.mass[k], q);
  }
  for (const double eps : {0.05, 0.0}) {
    std::vector<Vec3d> acc(9), ref_acc(9);
    std::vector<double> pot(9), ref_pot(9);
    tree::evaluate_list_host(list, c.targets, eps, acc, pot);
    reference_quadrupole(list, c.targets, eps, ref_acc, ref_pot);
    expect_bitwise(acc, pot, ref_acc, ref_pot,
                   "quadrupole eps " + std::to_string(eps));
  }
}

}  // namespace
