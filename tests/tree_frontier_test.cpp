// The original walk, one frontier per group: walk_member's list for every
// member of every group must be walk_original's, bitwise (positions,
// masses, quadrupoles), with the same WalkStats — on smooth, uniform,
// knotted and coincident sets, on targets placed exactly on cell faces,
// across theta, both MACs, with and without quadrupoles, and group sizes
// from 1 to N. group_verdict's margins are checked directly on cells whose
// center of mass sits within rounding of the group's bounding sphere.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "tree/groupwalk.hpp"
#include "tree/walk.hpp"

namespace {

using namespace g5;
using math::Vec3d;
using tree::BhTree;
using tree::InteractionList;
using tree::Mac;
using tree::Verdict;
using tree::WalkConfig;
using tree::WalkStats;

/// Tight knots of near-coincident bodies in a sparse halo: a deep tree
/// with very uneven groups.
model::ParticleSet clustered_set(std::size_t n) {
  model::ParticleSet pset;
  pset.reserve(n);
  const double m = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    if (i % 3 == 0) {
      pset.add({1.0 - 1e-12 * t, 1.0 - 2e-12 * t, 1.0 + 1e-12 * t}, {}, m);
    } else {
      pset.add({std::cos(0.1 * t), std::sin(0.2 * t), std::cos(0.3 * t)}, {},
               m);
    }
  }
  return pset;
}

/// Bodies stacked on a few exact points (groups of coincident members,
/// leaves at the depth cap) plus a sparse halo.
model::ParticleSet coincident_set(std::size_t n) {
  model::ParticleSet pset;
  pset.reserve(n);
  const double m = 1.0 / static_cast<double>(n);
  const Vec3d stacks[3] = {{0.25, 0.25, 0.25}, {-0.5, 0.0, 0.5}, {0, 0, 0}};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    if (i % 4 != 0) {
      pset.add(stacks[i % 3], {}, m);
    } else {
      pset.add({std::sin(0.7 * t), std::cos(0.3 * t), std::sin(0.11 * t)}, {},
               m);
    }
  }
  return pset;
}

/// A Plummer set with one body of every leaf moved onto its leaf's lower
/// x face, where the containment test's `<=` decides; bodies whose move
/// would change the root cube stay, so the faces stay faces.
model::ParticleSet face_set(std::size_t n) {
  model::ParticleSet pset =
      ic::make_plummer(ic::PlummerConfig{.n = n, .seed = 5});
  BhTree tree;
  tree.build(pset);
  double min_x = std::numeric_limits<double>::infinity();
  for (const Vec3d& p : pset.pos()) min_x = std::min(min_x, p.x);
  for (const tree::Node& node : tree.nodes()) {
    if (!node.leaf || node.count == 0) continue;
    const double face = node.center.x - node.half_size;
    if (face < min_x) continue;
    pset.pos()[tree.original_index()[node.first]].x = face;
  }
  BhTree moved;
  moved.build(pset);
  EXPECT_EQ(moved.root_lo(), tree.root_lo());
  EXPECT_EQ(moved.root_size(), tree.root_size());
  return pset;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_lists(const InteractionList& want, const InteractionList& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  ASSERT_EQ(want.quad.size(), got.quad.size()) << what;
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_TRUE(same_bits(want.pos[j].x, got.pos[j].x) &&
                same_bits(want.pos[j].y, got.pos[j].y) &&
                same_bits(want.pos[j].z, got.pos[j].z) &&
                same_bits(want.mass[j], got.mass[j]))
        << what << " entry " << j;
  }
  for (std::size_t j = 0; j < want.quad.size(); ++j) {
    const tree::Quadrupole& a = want.quad[j];
    const tree::Quadrupole& b = got.quad[j];
    ASSERT_TRUE(same_bits(a.xx, b.xx) && same_bits(a.yy, b.yy) &&
                same_bits(a.zz, b.zz) && same_bits(a.xy, b.xy) &&
                same_bits(a.xz, b.xz) && same_bits(a.yz, b.yz))
        << what << " quadrupole " << j;
  }
}

void expect_same_stats(const WalkStats& a, const WalkStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.lists, b.lists) << what;
  EXPECT_EQ(a.interactions, b.interactions) << what;
  EXPECT_EQ(a.list_entries, b.list_entries) << what;
  EXPECT_EQ(a.node_terms, b.node_terms) << what;
  EXPECT_EQ(a.particle_terms, b.particle_terms) << what;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << what;
  EXPECT_EQ(a.max_list, b.max_list) << what;
}

/// Every member of every n_crit group: walk_member against
/// walk_original. Returns the shared entries summed over the groups'
/// frontiers.
std::uint64_t check_groups(const BhTree& tree, std::uint32_t n_crit,
                           const WalkConfig& cfg, const std::string& what) {
  const auto groups = tree::collect_groups(tree, tree::GroupConfig{n_crit});
  tree::WalkFrontier frontier;
  InteractionList want, got;
  WalkStats want_all, got_all;
  std::uint64_t shared = 0;
  for (const tree::Group& group : groups) {
    tree::walk_frontier(tree, group, cfg, frontier);
    shared += frontier.shared.size();
    for (std::uint32_t slot = group.first; slot < group.first + group.count;
         ++slot) {
      const Vec3d& target = tree.sorted_pos()[slot];
      WalkStats ws, gs;
      const std::size_t len =
          tree::walk_original(tree, target, cfg, want, &ws);
      EXPECT_EQ(tree::walk_member(tree, frontier, target, cfg, got, &gs), len)
          << what;
      expect_same_lists(want, got, what + " slot " + std::to_string(slot));
      expect_same_stats(ws, gs, what + " slot " + std::to_string(slot));
      if (::testing::Test::HasFatalFailure()) return shared;
      want_all.merge(ws);
      got_all.merge(gs);
    }
  }
  expect_same_stats(want_all, got_all, what + " totals");
  return shared;
}

struct SetCase {
  const char* name;
  model::ParticleSet (*make)();
};

class WalkFrontier : public ::testing::TestWithParam<SetCase> {};

TEST_P(WalkFrontier, MembersGetThePerTargetList) {
  const model::ParticleSet pset = GetParam().make();
  BhTree tree;
  tree.build(pset, tree::TreeBuildConfig{.quadrupole = true});
  const auto n = static_cast<std::uint32_t>(pset.size());
  for (double theta : {0.5, 0.75, 1.0}) {
    for (Mac mac : {Mac::Edge, Mac::Bmax}) {
      for (bool quads : {false, true}) {
        for (std::uint32_t n_crit : {1u, 8u, 256u, n}) {
          const std::string what =
              std::string(GetParam().name) + " theta " + std::to_string(theta) +
              (mac == Mac::Edge ? " edge" : " bmax") +
              (quads ? " quad" : " mono") + " n_crit " +
              std::to_string(n_crit);
          const std::uint64_t shared =
              check_groups(tree, n_crit, WalkConfig{theta, mac, quads}, what);
          if (HasFatalFailure()) return;
          // Below the root the frontier certifies much of the walk: a
          // path that left every node undecided would pass the equality
          // vacuously. The root's sphere holds every body, so a
          // one-group frontier certifies nothing.
          if (n_crit < n) EXPECT_GT(shared, 0u) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sets, WalkFrontier,
    ::testing::Values(
        SetCase{"plummer4k",
                [] {
                  return ic::make_plummer(
                      ic::PlummerConfig{.n = 4096, .seed = 11});
                }},
        SetCase{"cube",
                [] { return ic::make_uniform_cube(2000, -1, 1, 1, 4); }},
        SetCase{"clustered", [] { return clustered_set(1500); }},
        SetCase{"coincident", [] { return coincident_set(1000); }},
        SetCase{"faces", [] { return face_set(2000); }}),
    [](const ::testing::TestParamInfo<SetCase>& info) {
      return std::string(info.param.name);
    });

// A NaN theta fails every comparison: the per-target walk then opens
// every node, and the frontier, whose NaN bounds certify nothing, must
// leave the whole walk to the members.
TEST(WalkFrontierNonFinite, NanThetaCertifiesNothing) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 600, .seed = 2});
  BhTree tree;
  tree.build(pset);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Mac mac : {Mac::Edge, Mac::Bmax}) {
    EXPECT_EQ(check_groups(tree, 32, WalkConfig{nan, mac}, "nan theta"), 0u);
  }
}

// group_verdict against target_accepts on hand-built cells, where the
// member and the cell's center of mass lie within rounding of the
// bounding sphere: d - R below d's rounding error (accept side), d + R
// matched to s / theta (open side), and cells that contain the member
// while their center of mass lies outside the sphere. Every certified
// verdict must be each member's own, and each kind must occur.
TEST(WalkFrontierCertificate, HoldsWithinRounding) {
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> spread(0.5, 1.5);
  std::uniform_int_distribution<int> scale_exp(-20, 20);
  std::uniform_int_distribution<int> gap_exp(20, 56);
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<int> axis(0, 2);
  std::uniform_int_distribution<int> slack_exp(26, 52);
  const double theta = 0.75;
  const double theta2 = theta * theta;
  std::uint64_t accepted = 0, opened = 0;
  for (int trial = 0; trial < 300000; ++trial) {
    const double scale = std::ldexp(1.0, scale_exp(rng));
    const Vec3d gc{unit(rng) * scale, unit(rng) * scale, unit(rng) * scale};
    // Near an axis: the containment test is per axis, so only there can
    // a cell just beyond the sphere lie outside every member's reach.
    Vec3d dir{std::ldexp(unit(rng), -20), std::ldexp(unit(rng), -20),
              std::ldexp(unit(rng), -20)};
    const int a = axis(rng);
    (a == 0 ? dir.x : a == 1 ? dir.y : dir.z) = unit(rng) < 0 ? -1.0 : 1.0;
    dir = (1.0 / dir.norm()) * dir;
    const double r = scale * spread(rng);
    const Vec3d member = gc + r * dir;
    const Vec3d opposite = gc - r * dir;
    // The group's radius as BhTree computes bradius.
    const double radius = std::sqrt(
        std::max((member - gc).norm2(), (opposite - gc).norm2()));
    const double gap = r * std::ldexp(1.0, -gap_exp(rng));
    tree::Node node;
    const Mac mac = trial % 2 == 0 ? Mac::Bmax : Mac::Edge;
    double s = 0.0;
    switch (kind(rng)) {
      case 0:  // accept side: the com just beyond the member
        node.com = gc + (r + gap) * dir;
        node.center = node.com;
        s = theta * gap * spread(rng);
        break;
      case 1:  // open side: the com across the sphere, s near theta (d+R)
        node.com = gc - (r + gap) * dir;
        node.center = node.com;
        s = theta * (2.0 * r + gap) *
            (1.0 + std::ldexp(unit(rng), -slack_exp(rng)));
        break;
      default:  // a small cell around the member, its com far outside
        node.com = gc + (3.0 * r) * dir;
        node.center = member + std::ldexp(unit(rng), -50) * r * dir;
        s = theta * r * 0.5 * spread(rng);
        break;
    }
    if (mac == Mac::Bmax) {
      node.bradius = s;
      node.half_size = std::min(s, gap);
    } else {
      node.half_size = 0.5 * s;
    }
    const Verdict v = tree::group_verdict(node, gc, radius, theta2, mac);
    if (v == Verdict::Undecided) continue;
    for (const Vec3d& t : {member, opposite}) {
      const bool accepts = tree::target_accepts(node, t, theta2, mac);
      ASSERT_EQ(accepts, v == Verdict::AcceptAll)
          << "trial " << trial
          << (v == Verdict::AcceptAll ? " accept" : " open");
    }
    (v == Verdict::AcceptAll ? accepted : opened) += 1;
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(opened, 1000u);
}

// A cell whose center of mass lies beyond the sphere by only a few ulps
// of d, so d - R is below d's own rounding error, while the cell itself
// lies beyond every member on an axis (a hand-built node: in a tree the
// center of mass lies in its cell, and the containment margin then keeps
// d - R above R delta). Its nearest member may see a shorter distance
// than d - R, even none, so the frontier must leave the node undecided.
// A margin on d - R instead of on d and R accepts some of these cells
// while their nearest member opens them; the test counts those cases so
// that it cannot pass vacuously.
TEST(WalkFrontierCertificate, DMinusRBelowRoundingOfD) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> spread(0.25, 1.0);
  std::uniform_int_distribution<int> ulps(1, 8);
  const double theta2 = 0.75 * 0.75;
  const double down = 1.0 - 0x1p-30;
  std::uint64_t unsound_on_d_minus_r = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const Vec3d gc{unit(rng), unit(rng), unit(rng)};
    Vec3d dir{unit(rng), unit(rng), unit(rng)};
    dir = (1.0 / dir.norm()) * dir;
    const double r = spread(rng);
    const Vec3d member = gc + r * dir;
    const double radius = (member - gc).norm();
    const double gap = ulps(rng) * std::ldexp(0x1p-52, std::ilogb(r));
    tree::Node node;
    node.com = gc + (r + gap) * dir;
    const double d = (node.com - gc).norm();
    const double d_minus_r = d - radius;
    if (!(d_minus_r > 0.0)) continue;
    // A tiny cell past every member on x, with s under theta (d - R).
    const double s = std::sqrt(theta2) * d_minus_r * spread(rng);
    node.half_size = 0.5 * s;
    node.bradius = s;
    node.center = gc + Vec3d{4.0 * r, 0.0, 0.0};
    for (Mac mac : {Mac::Edge, Mac::Bmax}) {
      const Verdict v = tree::group_verdict(node, gc, radius, theta2, mac);
      const bool accepts = tree::target_accepts(node, member, theta2, mac);
      if (v != Verdict::Undecided) {
        ASSERT_EQ(accepts, v == Verdict::AcceptAll) << "trial " << trial;
      }
      const double base = d_minus_r * down;
      if (!accepts && s * s < theta2 * (base * base) * down) {
        ++unsound_on_d_minus_r;
      }
    }
  }
  EXPECT_GT(unsound_on_d_minus_r, 100u);
}

// NaN in any operand fails every comparison, so it certifies nothing and
// the member walks decide; a NaN bound must not read as "not above".
TEST(WalkFrontierCertificate, NonFiniteOperandsAreUndecided) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double theta2 = 0.5625;
  tree::Node far;
  far.com = {10.0, 0.0, 0.0};
  far.center = {10.0, 0.0, 0.0};
  far.half_size = 0.5;
  far.bradius = 0.5;
  for (Mac mac : {Mac::Edge, Mac::Bmax}) {
    ASSERT_EQ(tree::group_verdict(far, Vec3d{}, 1.0, theta2, mac),
              Verdict::AcceptAll);
    EXPECT_EQ(tree::group_verdict(far, Vec3d{}, 1.0, nan, mac),
              Verdict::Undecided);
    EXPECT_EQ(tree::group_verdict(far, Vec3d{}, nan, theta2, mac),
              Verdict::Undecided);
    EXPECT_EQ(tree::group_verdict(far, Vec3d{nan, 0.0, 0.0}, 1.0, theta2, mac),
              Verdict::Undecided);
    tree::Node node = far;
    node.com.x = nan;
    EXPECT_EQ(tree::group_verdict(node, Vec3d{}, 1.0, theta2, mac),
              Verdict::Undecided);
  }
  tree::Node node = far;
  node.bradius = nan;
  EXPECT_EQ(tree::group_verdict(node, Vec3d{}, 1.0, theta2, Mac::Bmax),
            Verdict::Undecided);
  node = far;
  node.half_size = nan;
  EXPECT_EQ(tree::group_verdict(node, Vec3d{}, 1.0, theta2, Mac::Edge),
            Verdict::Undecided);
}

}  // namespace
