#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>

#include "grape/host_reference.hpp"
#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "tree/groupwalk.hpp"
#include "tree/walk.hpp"

namespace {

using namespace g5;
using math::Vec3d;
using tree::BhTree;
using tree::InteractionList;
using tree::WalkConfig;
using tree::WalkStats;

TEST(WalkOriginal, ThetaZeroExpandsToAllParticles) {
  const auto pset = ic::make_uniform_cube(200, -1.0, 1.0, 1.0, 3);
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  tree::walk_original(tree, pset.pos()[0], WalkConfig{0.0}, list);
  EXPECT_EQ(list.size(), 200u);
  double m = 0.0;
  for (double mm : list.mass) m += mm;
  EXPECT_NEAR(m, 1.0, 1e-12);
}

TEST(WalkOriginal, MassClosureAtAnyTheta) {
  // Every accepted cell carries its whole subtree's mass, so the list's
  // total mass always equals the system mass.
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 2000, .seed = 3});
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  for (double theta : {0.3, 0.75, 1.2}) {
    tree::walk_original(tree, pset.pos()[5], WalkConfig{theta}, list);
    double m = 0.0;
    for (double mm : list.mass) m += mm;
    EXPECT_NEAR(m, 1.0, 1e-12) << theta;
  }
}

TEST(WalkOriginal, ListShrinksWithTheta) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 4000, .seed = 5});
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  std::size_t prev = pset.size() + 1;
  for (double theta : {0.0, 0.4, 0.8, 1.5}) {
    tree::walk_original(tree, pset.pos()[7], WalkConfig{theta}, list);
    EXPECT_LE(list.size(), prev) << theta;
    prev = list.size();
  }
  EXPECT_LT(prev, pset.size() / 4);  // theta = 1.5 compresses a lot
}

TEST(WalkOriginal, ForceAccuracyImprovesWithSmallerTheta) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 3000, .seed = 7});
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  const double eps = 0.01;

  double prev_err = 1e9;
  for (double theta : {1.0, 0.6, 0.3}) {
    double err_sum = 0.0;
    int count = 0;
    for (std::size_t i = 0; i < pset.size(); i += 101) {
      const Vec3d target = pset.pos()[i];
      tree::walk_original(tree, target, WalkConfig{theta}, list);
      Vec3d acc;
      double pot;
      tree::evaluate_list_host(list, {&target, 1}, eps, {&acc, 1}, {&pot, 1});
      // Exact reference (skip self).
      Vec3d ref{};
      double pref = 0.0;
      grape::host_forces_on_targets({&target, 1}, pset.pos(), pset.mass(),
                                    eps, {&ref, 1}, {&pref, 1});
      // Both sides contain the self pair identically (zero force), so the
      // comparison is apples to apples.
      err_sum += (acc - ref).norm() / ref.norm();
      ++count;
    }
    const double mean_err = err_sum / count;
    EXPECT_LT(mean_err, prev_err);
    prev_err = mean_err;
    if (theta == 0.3) EXPECT_LT(mean_err, 5e-3);
  }
}

TEST(WalkOriginal, CountMatchesMaterializedList) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 1500, .seed = 9});
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  for (std::size_t i = 0; i < pset.size(); i += 77) {
    WalkStats ws_count, ws_list;
    const auto len_count =
        tree::count_original(tree, pset.pos()[i], WalkConfig{0.75}, &ws_count);
    const auto len_list =
        tree::walk_original(tree, pset.pos()[i], WalkConfig{0.75}, list,
                            &ws_list);
    EXPECT_EQ(len_count, len_list);
    EXPECT_EQ(ws_count.node_terms, ws_list.node_terms);
    EXPECT_EQ(ws_count.particle_terms, ws_list.particle_terms);
    EXPECT_EQ(ws_count.nodes_visited, ws_list.nodes_visited);
  }
}

TEST(WalkOriginal, StatsAccumulate) {
  const auto pset = ic::make_uniform_cube(500, -1.0, 1.0, 1.0, 11);
  BhTree tree;
  tree.build(pset);
  InteractionList list;
  WalkStats stats;
  for (int i = 0; i < 10; ++i) {
    tree::walk_original(tree, pset.pos()[static_cast<std::size_t>(i)],
                        WalkConfig{0.75}, list, &stats);
  }
  EXPECT_EQ(stats.lists, 10u);
  EXPECT_EQ(stats.interactions, stats.list_entries);
  EXPECT_EQ(stats.node_terms + stats.particle_terms, stats.list_entries);
  EXPECT_GE(stats.max_list, stats.mean_list());
  EXPECT_GT(stats.nodes_visited, 10u);
}

/// FNV-1a over 64-bit words.
struct WordHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Every entry's position, mass and (when carried) quadrupole bits in list
/// order, then the walk's visit count.
void hash_list(WordHash& hash, const InteractionList& list,
               std::uint64_t visits) {
  hash.add(static_cast<std::uint64_t>(list.size()));
  for (std::size_t j = 0; j < list.size(); ++j) {
    hash.add(list.pos[j].x);
    hash.add(list.pos[j].y);
    hash.add(list.pos[j].z);
    hash.add(list.mass[j]);
    if (list.has_quadrupoles()) {
      const tree::Quadrupole& q = list.quad[j];
      for (double v : {q.xx, q.yy, q.zz, q.xy, q.xz, q.yz}) hash.add(v);
    }
  }
  hash.add(visits);
}

void expect_same_stats(const WalkStats& a, const WalkStats& b) {
  EXPECT_EQ(a.lists, b.lists);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.list_entries, b.list_entries);
  EXPECT_EQ(a.node_terms, b.node_terms);
  EXPECT_EQ(a.particle_terms, b.particle_terms);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.max_list, b.max_list);
}

/// Tight knots of near-coincident bodies in a sparse halo: a deep tree
/// with very uneven groups.
model::ParticleSet knotted_set(std::size_t n) {
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

// The lists themselves, not only their lengths: a hash of every list of
// the per-target walk (from every slot) and of the group walk (every
// group), per particle set x MAC x monopole/quadrupole, in that order,
// per-target before group. The count-only walks must report each list's
// length and the walk's statistics.
TEST(WalkLists, ContentsPinned) {
  constexpr std::uint64_t kPinned[16] = {
      0x0a4cbc6d7cfccb33ULL, 0x853638bc1ad1d2ccULL,
      0x5b9d66baa6959b8cULL, 0x81fbca477f71fa18ULL,
      0x00653176ec99d454ULL, 0x9a14a88cd283f361ULL,
      0xfc3edf5f4b71c88bULL, 0x1fe4ad96a3e05f18ULL,
      0x3e34c1001d9222d3ULL, 0x3b5548743bab552fULL,
      0x375c79df525b5356ULL, 0xd5ca6d0d850357d3ULL,
      0xe6e0ac487271d41dULL, 0xfaadab7f45562b89ULL,
      0x965f0a6230373e3eULL, 0x215a48d813e532e5ULL};
  std::size_t k = 0;
  for (const auto& pset :
       {ic::make_plummer(ic::PlummerConfig{.n = 2000, .seed = 13}),
        knotted_set(1200)}) {
    BhTree tree;
    tree.build(pset, tree::TreeBuildConfig{.quadrupole = true});
    const auto groups = tree::collect_groups(tree, tree::GroupConfig{64});
    InteractionList list;
    for (tree::Mac mac : {tree::Mac::Edge, tree::Mac::Bmax}) {
      for (bool quads : {false, true}) {
        const WalkConfig cfg{0.7, mac, quads};
        WordHash per_target, per_group;
        for (std::size_t slot = 0; slot < pset.size(); ++slot) {
          const Vec3d& target = tree.sorted_pos()[slot];
          WalkStats walked, counted;
          const auto len =
              tree::walk_original(tree, target, cfg, list, &walked);
          ASSERT_EQ(tree::count_original(tree, target, cfg, &counted), len);
          expect_same_stats(counted, walked);
          hash_list(per_target, list, walked.nodes_visited);
        }
        for (const tree::Group& group : groups) {
          WalkStats walked, counted;
          const auto len = tree::walk_group(tree, group, cfg, list, &walked);
          ASSERT_EQ(tree::count_group(tree, group, cfg, &counted), len);
          expect_same_stats(counted, walked);
          hash_list(per_group, list, walked.nodes_visited);
        }
        for (const std::uint64_t got : {per_target.h, per_group.h}) {
          EXPECT_EQ(got, kPinned[k])
              << "case " << k << ": 0x" << std::hex << got;
          ++k;
        }
      }
    }
  }
}

TEST(WalkStats, MergeAddsCounters) {
  WalkStats a, b;
  a.lists = 2;
  a.interactions = 10;
  a.max_list = 7;
  b.lists = 3;
  b.interactions = 20;
  b.max_list = 9;
  a.merge(b);
  EXPECT_EQ(a.lists, 5u);
  EXPECT_EQ(a.interactions, 30u);
  EXPECT_EQ(a.max_list, 9u);
}

TEST(EvaluateListHost, SkipsExactCoincidenceUnsoftened) {
  InteractionList list;
  list.push(Vec3d{1.0, 1.0, 1.0}, 5.0);  // coincides with the target
  list.push(Vec3d{2.0, 1.0, 1.0}, 3.0);
  const Vec3d target{1.0, 1.0, 1.0};
  Vec3d acc;
  double pot;
  tree::evaluate_list_host(list, {&target, 1}, 0.0, {&acc, 1}, {&pot, 1});
  EXPECT_NEAR(acc.x, 3.0, 1e-12);
  EXPECT_NEAR(pot, -3.0, 1e-12);
}

}  // namespace
