#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "tree/tree.hpp"

namespace {

using namespace g5;
using tree::BhTree;
using tree::Node;
using tree::TreeBuildConfig;
using math::Vec3d;

TEST(BhTree, EmptyAndSingle) {
  BhTree tree;
  tree.build(std::span<const Vec3d>{}, std::span<const double>{});
  EXPECT_TRUE(tree.empty());

  const Vec3d p{1.0, 2.0, 3.0};
  const double m = 5.0;
  tree.build(std::span<const Vec3d>(&p, 1), std::span<const double>(&m, 1));
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_TRUE(tree.root().leaf);
  EXPECT_EQ(tree.root().count, 1u);
  EXPECT_DOUBLE_EQ(tree.root().mass, 5.0);
  EXPECT_EQ(tree.root().com, p);
}

TEST(BhTree, ChildrenPartitionParentRange) {
  // 2,000 bodies split the root straight into subtree tasks; 40,000 put
  // a level of top nodes between the root and the tasks.
  for (const std::size_t n : {std::size_t{2000}, std::size_t{40000}}) {
    const auto pset = ic::make_uniform_cube(n, -1.0, 1.0, 1.0, 3);
    BhTree tree;
    tree.build(pset);
    // Subtree sizes, children first: every child follows its parent.
    std::vector<std::size_t> subtree(tree.node_count(), 1);
    for (std::size_t idx = tree.node_count(); idx-- > 0;) {
      const Node& node = tree.node(idx);
      for (int oct = 0; oct < 8; ++oct) {
        if (node.child[oct] < 0) continue;
        const auto child = static_cast<std::size_t>(node.child[oct]);
        ASSERT_GT(child, idx) << "child precedes parent at node " << idx;
        subtree[idx] += subtree[child];
      }
    }
    EXPECT_EQ(subtree[0], tree.node_count()) << "n " << n;
    for (std::size_t idx = 0; idx < tree.node_count(); ++idx) {
      const Node& node = tree.node(idx);
      if (node.leaf) continue;
      std::uint32_t covered = 0;
      std::uint32_t cursor = node.first;
      // Preorder layout: the first child sits right after its parent, and
      // each later child right after its previous sibling's subtree.
      std::size_t next = idx + 1;
      for (int oct = 0; oct < 8; ++oct) {
        if (node.child[oct] < 0) continue;
        const auto child_idx = static_cast<std::size_t>(node.child[oct]);
        EXPECT_EQ(child_idx, next) << "layout of node " << idx;
        next = child_idx + subtree[child_idx];
        const Node& child = tree.node(child_idx);
        EXPECT_EQ(child.first, cursor) << "gap in node " << idx;
        EXPECT_EQ(child.parent, static_cast<std::int32_t>(idx));
        EXPECT_EQ(child.depth, node.depth + 1);
        cursor = child.first + child.count;
        covered += child.count;
      }
      EXPECT_EQ(covered, node.count) << "node " << idx;
      EXPECT_EQ(next, idx + subtree[idx]) << "node " << idx;
    }
  }
}

TEST(BhTree, MassAndComConsistentAtEveryNode) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 3000, .seed = 5});
  BhTree tree;
  tree.build(pset);
  EXPECT_NEAR(tree.root().mass, 1.0, 1e-12);
  for (std::size_t idx = 0; idx < tree.node_count(); ++idx) {
    const Node& node = tree.node(idx);
    if (node.leaf) continue;
    double m = 0.0;
    Vec3d com{};
    for (int oct = 0; oct < 8; ++oct) {
      if (node.child[oct] < 0) continue;
      const Node& child = tree.node(static_cast<std::size_t>(node.child[oct]));
      m += child.mass;
      com += child.mass * child.com;
    }
    EXPECT_NEAR(node.mass, m, 1e-12 * (1.0 + m));
    EXPECT_LT((node.com - com / m).norm(), 1e-9);
  }
}

TEST(BhTree, ParticlesInsideTheirLeafCell) {
  const auto pset = ic::make_uniform_cube(1000, 0.0, 4.0, 1.0, 7);
  BhTree tree;
  tree.build(pset);
  for (std::size_t idx = 0; idx < tree.node_count(); ++idx) {
    const Node& node = tree.node(idx);
    for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
      const Vec3d d = tree.sorted_pos()[k] - node.center;
      const double slack = node.half_size * (1.0 + 1e-9) + 1e-12;
      EXPECT_LE(std::fabs(d.x), slack) << idx;
      EXPECT_LE(std::fabs(d.y), slack) << idx;
      EXPECT_LE(std::fabs(d.z), slack) << idx;
    }
  }
}

TEST(BhTree, BradiusBoundsMembers) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 1000, .seed = 9});
  BhTree tree;
  tree.build(pset);
  for (std::size_t idx = 0; idx < tree.node_count(); ++idx) {
    const Node& node = tree.node(idx);
    double worst = 0.0;
    for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
      worst = std::max(worst, (tree.sorted_pos()[k] - node.center).norm());
    }
    EXPECT_NEAR(node.bradius, worst, 1e-12 + 1e-9 * worst);
  }
}

TEST(BhTree, LeafCapacityRespected) {
  const auto pset = ic::make_uniform_cube(5000, -1.0, 1.0, 1.0, 11);
  TreeBuildConfig cfg;
  cfg.leaf_max = 4;
  BhTree tree;
  tree.build(pset.pos(), pset.mass(), cfg);
  for (std::size_t idx = 0; idx < tree.node_count(); ++idx) {
    const Node& node = tree.node(idx);
    if (node.leaf && node.depth < cfg.max_depth) {
      EXPECT_LE(node.count, 4u) << idx;
    }
  }
}

TEST(BhTree, OriginalIndexIsPermutation) {
  const auto pset = ic::make_uniform_cube(777, -1.0, 1.0, 1.0, 13);
  BhTree tree;
  tree.build(pset);
  std::set<std::uint32_t> seen(tree.original_index().begin(),
                               tree.original_index().end());
  EXPECT_EQ(seen.size(), 777u);
  EXPECT_EQ(*seen.rbegin(), 776u);
  // Sorted attributes match the original ones through the map.
  for (std::size_t slot = 0; slot < 777; slot += 37) {
    const auto orig = tree.original_index()[slot];
    EXPECT_EQ(tree.sorted_pos()[slot], pset.pos()[orig]);
    EXPECT_DOUBLE_EQ(tree.sorted_mass()[slot], pset.mass()[orig]);
  }
}

TEST(BhTree, DuplicatePositionsHandled) {
  // All particles at the same point: depth cap forces a fat leaf.
  std::vector<Vec3d> pos(50, Vec3d{1.0, 1.0, 1.0});
  std::vector<double> mass(50, 2.0);
  BhTree tree;
  tree.build(pos, mass);
  EXPECT_NEAR(tree.root().mass, 100.0, 1e-9);
  EXPECT_GE(tree.node_count(), 1u);
  // Tree terminates (depth cap) rather than recursing forever.
  EXPECT_LE(tree.max_depth_reached(), 21);
}

TEST(BhTree, SortedOrderIsMortonOrder) {
  const auto pset = ic::make_uniform_cube(500, -1.0, 1.0, 1.0, 17);
  BhTree tree;
  tree.build(pset);
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < tree.particle_count(); ++k) {
    const auto key =
        math::morton_key(tree.sorted_pos()[k], tree.root_lo(),
                         tree.root_size());
    EXPECT_GE(key, prev) << k;
    prev = key;
  }
}

TEST(BhTree, MismatchedInputsThrow) {
  std::vector<Vec3d> pos(3);
  std::vector<double> mass(2);
  BhTree tree;
  EXPECT_THROW(tree.build(pos, mass), std::invalid_argument);
}

TEST(BhTree, RootCubeCoversAllParticles) {
  const auto pset = ic::make_plummer(ic::PlummerConfig{.n = 500, .seed = 23});
  BhTree tree;
  tree.build(pset);
  const Vec3d lo = tree.root_lo();
  const double size = tree.root_size();
  for (const auto& p : pset.pos()) {
    EXPECT_GE(p.x, lo.x);
    EXPECT_LE(p.x, lo.x + size);
    EXPECT_GE(p.y, lo.y);
    EXPECT_LE(p.y, lo.y + size);
    EXPECT_GE(p.z, lo.z);
    EXPECT_LE(p.z, lo.z + size);
  }
}

}  // namespace
