// Tree build determinism: the build (chunked bbox / keys, radix sort,
// subtree-task node construction, moments) must give bitwise-identical
// trees with no pool (the chunks in order on the calling thread) and on
// a pool of any lane count — same nodes_, keys_, orig_index_, sorted
// arrays and forces. Also pins the duplicate-Morton-key ordering:
// coincident particles sort by original index, so equal-key runs are a
// deterministic permutation regardless of how the build is threaded.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engines.hpp"
#include "ic/plummer.hpp"
#include "ic/uniform.hpp"
#include "tree/tree.hpp"
#include "util/parallel.hpp"

namespace {

using namespace g5;
using math::Vec3d;
using tree::BhTree;
using tree::Node;
using tree::TreeBuildConfig;

/// Field-by-field bitwise comparison of two built trees.
void expect_identical_trees(const BhTree& a, const BhTree& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.particle_count(), b.particle_count());
  EXPECT_EQ(a.root_lo(), b.root_lo());
  EXPECT_EQ(a.root_size(), b.root_size());
  EXPECT_EQ(a.max_depth_reached(), b.max_depth_reached());
  ASSERT_EQ(a.keys(), b.keys());
  ASSERT_EQ(a.original_index(), b.original_index());
  ASSERT_EQ(a.sorted_pos(), b.sorted_pos());
  ASSERT_EQ(a.sorted_mass(), b.sorted_mass());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const Node& na = a.node(i);
    const Node& nb = b.node(i);
    ASSERT_EQ(na.first, nb.first) << "node " << i;
    ASSERT_EQ(na.count, nb.count) << "node " << i;
    for (unsigned oct = 0; oct < 8; ++oct) {
      ASSERT_EQ(na.child[oct], nb.child[oct]) << "node " << i;
    }
    ASSERT_EQ(na.parent, nb.parent) << "node " << i;
    ASSERT_EQ(na.center, nb.center) << "node " << i;
    ASSERT_EQ(na.half_size, nb.half_size) << "node " << i;
    ASSERT_EQ(na.com, nb.com) << "node " << i;
    ASSERT_EQ(na.mass, nb.mass) << "node " << i;
    ASSERT_EQ(na.bradius, nb.bradius) << "node " << i;
    ASSERT_EQ(na.depth, nb.depth) << "node " << i;
    ASSERT_EQ(na.leaf, nb.leaf) << "node " << i;
  }
  ASSERT_EQ(a.has_quadrupoles(), b.has_quadrupoles());
  if (a.has_quadrupoles()) {
    for (std::size_t i = 0; i < a.node_count(); ++i) {
      const auto& qa = a.quadrupole(i);
      const auto& qb = b.quadrupole(i);
      ASSERT_EQ(qa.xx, qb.xx) << "node " << i;
      ASSERT_EQ(qa.yy, qb.yy) << "node " << i;
      ASSERT_EQ(qa.zz, qb.zz) << "node " << i;
      ASSERT_EQ(qa.xy, qb.xy) << "node " << i;
      ASSERT_EQ(qa.xz, qb.xz) << "node " << i;
      ASSERT_EQ(qa.yz, qb.yz) << "node " << i;
    }
  }
}

TreeBuildConfig build_config(bool quadrupole = false) {
  TreeBuildConfig cfg;
  cfg.quadrupole = quadrupole;
  return cfg;
}

/// Builds with no pool and on pools of 1, 2 and 4 lanes; all four trees
/// must be bitwise-identical.
void expect_identical_with_any_pool(std::span<const Vec3d> pos,
                                    std::span<const double> mass,
                                    const TreeBuildConfig& cfg) {
  BhTree no_pool;
  no_pool.build(pos, mass, cfg);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    util::ThreadPool pool(threads);
    BhTree pooled;
    pooled.build(pos, mass, cfg, &pool);
    expect_identical_trees(no_pool, pooled);
  }
}

/// Clusters of exactly coincident particles (their Morton keys tie),
/// interleaved in caller order, over a uniform background: n bodies.
void coincident_clusters(std::size_t n, std::vector<Vec3d>& pos,
                         std::vector<double>& mass) {
  const int kClusters = 7;
  const int kPerCluster = 97;  // > leaf_max: clusters hit the depth cap
  for (int rep = 0; rep < kPerCluster; ++rep) {
    for (int c = 0; c < kClusters; ++c) {
      pos.push_back(Vec3d{0.1 * c, -0.2 * c, 0.05 * c});
      mass.push_back(1.0 / (1.0 + c));
    }
  }
  const auto bg = ic::make_uniform_cube(n - pos.size(), -2.0, 2.0, 1.0, 17);
  for (std::size_t i = 0; i < bg.size(); ++i) {
    pos.push_back(bg.pos()[i]);
    mass.push_back(bg.mass()[i]);
  }
}

/// Sizes for the no-pool-vs-pool checks: one chunk, and more than three
/// chunks of the build's fixed 65,536-element chunk edge, whose last
/// chunk is short — on one lane every chunk must still be its own call.
constexpr std::size_t kSizes[] = {20000, 3 * 65536 + 17};

TEST(ParallelBuild, BitwiseIdenticalAcrossThreadCounts) {
  const auto pset = ic::make_plummer({.n = 20000, .seed = 7});
  BhTree serial;
  serial.build(pset, build_config());

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    BhTree par;
    par.build(pset, build_config(), &pool);
    expect_identical_trees(serial, par);
  }
}

TEST(ParallelBuild, QuadrupoleMomentsIdentical) {
  const auto pset = ic::make_uniform_cube(8192, -1.0, 1.0, 1.0, 11);
  BhTree serial;
  serial.build(pset, build_config(true));
  util::ThreadPool pool(4);
  BhTree par;
  par.build(pset, build_config(true), &pool);
  expect_identical_trees(serial, par);
}

TEST(ParallelBuild, ClusteredDistributionIdentical) {
  // Gaussian clumps produce deep, imbalanced subtrees — the worst case
  // for the top-of-tree task decomposition.
  const auto pset = ic::make_clustered(16384, 8, 2.0, 0.05, 1.0, 3);
  BhTree serial;
  serial.build(pset, build_config());
  util::ThreadPool pool(4);
  BhTree par;
  par.build(pset, build_config(), &pool);
  expect_identical_trees(serial, par);
}

TEST(ParallelBuild, NoPoolMatchesPooledBuild) {
  const auto pset = ic::make_plummer({.n = 4096, .seed = 3});
  BhTree no_pool;
  no_pool.build(pset);
  util::ThreadPool pool(4);
  BhTree par;
  par.build(pset, TreeBuildConfig{}, &pool);
  expect_identical_trees(no_pool, par);
}

TEST(ParallelBuild, NoPoolMatchesOneLanePool) {
  const auto pset = ic::make_plummer({.n = 8192, .seed = 5});
  BhTree no_pool;
  no_pool.build(pset);
  util::ThreadPool pool(1);
  BhTree one_lane;
  one_lane.build(pset, build_config(), &pool);
  expect_identical_trees(no_pool, one_lane);
}

TEST(ParallelBuild, MultiChunkPlummer) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    const auto pset = ic::make_plummer({.n = n, .seed = 29});
    expect_identical_with_any_pool(pset.pos(), pset.mass(),
                                   build_config(true));
  }
}

TEST(ParallelBuild, MultiChunkClustered) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    const auto pset = ic::make_clustered(n, 8, 2.0, 0.05, 1.0, 31);
    expect_identical_with_any_pool(pset.pos(), pset.mass(),
                                   build_config(true));
  }
}

TEST(ParallelBuild, MultiChunkCoincident) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    std::vector<Vec3d> pos;
    std::vector<double> mass;
    coincident_clusters(n, pos, mass);
    expect_identical_with_any_pool(pos, mass, build_config(true));
  }
}

TEST(ParallelBuild, CoincidentClustersPinSortOrder) {
  // Clusters of exactly coincident particles: their Morton keys tie, and
  // the pinned order is ascending original index within each run. The
  // cluster members are deliberately interleaved in caller order; the
  // background gives the build real subtree tasks.
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  coincident_clusters(7 * 97 + 4096, pos, mass);

  BhTree serial;
  serial.build(pos, mass, build_config());
  const auto& keys = serial.keys();
  const auto& orig = serial.original_index();
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[i - 1], keys[i]) << "keys not sorted at " << i;
    if (keys[i - 1] == keys[i]) {
      ASSERT_LT(orig[i - 1], orig[i])
          << "duplicate-key tie not broken by original index at " << i;
    }
  }

  for (const unsigned threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    BhTree par;
    par.build(pos, mass, build_config(), &pool);
    expect_identical_trees(serial, par);
  }
}

/// Engine-level check: forces bitwise-identical across thread counts for
/// both emulated-GRAPE backends and the host tree engine; the engines
/// build their trees on their walk pools.
class ParallelBuildForces : public ::testing::Test {
 protected:
  static core::ForceParams params(std::uint32_t threads,
                                  grape::BackendKind backend) {
    core::ForceParams fp;
    fp.eps = 0.02;
    fp.threads = threads;
    fp.backend = backend;
    return fp;
  }

  static void run(const std::string& engine_name, grape::BackendKind backend) {
    const auto base = ic::make_plummer({.n = 6000, .seed = 21});

    std::vector<Vec3d> ref_acc;
    std::vector<double> ref_pot;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      auto pset = base;
      auto engine = core::make_engine(engine_name, params(threads, backend));
      engine->compute(pset);
      if (ref_acc.empty()) {
        ref_acc.assign(pset.acc().begin(), pset.acc().end());
        ref_pot.assign(pset.pot().begin(), pset.pot().end());
        continue;
      }
      for (std::size_t i = 0; i < pset.size(); ++i) {
        ASSERT_EQ(pset.acc()[i], ref_acc[i])
            << engine_name << " acc diverges at " << i << " with " << threads
            << " threads";
        ASSERT_EQ(pset.pot()[i], ref_pot[i])
            << engine_name << " pot diverges at " << i << " with " << threads
            << " threads";
      }
    }
  }
};

TEST_F(ParallelBuildForces, HostTreeModified) {
  run("host-tree-modified", grape::BackendKind::BitExact);
}

TEST_F(ParallelBuildForces, GrapeTreeBitExact) {
  run("grape-tree", grape::BackendKind::BitExact);
}

TEST_F(ParallelBuildForces, GrapeTreeNative) {
  run("grape-tree", grape::BackendKind::Native);
}

}  // namespace
