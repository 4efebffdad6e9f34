// Barnes-Hut octree over a particle snapshot.
//
// Construction is the standard Morton-order linear build: particles are
// sorted by Morton key of their position inside the root cube, every
// octree cell then owns a contiguous index range, and the tree is built
// recursively by splitting ranges at octant boundaries (binary search on
// the sorted keys). Monopole moments (mass, center of mass) are computed
// per node from its contiguous particle range — GRAPE-5 evaluates
// point-mass forces, so monopole is what the paper's code shipped to the
// hardware.
//
// Every phase (bounding box, keys, radix sort, node construction,
// moments) runs in fixed chunks across a util::ThreadPool's lanes, or in
// order on the calling thread without one. The tree is bitwise-identical
// for any lane count: chunk boundaries, the sort order (Morton key, then
// original index), the node preorder layout, and every per-node moment
// loop are independent of how chunks land on lanes.
//
// The tree keeps its own sorted copies of positions and masses; walks emit
// interaction lists that point into these arrays, and `original_index`
// maps sorted slots back to the caller's ordering.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "math/morton.hpp"
#include "math/vec3.hpp"
#include "model/particles.hpp"

namespace g5::util {
class ThreadPool;
}

namespace g5::tree {

using math::Vec3d;

struct TreeBuildConfig {
  /// A cell with <= leaf_max bodies becomes a leaf.
  std::uint32_t leaf_max = 8;
  /// Hard depth cap. Morton keys resolve 21 levels, so the build clamps
  /// this to [0, kMortonBitsPerDim - 1] — deeper splits could never
  /// separate particles.
  int max_depth = math::kMortonBitsPerDim - 1;
  /// Also compute traceless quadrupole moments per node. GRAPE-5 consumes
  /// point masses only, so quadrupoles serve the host-evaluation path
  /// (accuracy-vs-cost ablation against the hardware's monopole lists).
  bool quadrupole = false;
};

/// Traceless quadrupole tensor about the node's center of mass:
/// Q_ij = sum_k m_k (3 dx_i dx_j - |dx|^2 delta_ij).
struct Quadrupole {
  double xx = 0.0, yy = 0.0, zz = 0.0;
  double xy = 0.0, xz = 0.0, yz = 0.0;

  [[nodiscard]] bool is_zero() const {
    return xx == 0.0 && yy == 0.0 && zz == 0.0 && xy == 0.0 && xz == 0.0 &&
           yz == 0.0;
  }
  /// Q * v (symmetric matrix-vector product).
  [[nodiscard]] Vec3d apply(const Vec3d& v) const {
    return {xx * v.x + xy * v.y + xz * v.z,
            xy * v.x + yy * v.y + yz * v.z,
            xz * v.x + yz * v.y + zz * v.z};
  }
};

struct Node {
  std::uint32_t first = 0;   ///< first particle slot (sorted order)
  std::uint32_t count = 0;   ///< particles in the subtree
  std::int32_t child[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  std::int32_t parent = -1;
  Vec3d center{};            ///< geometric cell center
  double half_size = 0.0;    ///< half the cell edge
  Vec3d com{};               ///< center of mass of the subtree
  double mass = 0.0;
  /// Distance from the cell center to the farthest member particle
  /// (bounding radius used by the grouped walk's opening criterion).
  double bradius = 0.0;
  std::uint8_t depth = 0;
  bool leaf = true;

  [[nodiscard]] double edge() const { return 2.0 * half_size; }
};

class BhTree {
 public:
  BhTree() = default;

  /// Build over the given snapshot (positions copied and sorted inside).
  /// With a pool every phase runs across its lanes; without one the same
  /// chunks run in order on the calling thread. The tree is
  /// bitwise-identical either way, for any lane count. The pool must not
  /// be executing another parallel_for (ThreadPool is not reentrant).
  void build(std::span<const Vec3d> pos, std::span<const double> mass,
             const TreeBuildConfig& config = TreeBuildConfig{},
             util::ThreadPool* pool = nullptr);

  /// Convenience overload.
  void build(const model::ParticleSet& pset,
             const TreeBuildConfig& config = TreeBuildConfig{},
             util::ThreadPool* pool = nullptr) {
    build(pset.pos(), pset.mass(), config, pool);
  }

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t particle_count() const noexcept {
    return sorted_pos_.size();
  }

  [[nodiscard]] const Node& node(std::size_t idx) const {
    return nodes_[idx];
  }
  /// Quadrupole of a node (valid when built with config.quadrupole).
  [[nodiscard]] const Quadrupole& quadrupole(std::size_t idx) const {
    return quads_.at(idx);
  }
  [[nodiscard]] bool has_quadrupoles() const noexcept {
    return !quads_.empty();
  }
  [[nodiscard]] const Node& root() const { return nodes_.front(); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }

  /// Particle attributes in tree (Morton) order.
  [[nodiscard]] const std::vector<Vec3d>& sorted_pos() const noexcept {
    return sorted_pos_;
  }
  [[nodiscard]] const std::vector<double>& sorted_mass() const noexcept {
    return sorted_mass_;
  }
  /// sorted slot -> caller index.
  [[nodiscard]] const std::vector<std::uint32_t>& original_index()
      const noexcept {
    return orig_index_;
  }
  /// Morton keys in sorted order. Ties (coincident particles) are broken
  /// by original index, so equal-key runs of original_index() ascend.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }

  [[nodiscard]] const TreeBuildConfig& config() const noexcept {
    return cfg_;
  }
  /// Root cube (cubic hull of the snapshot, slightly padded).
  [[nodiscard]] Vec3d root_lo() const noexcept { return root_lo_; }
  [[nodiscard]] double root_size() const noexcept { return root_size_; }

  [[nodiscard]] int max_depth_reached() const noexcept { return max_depth_; }

 private:
  TreeBuildConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<Quadrupole> quads_;
  std::vector<Vec3d> sorted_pos_;
  std::vector<double> sorted_mass_;
  std::vector<std::uint32_t> orig_index_;
  std::vector<std::uint64_t> keys_;
  /// Radix-sort ping-pong halves; kept as members so steady-state
  /// per-step rebuilds reuse their capacity.
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint32_t> idx_scratch_;
  Vec3d root_lo_{};
  double root_size_ = 0.0;
  int max_depth_ = 0;

  /// A cell with `count` bodies at `depth` gets children.
  [[nodiscard]] bool splits(std::uint32_t count, int depth) const {
    return count > cfg_.leaf_max && depth < cfg_.max_depth;
  }
  /// Recursive preorder structure build into `arena` (node fields except
  /// moments; child/parent indices are arena-local, the arena root's
  /// parent is `parent`). Returns the arena index of the subtree root and
  /// maxes the deepest level into `max_depth`.
  std::int32_t build_structure(std::vector<Node>& arena, std::uint32_t first,
                               std::uint32_t count, int depth,
                               const Vec3d& center, double half_size,
                               std::int32_t parent, int& max_depth) const;
  /// Node construction: top-of-tree split into subtree tasks, per-task
  /// arenas built across the pool, stitched into nodes_ in preorder (a
  /// node, then each child's whole subtree in octant order).
  void build_nodes(std::uint32_t n, const Vec3d& center, double half_size,
                   util::ThreadPool& pool);
  /// Stable LSD radix sort of (keys_, orig_index_) pairs by key across
  /// the pool: ascending key, ties in ascending original index.
  void sort_pairs(std::uint32_t n, util::ThreadPool& pool);
  /// Per-node monopole moments (mass, com, bradius) over [begin, end).
  void moments_range(std::size_t begin, std::size_t end);
  /// Per-node quadrupole moments over [begin, end).
  void quadrupole_range(std::size_t begin, std::size_t end);
};

}  // namespace g5::tree
