#include "tree/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace g5::tree {

namespace {

/// Fixed chunk edge of the build phases. Chunk boundaries depend only on
/// N, never on the lane count — the determinism contract of every
/// per-chunk merge below.
constexpr std::size_t kChunk = std::size_t{1} << 16;

/// LSD radix sort geometry: 8-bit digits over the 63 used key bits.
constexpr unsigned kRadixBits = 8;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
constexpr unsigned kRadixPasses = 8;

constexpr std::size_t chunk_count(std::size_t n) {
  return (n + kChunk - 1) / kChunk;
}

/// Cell node with its range and geometry set (no children, no moments).
Node make_cell(std::uint32_t first, std::uint32_t count, int depth,
               const Vec3d& center, double half_size, std::int32_t parent) {
  Node node;
  node.first = first;
  node.count = count;
  node.center = center;
  node.half_size = half_size;
  node.depth = static_cast<std::uint8_t>(depth);
  node.parent = parent;
  return node;
}

/// Calls fn(oct, first, count, center, half_size) for every non-empty
/// octant child of the cell over the sorted keys [first, first + count)
/// at `depth`, in octant order. Keys are sorted, so each octant is a
/// contiguous sub-range found by binary search on its 3-bit digit.
template <typename Fn>
void for_each_octant(const std::vector<std::uint64_t>& keys,
                     std::uint32_t first, std::uint32_t count, int depth,
                     const Vec3d& center, double half_size, Fn&& fn) {
  const double quarter = 0.5 * half_size;
  std::uint32_t begin = first;
  const std::uint32_t end = first + count;
  for (unsigned oct = 0; oct < 8 && begin < end; ++oct) {
    // Upper bound of this octant's range.
    std::uint32_t lo = begin, hi = end;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (math::morton_octant(keys[mid], depth) <= oct) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > begin) {
      const Vec3d child_center{center.x + ((oct & 1u) ? quarter : -quarter),
                               center.y + ((oct & 2u) ? quarter : -quarter),
                               center.z + ((oct & 4u) ? quarter : -quarter)};
      fn(oct, begin, lo - begin, child_center, quarter);
    }
    begin = lo;
  }
}

}  // namespace

void BhTree::build(std::span<const Vec3d> pos, std::span<const double> mass,
                   const TreeBuildConfig& config, util::ThreadPool* pool) {
  if (pos.size() != mass.size()) {
    throw std::invalid_argument("position/mass arity mismatch");
  }
  if (pos.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("tree supports < 2^32 particles");
  }
  cfg_ = config;
  // Morton keys resolve kMortonBitsPerDim levels; below that every body in
  // a cell shares the remaining digit stream, so further splits could never
  // separate particles (they would only grow single-child chains, overflow
  // the uint8 node depth, and read octant digits past the key). Clamp the
  // cap instead of trusting the caller's value.
  cfg_.max_depth =
      std::clamp(cfg_.max_depth, 0, math::kMortonBitsPerDim - 1);
  nodes_.clear();
  quads_.clear();
  max_depth_ = 0;
  const auto n = static_cast<std::uint32_t>(pos.size());
  sorted_pos_.resize(n);
  sorted_mass_.resize(n);
  orig_index_.resize(n);
  keys_.resize(n);
  if (n == 0) return;

  // Without a pool the same chunks run in order on the calling thread; a
  // one-lane pool starts no thread.
  std::optional<util::ThreadPool> own_pool;
  if (pool == nullptr) pool = &own_pool.emplace(1u);
  util::Stopwatch build_watch;

  // Cubic hull, padded so boundary particles stay strictly inside.
  // Per-chunk hulls merged in chunk order (min/max is exact).
  model::Aabb box{pos[0], pos[0]};
  {
    G5_OBS_SPAN("bbox", "tree");
    std::vector<model::Aabb> partial(chunk_count(n), box);
    pool->parallel_for(
        n, kChunk, [&](std::size_t begin, std::size_t end, unsigned) {
          model::Aabb local{pos[begin], pos[begin]};
          for (std::size_t i = begin; i < end; ++i) {
            local.lo = math::cwise_min(local.lo, pos[i]);
            local.hi = math::cwise_max(local.hi, pos[i]);
          }
          partial[begin / kChunk] = local;
        });
    for (const auto& p : partial) {
      box.lo = math::cwise_min(box.lo, p.lo);
      box.hi = math::cwise_max(box.hi, p.hi);
    }
  }
  const double size = std::max(box.cube_size(), 1e-300) * (1.0 + 1e-9);
  const Vec3d center = box.center();
  root_lo_ = center - Vec3d{0.5 * size, 0.5 * size, 0.5 * size};
  root_size_ = size;

  // Morton keys, still in caller order (keys_[i] belongs to particle i
  // until the sort below permutes the pairs).
  {
    G5_OBS_SPAN("keys", "tree");
    pool->parallel_for(
        n, kChunk, [&](std::size_t begin, std::size_t end, unsigned) {
          // g5lint: hot-begin(tree_keys)
          for (std::size_t i = begin; i < end; ++i) {
            keys_[i] = math::morton_key(pos[i], root_lo_, root_size_);
            orig_index_[i] = static_cast<std::uint32_t>(i);
          }
          // g5lint: hot-end
        });
  }

  // Sort the (key, original index) pairs by key, ties broken by original
  // index — the pinned order coincident particles rely on: the radix sort
  // is stable and starts from the identity permutation.
  {
    G5_OBS_SPAN("sort", "tree");
    sort_pairs(n, *pool);
    pool->parallel_for(
        n, kChunk, [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t src = orig_index_[i];
            sorted_pos_[i] = pos[src];
            sorted_mass_[i] = mass[src];
          }
        });
  }

  {
    G5_OBS_SPAN("nodes", "tree");
    build_nodes(n, center, 0.5 * size, *pool);
  }

  {
    G5_OBS_SPAN("moments", "tree");
    pool->parallel_for(nodes_.size(), 64,
                       [&](std::size_t begin, std::size_t end, unsigned) {
                         moments_range(begin, end);
                       });
    if (cfg_.quadrupole) {
      quads_.resize(nodes_.size());
      pool->parallel_for(nodes_.size(), 64,
                         [&](std::size_t begin, std::size_t end, unsigned) {
                           quadrupole_range(begin, end);
                         });
    }
  }

  if (obs::enabled()) {
    obs::histogram("g5.tree.build_ms").observe(build_watch.elapsed() * 1e3);
  }
}

void BhTree::build_nodes(std::uint32_t n, const Vec3d& center,
                         double half_size, util::ThreadPool& pool) {
  // Subtree task planned by the top-of-tree split: one complete octant
  // subtree, built into a private arena by one pool lane.
  struct SubtreeTask {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    int depth = 0;
    Vec3d center{};
    double half_size = 0.0;
  };
  // Node of the top of the tree; children are either other top nodes or
  // whole subtree tasks, per octant.
  struct TopNode {
    Node node;
    std::int32_t child_top[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    std::int32_t child_task[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  };

  // Stop the top descent once a subtree is small enough to be one task.
  // Depends only on N (never on the lane count), so the task
  // decomposition — and with it the stitched layout — is identical for
  // every thread count. The depth cap bounds the skeleton for adversarial
  // (e.g. fully coincident) distributions.
  const std::uint32_t top_cutoff = std::max(4096u, n / 256u);
  constexpr int kTopDepthCap = 8;

  std::vector<TopNode> tops;
  std::vector<SubtreeTask> tasks;
  tops.reserve(1024);
  tasks.reserve(1024);

  // Top split on the calling thread: the build_structure recursion,
  // except that child subtrees below the cutoff become tasks.
  const auto plan = [&](auto&& self, std::uint32_t first, std::uint32_t count,
                        int depth, const Vec3d& cell_center, double cell_half,
                        std::int32_t parent) -> std::int32_t {
    const auto ti = static_cast<std::int32_t>(tops.size());
    tops.emplace_back();
    tops.back().node =
        make_cell(first, count, depth, cell_center, cell_half, parent);
    max_depth_ = std::max(max_depth_, depth);
    if (!splits(count, depth)) return ti;
    tops[static_cast<std::size_t>(ti)].node.leaf = false;
    for_each_octant(
        keys_, first, count, depth, cell_center, cell_half,
        [&](unsigned oct, std::uint32_t child_first, std::uint32_t child_count,
            const Vec3d& child_center, double child_half) {
          if (splits(child_count, depth + 1) && child_count > top_cutoff &&
              depth + 1 < kTopDepthCap) {
            const std::int32_t child = self(self, child_first, child_count,
                                            depth + 1, child_center,
                                            child_half, ti);
            tops[static_cast<std::size_t>(ti)].child_top[oct] = child;
          } else {
            tops[static_cast<std::size_t>(ti)].child_task[oct] =
                static_cast<std::int32_t>(tasks.size());
            tasks.push_back(SubtreeTask{child_first, child_count, depth + 1,
                                        child_center, child_half});
          }
        });
    return ti;
  };
  plan(plan, 0, n, 0, center, half_size, -1);

  // Build every subtree into its own arena across the pool. Each task
  // writes only its own arena and depth slot, so the results are
  // lane-assignment independent.
  std::vector<std::vector<Node>> arenas(tasks.size());
  std::vector<int> task_depth(tasks.size(), 0);
  pool.parallel_for(
      tasks.size(), 1, [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t t = begin; t < end; ++t) {
          const SubtreeTask& task = tasks[t];
          std::vector<Node>& arena = arenas[t];
          arena.reserve(2 * task.count / std::max(1u, cfg_.leaf_max) + 16);
          build_structure(arena, task.first, task.count, task.depth,
                          task.center, task.half_size, -1, task_depth[t]);
        }
      });
  for (const int depth : task_depth) max_depth_ = std::max(max_depth_, depth);

  // Stitch: a preorder walk over the top skeleton assigns every top node
  // and every task arena its final index block — node, then the octant
  // children's complete subtrees in order, the layout build_structure
  // emits. Top nodes are written here; the arenas are rebased and copied
  // across the pool afterwards.
  std::size_t total = tops.size();
  for (const auto& arena : arenas) total += arena.size();
  nodes_.resize(total);
  std::vector<std::int32_t> task_base(tasks.size(), 0);
  std::vector<std::int32_t> task_parent(tasks.size(), -1);
  std::size_t cursor = 0;
  const auto emit = [&](auto&& self, std::int32_t ti,
                        std::int32_t parent_final) -> void {
    const auto final_idx = static_cast<std::int32_t>(cursor++);
    const TopNode& top = tops[static_cast<std::size_t>(ti)];
    Node& dst = nodes_[static_cast<std::size_t>(final_idx)];
    dst = top.node;
    dst.parent = parent_final;
    for (unsigned oct = 0; oct < 8; ++oct) {
      if (top.child_top[oct] >= 0) {
        dst.child[oct] = static_cast<std::int32_t>(cursor);
        self(self, top.child_top[oct], final_idx);
      } else if (top.child_task[oct] >= 0) {
        const auto t = static_cast<std::size_t>(top.child_task[oct]);
        const auto base = static_cast<std::int32_t>(cursor);
        dst.child[oct] = base;
        task_base[t] = base;
        task_parent[t] = final_idx;
        cursor += arenas[t].size();
      }
    }
  };
  emit(emit, 0, -1);

  // Rebase each arena's local indices by its block base and copy it into
  // place; blocks are disjoint, so the copies parallelize freely.
  pool.parallel_for(
      tasks.size(), 1, [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::vector<Node>& arena = arenas[t];
          const std::int32_t base = task_base[t];
          // g5lint: hot-begin(tree_stitch)
          for (std::size_t j = 0; j < arena.size(); ++j) {
            Node& dst = nodes_[static_cast<std::size_t>(base) + j];
            dst = arena[j];
            for (unsigned oct = 0; oct < 8; ++oct) {
              if (dst.child[oct] >= 0) dst.child[oct] += base;
            }
            dst.parent = dst.parent >= 0 ? dst.parent + base : task_parent[t];
          }
          // g5lint: hot-end
        }
      });
}

std::int32_t BhTree::build_structure(std::vector<Node>& arena,
                                     std::uint32_t first, std::uint32_t count,
                                     int depth, const Vec3d& center,
                                     double half_size, std::int32_t parent,
                                     int& max_depth) const {
  const auto idx = static_cast<std::int32_t>(arena.size());
  // g5lint: hot-begin(tree_nodes)
  arena.push_back(make_cell(first, count, depth, center, half_size, parent));
  // g5lint: hot-end
  max_depth = std::max(max_depth, depth);
  if (!splits(count, depth)) return idx;
  arena[static_cast<std::size_t>(idx)].leaf = false;
  for_each_octant(
      keys_, first, count, depth, center, half_size,
      [&](unsigned oct, std::uint32_t child_first, std::uint32_t child_count,
          const Vec3d& child_center, double child_half) {
        const std::int32_t child =
            build_structure(arena, child_first, child_count, depth + 1,
                            child_center, child_half, idx, max_depth);
        arena[static_cast<std::size_t>(idx)].child[oct] = child;
      });
  return idx;
}

void BhTree::sort_pairs(std::uint32_t n, util::ThreadPool& pool) {
  key_scratch_.resize(n);
  idx_scratch_.resize(n);
  const std::size_t chunks = chunk_count(n);
  // Per-(chunk, digit) histogram; cell (c, d) is touched only by chunk c
  // in both the count and scatter sweeps, so the table needs no locks and
  // the scatter offsets are independent of lane assignment.
  std::vector<std::uint32_t> hist(chunks * kRadixBuckets);

  std::uint64_t* key_src = keys_.data();
  std::uint64_t* key_dst = key_scratch_.data();
  std::uint32_t* idx_src = orig_index_.data();
  std::uint32_t* idx_dst = idx_scratch_.data();

  for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
    const unsigned shift = pass * kRadixBits;
    pool.parallel_for(
        n, kChunk, [&](std::size_t begin, std::size_t end, unsigned) {
          std::uint32_t* row = hist.data() + (begin / kChunk) * kRadixBuckets;
          std::fill(row, row + kRadixBuckets, 0u);
          // g5lint: hot-begin(tree_radix_count)
          for (std::size_t i = begin; i < end; ++i) {
            ++row[(key_src[i] >> shift) & (kRadixBuckets - 1)];
          }
          // g5lint: hot-end
        });

    // Exclusive prefix sums in digit-major, then chunk order — the order
    // a serial stable pass would visit the elements. A digit holding
    // every element means the pass is the identity permutation; skip it.
    bool skip = false;
    std::uint32_t running = 0;
    for (std::size_t d = 0; d < kRadixBuckets && !skip; ++d) {
      std::uint32_t digit_total = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        std::uint32_t& cell = hist[c * kRadixBuckets + d];
        digit_total += cell;
        const std::uint32_t offset = running;
        running += cell;
        cell = offset;
      }
      if (digit_total == n) skip = true;
    }
    if (skip) continue;

    pool.parallel_for(
        n, kChunk, [&](std::size_t begin, std::size_t end, unsigned) {
          std::uint32_t* row = hist.data() + (begin / kChunk) * kRadixBuckets;
          // g5lint: hot-begin(tree_radix_scatter)
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t d = (key_src[i] >> shift) & (kRadixBuckets - 1);
            const std::size_t dst = row[d]++;
            key_dst[dst] = key_src[i];
            idx_dst[dst] = idx_src[i];
          }
          // g5lint: hot-end
        });
    std::swap(key_src, key_dst);
    std::swap(idx_src, idx_dst);
  }

  if (key_src != keys_.data()) {
    std::swap(keys_, key_scratch_);
    std::swap(orig_index_, idx_scratch_);
  }
}

void BhTree::moments_range(std::size_t begin, std::size_t end) {
  // g5lint: hot-begin(tree_moments)
  for (std::size_t idx = begin; idx < end; ++idx) {
    Node& node = nodes_[idx];
    double m = 0.0;
    Vec3d com{};
    for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
      m += sorted_mass_[k];
      com += sorted_mass_[k] * sorted_pos_[k];
    }
    node.mass = m;
    node.com = m > 0.0 ? com / m : node.center;
    double br2 = 0.0;
    for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
      br2 = std::max(br2, (sorted_pos_[k] - node.center).norm2());
    }
    node.bradius = std::sqrt(br2);
  }
  // g5lint: hot-end
}

void BhTree::quadrupole_range(std::size_t begin, std::size_t end) {
  // g5lint: hot-begin(tree_quadrupole)
  for (std::size_t idx = begin; idx < end; ++idx) {
    const Node& node = nodes_[idx];
    Quadrupole& q = quads_[idx];
    for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
      const Vec3d d = sorted_pos_[k] - node.com;
      const double m = sorted_mass_[k];
      const double d2 = d.norm2();
      q.xx += m * (3.0 * d.x * d.x - d2);
      q.yy += m * (3.0 * d.y * d.y - d2);
      q.zz += m * (3.0 * d.z * d.z - d2);
      q.xy += m * 3.0 * d.x * d.y;
      q.xz += m * 3.0 * d.x * d.z;
      q.yz += m * 3.0 * d.y * d.z;
    }
  }
  // g5lint: hot-end
}

}  // namespace g5::tree
