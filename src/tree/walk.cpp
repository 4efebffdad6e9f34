#include "tree/walk.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "math/domain.hpp"
#include "tree/groupwalk.hpp"
#include "tree/traversal_stack.hpp"
#include "util/isa.hpp"

namespace g5::tree {

void WalkStats::merge(const WalkStats& o) {
  lists += o.lists;
  interactions += o.interactions;
  list_entries += o.list_entries;
  node_terms += o.node_terms;
  particle_terms += o.particle_terms;
  nodes_visited += o.nodes_visited;
  max_list = std::max(max_list, o.max_list);
}

namespace {

// g5lint: hot-begin(tree-traverse) — the walks' inner loop, for one target
// and for one group; the only storage is the guarded TraversalStack
// (inline, heap spill only on pathological depth).

/// Counts a walk's entries: accepted cells and particles.
struct CountSink {
  std::uint64_t node_terms = 0;
  std::uint64_t particle_terms = 0;
  void node(const Node& /*node*/, std::int32_t /*idx*/) { ++node_terms; }
  void particle(std::uint32_t /*slot*/) { ++particle_terms; }
  [[nodiscard]] std::uint64_t size() const {
    return node_terms + particle_terms;
  }
};

/// Counts a walk's entries and writes them into a list's columns
/// through raw pointers: accepted cells as monopoles, with their
/// quadrupole tensor when the list carries them; particles as point
/// masses, with a zero tensor then. open_list sizes the columns to their
/// capacity; an entry past it grows them out of line. Forced inline:
/// called from both walks' loops, GCC otherwise keeps these out of line,
/// a call per list entry.
struct ListSink : CountSink {
  const BhTree& tree;
  InteractionList& out;
  bool quads;
  Vec3d* pos = nullptr;
  double* mass = nullptr;
  Quadrupole* quad = nullptr;
  std::size_t cap = 0;

  [[gnu::always_inline]] std::size_t next() {
    const std::size_t k = size();
    if (k == cap) [[unlikely]] grow();
    return k;
  }
  [[gnu::always_inline]] void node(const Node& node, std::int32_t idx) {
    const std::size_t k = next();
    pos[k] = node.com;
    mass[k] = node.mass;
    if (quads) quad[k] = tree.quadrupole(static_cast<std::size_t>(idx));
    ++node_terms;
  }
  [[gnu::always_inline]] void particle(std::uint32_t slot) {
    const std::size_t k = next();
    pos[k] = tree.sorted_pos()[slot];
    mass[k] = tree.sorted_mass()[slot];
    if (quads) quad[k] = Quadrupole{};
    ++particle_terms;
  }
  /// Size the columns to `n` entries (ColumnAllocator: growing them
  /// writes nothing new) and point the cursors at them.
  void resize(std::size_t n) {
    out.pos.resize(n);
    out.mass.resize(n);
    if (quads) out.quad.resize(n);
    pos = out.pos.data();
    mass = out.mass.data();
    quad = out.quad.data();
    cap = n;
  }
  /// Append `from`'s entries [begin, end), `nodes` of them cell
  /// monopoles: a run of a walk_frontier's shared entries.
  void copy(const InteractionList& from, std::size_t begin, std::size_t end,
            std::size_t nodes) {
    const std::size_t n = end - begin;
    if (n == 0) return;  // half the runs: undecided siblings back to back
    const std::size_t k = size();
    if (k + n > cap) resize(std::max(2 * cap, k + n));
    std::memcpy(pos + k, from.pos.data() + begin, n * sizeof(Vec3d));
    std::memcpy(mass + k, from.mass.data() + begin, n * sizeof(double));
    if (quads) {
      std::memcpy(quad + k, from.quad.data() + begin, n * sizeof(Quadrupole));
    }
    node_terms += nodes;
    particle_terms += n - nodes;
  }
  [[gnu::noinline]] void grow() { resize(2 * cap); }
};

/// The sink writing a walk into `out`: its columns cleared, then sized
/// to their capacity (at least kMinCapacity entries) without writing
/// them.
ListSink open_list(const BhTree& tree, const WalkConfig& config,
                   InteractionList& out) {
  constexpr std::size_t kMinCapacity = 1024;
  ListSink sink{{}, tree, out, config.use_quadrupole && tree.has_quadrupoles()};
  out.clear();
  sink.resize(std::max(out.pos.capacity(), kMinCapacity));
  return sink;
}

/// Trim `out`'s columns to the entries the walk wrote.
void close_list(const ListSink& sink, InteractionList& out) {
  const std::size_t n = sink.size();
  out.pos.resize(n);
  out.mass.resize(n);
  if (sink.quads) out.quad.resize(n);
}

/// The one traversal of every walk, depth first from node `root`: node
/// `skip` and its subtree are left out (-1 skips nothing); every other
/// node popped is a visit. A node `accept` passes goes to sink.node, an
/// opened leaf's particles to sink.particle, an opened cell's children on
/// the stack, octant 7 first. Returns the visits.
template <typename Accept, typename Sink>
std::uint64_t traverse(const BhTree& tree, std::int32_t root,
                       std::int32_t skip, Accept&& accept, Sink& sink) {
  // Explicit guarded stack: inline storage covers the Morton-bounded
  // worst case, deeper trees spill to the heap instead of overflowing.
  std::uint64_t visits = 0;
  TraversalStack stack;
  stack.push(root);
  while (!stack.empty()) {
    const std::int32_t idx = stack.pop();
    if (idx == skip) continue;
    const Node& node = tree.node(static_cast<std::size_t>(idx));
    ++visits;
    if (accept(node)) {
      sink.node(node, idx);
      continue;
    }
    if (node.leaf) {
      for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
        sink.particle(k);
      }
      continue;
    }
    for (int oct = 7; oct >= 0; --oct) {
      const std::int32_t c = node.child[oct];
      if (c >= 0) stack.push(c);
    }
  }
  return visits;
}

/// The per-target walk (Barnes & Hut 1986) into `sink`; returns visits.
template <typename Sink>
std::uint64_t traverse_target(const BhTree& tree, const Vec3d& target,
                              const WalkConfig& cfg, Sink& sink) {
  const double theta2 = cfg.theta * cfg.theta;
  return traverse(
      tree, 0, -1,
      [&](const Node& node) {
        return target_accepts(node, target, theta2, cfg.mac);
      },
      sink);
}

/// The frontier walk's sink: certified entries into the shared list, an
/// undecided node (the accept test passes those too, and flags them in
/// `undecided`) as a marker in `frontier.pending`.
struct FrontierSink : ListSink {
  WalkFrontier& frontier;
  bool undecided = false;

  [[gnu::always_inline]] void node(const Node& node, std::int32_t idx) {
    if (!undecided) {
      ListSink::node(node, idx);
      return;
    }
    WalkFrontier& f = frontier;
    if (f.pending_size == f.pending.size()) grow_pending();
    f.pending[f.pending_size++] = {static_cast<std::uint32_t>(size()),
                                   static_cast<std::uint32_t>(node_terms),
                                   idx};
  }
  /// Out of line, like ListSink::grow: double the markers' column.
  [[gnu::noinline]] void grow_pending() {
    frontier.pending.resize(
        std::max<std::size_t>(64, 2 * frontier.pending_size));
  }
};

/// The group walk (Barnes 1990) into `sink`: the external sources by the
/// group MAC, skipping the group's own subtree, then the group's members
/// as direct terms. Returns visits.
template <typename Sink>
std::uint64_t traverse_group(const BhTree& tree, const Group& group,
                             const WalkConfig& cfg, Sink& sink) {
  const Node& gnode = tree.node(static_cast<std::size_t>(group.node));
  // Bounding sphere of the group: cell center + radius to farthest member.
  const Vec3d gcenter = gnode.center;
  const double gradius = gnode.bradius;
  const std::uint64_t visits = traverse(
      tree, 0, group.node,
      [&](const Node& node) {
        // The group's ancestors must always be opened (the group is inside
        // them); the containment test covers that: the group's center
        // lies in every ancestor cell.
        const Vec3d dc = gcenter - node.center;
        const double reach = node.half_size + gradius;
        const bool overlaps = std::fabs(dc.x) <= reach &&
                              std::fabs(dc.y) <= reach &&
                              std::fabs(dc.z) <= reach;
        const double d_eff =
            std::max((node.com - gcenter).norm() - gradius, 0.0);
        const double s = mac_size(node, cfg.mac);
        return !overlaps && s < cfg.theta * d_eff;
      },
      sink);
  for (std::uint32_t k = group.first; k < group.first + group.count; ++k) {
    sink.particle(k);
  }
  return visits;
}

/// Charge one list of `terms.size()` entries, shared by `ni` targets, to
/// `stats` (if any). `terms` by value: a sink whose address escapes keeps
/// its counters and list pointer in memory through the walk.
void record(WalkStats* stats, std::uint64_t ni, CountSink terms,
            std::uint64_t visits) {
  if (stats == nullptr) return;
  const std::uint64_t len = terms.size();
  ++stats->lists;
  stats->interactions += len * ni;
  stats->list_entries += len;
  stats->node_terms += terms.node_terms;
  stats->particle_terms += terms.particle_terms;
  stats->nodes_visited += visits;
  stats->max_list = std::max(stats->max_list, len);
}

}  // namespace

std::size_t walk_original(const BhTree& tree, const Vec3d& target,
                          const WalkConfig& config, InteractionList& out,
                          WalkStats* stats) {
  if (tree.empty() || tree.particle_count() == 0) {
    out.clear();
    return 0;
  }
  ListSink sink = open_list(tree, config, out);
  const std::uint64_t visits = traverse_target(tree, target, config, sink);
  close_list(sink, out);
  record(stats, 1, sink, visits);
  return out.size();
}

void walk_frontier(const BhTree& tree, const Group& group,
                   const WalkConfig& config, WalkFrontier& out) {
  out.pending_size = 0;
  out.node_terms = 0;
  out.visits = 0;
  if (tree.empty() || tree.particle_count() == 0) {
    out.shared.clear();
    return;
  }
  const Node& gnode = tree.node(static_cast<std::size_t>(group.node));
  const double theta2 = config.theta * config.theta;
  FrontierSink sink{open_list(tree, config, out.shared), out};
  const std::uint64_t visits = traverse(
      tree, 0, -1,
      [&](const Node& node) {
        const Verdict v =
            group_verdict(node, gnode.center, gnode.bradius, theta2,
                          config.mac);
        sink.undecided = v == Verdict::Undecided;
        return v != Verdict::OpenAll;
      },
      sink);
  close_list(sink, out.shared);
  out.node_terms = sink.node_terms;
  out.visits = visits - out.pending_size;
}

std::size_t walk_member(const BhTree& tree, const WalkFrontier& frontier,
                        const Vec3d& target, const WalkConfig& config,
                        InteractionList& out, WalkStats* stats) {
  if (tree.empty() || tree.particle_count() == 0) {
    out.clear();
    return 0;
  }
  ListSink sink = open_list(tree, config, out);
  const double theta2 = config.theta * config.theta;
  std::uint64_t visits = frontier.visits;
  std::size_t done = 0;
  std::size_t done_nodes = 0;
  for (std::size_t k = 0; k < frontier.pending_size; ++k) {
    const WalkFrontier::Pending& p = frontier.pending[k];
    sink.copy(frontier.shared, done, p.offset, p.node_terms - done_nodes);
    // The per-target test from the undecided node, as traverse_target
    // runs it from the root. This instantiation has one caller, so it
    // inlines into this loop; sharing traverse_target's would cost a
    // call per undecided node, ~13 % of a member's walk
    // (BM_WalkOriginalAll/1).
    visits += traverse(
        tree, p.node, -1,
        [&](const Node& node) {
          return target_accepts(node, target, theta2, config.mac);
        },
        sink);
    done = p.offset;
    done_nodes = p.node_terms;
  }
  sink.copy(frontier.shared, done, frontier.shared.size(),
            frontier.node_terms - done_nodes);
  close_list(sink, out);
  record(stats, 1, sink, visits);
  return out.size();
}

std::uint64_t count_original(const BhTree& tree, const Vec3d& target,
                             const WalkConfig& config, WalkStats* stats) {
  if (tree.empty() || tree.particle_count() == 0) return 0;
  CountSink sink;
  const std::uint64_t visits = traverse_target(tree, target, config, sink);
  record(stats, 1, sink, visits);
  return sink.size();
}

std::size_t walk_group(const BhTree& tree, const Group& group,
                       const WalkConfig& config, InteractionList& out,
                       WalkStats* stats) {
  if (tree.empty() || tree.particle_count() == 0) {
    out.clear();
    return 0;
  }
  ListSink sink = open_list(tree, config, out);
  const std::uint64_t visits = traverse_group(tree, group, config, sink);
  close_list(sink, out);
  record(stats, group.count, sink, visits);
  return out.size();
}

std::uint64_t count_group(const BhTree& tree, const Group& group,
                          const WalkConfig& config, WalkStats* stats) {
  if (tree.empty() || tree.particle_count() == 0) return 0;
  CountSink sink;
  const std::uint64_t visits = traverse_group(tree, group, config, sink);
  record(stats, group.count, sink, visits);
  return sink.size();
}
// g5lint: hot-end

namespace {

// g5lint: hot-begin(list-eval-host) — the host-side O(targets x list)
// kernel; everything lives in registers / the caller's spans.

/// The sums of one target over a list: force, potential and the mass
/// of the zero-separation entries (left out of both).
struct TargetSums {
  Vec3d a{};
  double p = 0.0;
  double coincident_mass = 0.0;
};

/// Targets per pass of the lane loop: one AVX2 register of doubles.
constexpr std::size_t kLanes = 4;

/// The list's sums for one target, one entry at a time.
TargetSums scalar_sums(const InteractionList& list, const Vec3d& xi,
                       double eps2, bool quads) {
  TargetSums s;
  for (std::size_t j = 0; j < list.size(); ++j) {
    const Vec3d dx = list.pos[j] - xi;
    if (dx.norm2() == 0.0) {
      // Zero separation: the softened force is exactly zero, the
      // softened potential is -m/eps. Collect the mass so the self term
      // (and only the self term) can be excluded below; without
      // self-mass information — or unsoftened, where the pair is
      // singular — these entries are skipped entirely.
      s.coincident_mass += list.mass[j];
      continue;
    }
    const double r2 = dx.norm2() + eps2;
    const double rinv = 1.0 / std::sqrt(r2);
    const double rinv2 = rinv * rinv;
    const double rinv3 = rinv * rinv2;
    s.a += (list.mass[j] * rinv3) * dx;
    s.p -= list.mass[j] * rinv;
    if (quads) {
      const Quadrupole& q = list.quad[j];
      if (q.is_zero()) continue;
      // Traceless-quadrupole terms about the source's center of mass:
      //   phi  = -(dx^T Q dx) / (2 r^5)
      //   a    = -Q dx / r^5 + (5/2) (dx^T Q dx) dx / r^7.
      const double rinv5 = rinv3 * rinv2;
      const Vec3d qdx = q.apply(dx);
      const double dqd = dx.dot(qdx);
      s.a += -rinv5 * qdx + (2.5 * dqd * rinv5 * rinv2) * dx;
      s.p -= 0.5 * dqd * rinv5;
    }
  }
  return s;
}

double masked(double v, std::uint64_t mask) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & mask);
}

/// The monopole sums of kLanes targets xi[0..kLanes) over n list
/// entries, each entry loaded once and broadcast to every lane, into
/// out[l] for target l. Each lane does the scalar loop's operations in
/// its order, so its sums are bitwise scalar_sums'. Branch-free, so that
/// it vectorizes at -O2 for AVX2 and for SSE2:
/// - the zero-separation cut is an integer mask, all ones exactly when
///   d2 != 0.0 (a live lane), made from d2's magnitude bits by a
///   subtraction and a logical shift (SSE2 has no 64-bit compare, and an
///   FP compare's mask turned into an integer one does not vectorize
///   there);
/// - a cut lane takes r^2 + 1 (a finite rinv) and its terms are ANDed to
///   +0.0, which leaves an accumulator unchanged as long as it is not
///   -0.0, and a sum that starts at +0.0 never is (x + y and x - y are
///   -0.0 only from a -0.0 x);
/// - a live lane adds +0.0 to r^2 > 0 and to its coincident mass.
G5_ISA_CLONES
void lane_sums(std::size_t n, const Vec3d* __restrict pos,
               const double* __restrict mass, const Vec3d* __restrict xi,
               double eps2, TargetSums (&out)[kLanes]) {
  constexpr std::uint64_t kOneBits = std::bit_cast<std::uint64_t>(1.0);
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  double tx[kLanes], ty[kLanes], tz[kLanes];
  double ax[kLanes] = {}, ay[kLanes] = {}, az[kLanes] = {};
  double p[kLanes] = {}, cm[kLanes] = {};
  for (std::size_t l = 0; l < kLanes; ++l) {
    tx[l] = xi[l].x;
    ty[l] = xi[l].y;
    tz[l] = xi[l].z;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double jx = pos[j].x;
    const double jy = pos[j].y;
    const double jz = pos[j].z;
    const double m = mass[j];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double dx = jx - tx[l];
      const double dy = jy - ty[l];
      const double dz = jz - tz[l];
      const double d2 = dx * dx + dy * dy + dz * dz;
      const std::uint64_t live = math::lns_nonzero_mask(
          std::bit_cast<std::uint64_t>(d2) & ~kSignBit);
      const double r2 = (d2 + eps2) + std::bit_cast<double>(~live & kOneBits);
      const double rinv = 1.0 / std::sqrt(r2);
      const double mr3 = m * (rinv * (rinv * rinv));
      ax[l] += masked(mr3 * dx, live);
      ay[l] += masked(mr3 * dy, live);
      az[l] += masked(mr3 * dz, live);
      p[l] -= masked(m * rinv, live);
      cm[l] += masked(m, ~live);
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    out[l] = {{ax[l], ay[l], az[l]}, p[l], cm[l]};
  }
}

}  // namespace

void evaluate_list_host(const InteractionList& list,
                        std::span<const Vec3d> targets, double eps,
                        std::span<Vec3d> acc, std::span<double> pot,
                        std::span<const double> self_mass) {
  const double eps2 = eps * eps;
  const bool quads = list.has_quadrupoles();
  const bool self_aware = !self_mass.empty() && eps2 > 0.0;
  const auto finish = [&](std::size_t i, const TargetSums& s) {
    double p = s.p;
    if (self_aware) {
      // The target appears once in its own list; every other coincident
      // entry is a distinct particle whose softened potential was lost by
      // the old drop-all-coincident cut. The common case (self term only)
      // leaves `excess` exactly zero, keeping results bit-identical.
      const double excess = s.coincident_mass - self_mass[i];
      if (excess != 0.0) p -= excess / std::sqrt(eps2);
    }
    acc[i] = s.a;
    pot[i] = p;
  };
  // Monopole lists: kLanes targets per pass over the list. Lists with
  // quadrupoles, single targets and a call's last few take the scalar
  // loop.
  std::size_t i = 0;
  if (!quads) {
    for (; i + kLanes <= targets.size(); i += kLanes) {
      TargetSums out[kLanes];
      lane_sums(list.size(), list.pos.data(), list.mass.data(), &targets[i],
                eps2, out);
      for (std::size_t l = 0; l < kLanes; ++l) finish(i + l, out[l]);
    }
  }
  for (; i < targets.size(); ++i) {
    finish(i, scalar_sums(list, targets[i], eps2, quads));
  }
}
// g5lint: hot-end

}  // namespace g5::tree
