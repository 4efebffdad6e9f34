// The original Barnes-Hut walk: one interaction list per particle.
//
// Opening criterion (MAC): a cell of edge s at distance d from the target
// is accepted as a single point mass when s / d < theta; otherwise it is
// opened. d is measured from the target position to the cell's center of
// mass. This is the classic Barnes & Hut (1986) criterion, and the variant
// the paper's "original algorithm" operation counts refer to.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "tree/tree.hpp"

namespace g5::tree {

/// The allocator of InteractionList's columns: growing a column
/// constructs nothing, so a walk sizes its columns to their capacity
/// without writing them, then writes each entry once. For trivially
/// copyable, trivially destructible entries only, whose lifetime begins
/// with their storage.
template <typename T>
struct ColumnAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  /// Default construction leaves the storage as it is.
  template <typename U>
  void construct(U* /*p*/) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using ListColumn = std::vector<T, ColumnAllocator<T>>;

/// A flat interaction list: field sources as (position, mass) pairs —
/// exactly the stream a GRAPE board consumes. When a walk runs with
/// use_quadrupole, a parallel array of quadrupole tensors is filled (host
/// evaluation only; the hardware takes point masses). Reused across walks
/// to keep allocations off the hot path: a walk writes its entries
/// through raw pointers into the columns sized to their capacity.
struct InteractionList {
  ListColumn<Vec3d> pos;
  ListColumn<double> mass;
  ListColumn<Quadrupole> quad;  ///< empty unless built with quadrupoles

  [[nodiscard]] std::size_t size() const noexcept { return pos.size(); }
  [[nodiscard]] bool has_quadrupoles() const noexcept {
    return !quad.empty();
  }
  void clear() noexcept {
    pos.clear();
    mass.clear();
    quad.clear();
  }
  void push(const Vec3d& p, double m) {
    pos.push_back(p);
    mass.push_back(m);
  }
  void push(const Vec3d& p, double m, const Quadrupole& q) {
    pos.push_back(p);
    mass.push_back(m);
    quad.push_back(q);
  }
};

/// Counters describing one or more walks.
struct WalkStats {
  std::uint64_t lists = 0;          ///< interaction lists built
  std::uint64_t interactions = 0;   ///< sum over lists of ni * nj
  std::uint64_t list_entries = 0;   ///< sum over lists of nj
  std::uint64_t node_terms = 0;     ///< entries that were cell monopoles
  std::uint64_t particle_terms = 0; ///< entries that were real particles
  std::uint64_t nodes_visited = 0;  ///< traversal visits (host work proxy)
  std::uint64_t max_list = 0;
  [[nodiscard]] double mean_list() const {
    return lists ? static_cast<double>(list_entries) /
                       static_cast<double>(lists)
                 : 0.0;
  }
  void merge(const WalkStats& o);
};

/// Multipole acceptance criterion variant.
enum class Mac {
  /// Classic Barnes & Hut: open when cell edge / distance >= theta.
  Edge,
  /// Barnes-style tighter variant: use the cell's bounding radius
  /// (distance from the cell center to the farthest member) instead of
  /// the geometric edge — sparse cells close earlier, shrinking lists.
  /// Ablation: bench_a1_ablations.
  Bmax,
};

struct WalkConfig {
  double theta = 0.75;  ///< opening angle
  Mac mac = Mac::Edge;  ///< acceptance criterion variant
  /// Emit quadrupole tensors for accepted cells (requires a tree built
  /// with TreeBuildConfig::quadrupole; particles get zero tensors).
  bool use_quadrupole = false;
};

/// The size measure the MAC compares against theta * distance: the cell
/// edge for the classic criterion, the bounding radius (center to the
/// farthest member — smaller than the edge for sparse cells, at most
/// sqrt(3)/2 of it for full ones) for the bmax variant.
inline double mac_size(const Node& node, Mac mac) {
  return mac == Mac::Edge ? node.edge() : node.bradius;
}

/// The per-target walk's acceptance test: a node is taken as one entry
/// when (s/d)^2 < theta^2, s = mac_size and d the distance from `target`
/// to the node's center of mass, but never when the node's cell contains
/// the target (with theta > 1/sqrt(3) such a cell could otherwise pass
/// and absorb the target's own mass into a monopole). `theta2` is
/// theta * theta.
inline bool target_accepts(const Node& node, const Vec3d& target,
                           double theta2, Mac mac) {
  const double d2 = (node.com - target).norm2();
  const double s = mac_size(node, mac);
  const Vec3d dc = target - node.center;
  const bool contains_target = std::fabs(dc.x) <= node.half_size &&
                               std::fabs(dc.y) <= node.half_size &&
                               std::fabs(dc.z) <= node.half_size;
  return !contains_target && s * s < theta2 * d2;
}

/// Build the interaction list for one target position. The leaf containing
/// the target is expanded to particles (including the target itself when
/// `self_slot` points at it; the pipeline/self-potential convention deals
/// with the self pair). Returns the list length.
std::size_t walk_original(const BhTree& tree, const Vec3d& target,
                          const WalkConfig& config, InteractionList& out,
                          WalkStats* stats = nullptr);

/// Count-only variant (no list materialization) — used by the
/// "original-algorithm operation count" correction of Section 5.
std::uint64_t count_original(const BhTree& tree, const Vec3d& target,
                             const WalkConfig& config,
                             WalkStats* stats = nullptr);

/// Evaluate an interaction list on targets in double precision (host
/// backend). acc/pot overwritten. Lists carrying quadrupole tensors get
/// the quadrupole force/potential terms added per entry.
///
/// Zero-separation handling: when `self_mass` is supplied (one mass per
/// target; each target is assumed to appear exactly once in the list),
/// distinct particles coinciding with the target contribute their softened
/// potential -m/eps (their force is exactly zero) and only the target's
/// own self term is excluded — the engine convention that the potential
/// carries no self term. With `self_mass` empty, every zero-separation
/// entry is skipped (callers comparing against the GRAPE pipeline rely on
/// that hardware-style cut). Unsoftened (eps == 0) zero-separation pairs
/// are always skipped: they are singular.
void evaluate_list_host(const InteractionList& list,
                        std::span<const Vec3d> targets, double eps,
                        std::span<Vec3d> acc, std::span<double> pot,
                        std::span<const double> self_mass = {});

}  // namespace g5::tree
