// Barnes' modified tree algorithm (Barnes 1990): grouped interaction lists.
//
// Neighboring particles are grouped — a group is a maximal tree cell with
// at most n_crit bodies — and ONE interaction list is shared by all bodies
// of the group. The list is built with the opening criterion evaluated
// against the whole group: the distance entering the MAC is the distance
// from the candidate cell's center of mass to the group's bounding sphere
// (center c_g, radius r_g), i.e. d_eff = |com - c_g| - r_g. Forces between
// members of the same group are computed directly: the walk excludes the
// group's own subtree and the group's bodies are appended to the list as
// particle terms.
//
// walk_group and count_group run the per-target walk's traversal
// (walk.cpp); only the acceptance test and the skipped subtree differ.
//
// This trades host work (one traversal per group instead of per particle,
// ~ a factor n_g) for extra pipeline work (longer, shared lists) — the
// paper's Section 3, and the tradeoff bench_e2_ng_sweep measures.
//
// The same groups also speed up the original algorithm without changing
// it: walk_frontier walks the decisions every member's per-target walk
// shares once per group, and walk_member builds each member's own list,
// bitwise walk_original's, from that frontier.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tree/walk.hpp"

namespace g5::tree {

struct GroupConfig {
  /// Largest body count of a group cell (the paper's n_g knob; its
  /// optimum for the 1999 host/GRAPE speed ratio is ~2000).
  std::uint32_t n_crit = 256;
};

/// One group: a tree node index plus its particle slot range.
struct Group {
  std::int32_t node = -1;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Collect the groups of a tree: maximal cells with count <= n_crit.
std::vector<Group> collect_groups(const BhTree& tree,
                                  const GroupConfig& config);

/// Same, into a caller-owned vector (cleared first). The engines call
/// this every step with a reused member so the group array's heap
/// allocation is paid once per run, not once per step.
void collect_groups(const BhTree& tree, const GroupConfig& config,
                    std::vector<Group>& out);

/// Build the shared interaction list of one group (external terms via the
/// group MAC + the group's own bodies as direct terms). Returns list size.
std::size_t walk_group(const BhTree& tree, const Group& group,
                       const WalkConfig& config, InteractionList& out,
                       WalkStats* stats = nullptr);

/// Count-only variant: returns the list length without materializing it,
/// and accounts interactions as count * list length in `stats`.
std::uint64_t count_group(const BhTree& tree, const Group& group,
                          const WalkConfig& config,
                          WalkStats* stats = nullptr);

/// How every member of a group meets one node in its per-target walk
/// (target_accepts): all accept it, all open it, or it is undecided.
enum class Verdict : std::uint8_t { AcceptAll, OpenAll, Undecided };

/// The certificate behind walk_frontier: the verdict on `node` for every
/// target within `radius` of `center` (a group's gnode.center and
/// gnode.bradius), proven against target_accepts as it rounds
/// (docs/algorithms.md, "The original walk, one frontier per group").
/// With d = |com - center|, R = radius and delta = 2^-30:
/// - AcceptAll when some axis has |center_a - cell center_a| >
///   (half_size + R)(1 + delta), so no member lies in the cell, and
///   s^2 < theta2 (d(1 - delta) - R(1 + delta))^2 (1 - delta) with a
///   positive base;
/// - OpenAll when s^2 > theta2 ((d + R)(1 + delta))^2 (1 + delta).
/// Each bound must also clear 2^-900 and each length 2^-450, so that no
/// product underflows; NaN and inf fall through to Undecided.
inline Verdict group_verdict(const Node& node, const Vec3d& center,
                             double radius, double theta2, Mac mac) {
  constexpr double kUp = 1.0 + 0x1p-30;
  constexpr double kDown = 1.0 - 0x1p-30;
  constexpr double kTiny = 0x1p-450;
  constexpr double kTiny2 = kTiny * kTiny;
  const double s = mac_size(node, mac);
  const double s2 = s * s;
  const double d = (node.com - center).norm();
  const double far = (d + radius) * kUp;
  const double open_bound = theta2 * (far * far) * kUp;
  if (s2 > open_bound && far >= kTiny && open_bound >= kTiny2) {
    return Verdict::OpenAll;
  }
  const double base = d * kDown - radius * kUp;
  const double accept_bound = theta2 * (base * base) * kDown;
  const Vec3d dc = center - node.center;
  const double reach = (node.half_size + radius) * kUp;
  const bool outside = std::fabs(dc.x) > reach || std::fabs(dc.y) > reach ||
                       std::fabs(dc.z) > reach;
  if (outside && node.half_size >= kTiny && base >= kTiny &&
      s2 < accept_bound && accept_bound >= kTiny2) {
    return Verdict::AcceptAll;
  }
  return Verdict::Undecided;
}

/// The walk decisions one group's members share, for their per-target
/// walks (walk_member): the traversal from the root by group_verdict,
/// stopping at undecided nodes. Its entries — accepted cells and the
/// particles of opened leaves, with quadrupoles when the walk carries
/// them — are stored once, in walk order; each undecided subtree is a
/// marker between them. Reused across groups, like InteractionList.
struct WalkFrontier {
  /// An undecided subtree and where it sits among the shared entries.
  struct Pending {
    std::uint32_t offset = 0;      ///< shared entries before it
    std::uint32_t node_terms = 0;  ///< of those, cell monopoles
    std::int32_t node = -1;        ///< its root node
  };
  InteractionList shared;
  /// The markers in walk order: the first pending_size. The column is
  /// sized to its capacity, as the walks size a list's columns.
  ListColumn<Pending> pending;
  std::size_t pending_size = 0;
  std::uint64_t node_terms = 0;  ///< shared entries that are cells
  /// Traversal visits, less the undecided roots: every member walk
  /// revisits those.
  std::uint64_t visits = 0;
};

/// The frontier of `group`'s members' per-target walks (walk_original
/// with `config`) into `out`.
void walk_frontier(const BhTree& tree, const Group& group,
                   const WalkConfig& config, WalkFrontier& out);

/// The per-target list of `target`, a member of the group `frontier` was
/// walked for with the same `config`: the shared entries in order, each
/// undecided subtree walked for `target` in its place. The list and the
/// statistics are walk_original's, bitwise. Returns the list length.
std::size_t walk_member(const BhTree& tree, const WalkFrontier& frontier,
                        const Vec3d& target, const WalkConfig& config,
                        InteractionList& out, WalkStats* stats = nullptr);

}  // namespace g5::tree
