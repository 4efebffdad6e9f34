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
#pragma once

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

}  // namespace g5::tree
