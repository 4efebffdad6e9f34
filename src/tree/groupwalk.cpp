#include "tree/groupwalk.hpp"

namespace g5::tree {

std::vector<Group> collect_groups(const BhTree& tree,
                                  const GroupConfig& config) {
  std::vector<Group> groups;
  collect_groups(tree, config, groups);
  return groups;
}

void collect_groups(const BhTree& tree, const GroupConfig& config,
                    std::vector<Group>& out) {
  out.clear();
  if (tree.empty() || tree.particle_count() == 0) return;
  // DFS: stop descending at the first cell with count <= n_crit; a leaf
  // above n_crit (can only happen at the depth cap) becomes its own group.
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = tree.node(static_cast<std::size_t>(idx));
    if (node.count <= config.n_crit || node.leaf) {
      out.push_back(Group{idx, node.first, node.count});
      continue;
    }
    for (int oct = 7; oct >= 0; --oct) {
      const std::int32_t c = node.child[oct];
      if (c >= 0) stack.push_back(c);
    }
  }
}

}  // namespace g5::tree
