// Parity-group membership for the rs group-parity redundancy scheme.
//
// Node indices of a replica are partitioned into consecutive groups of
// `group_size`. A trailing remainder group is kept as its own (smaller)
// group, except that a remainder of ONE would leave a node with no parity
// peers — parity over one member protects nothing — so a size-1 tail is
// merged into the preceding group (its last group is group_size + 1 wide).
// Groups never span replicas: parity exchange stays on the cheap
// intra-replica links, and each replica can lose one node per group.
#pragma once

#include <vector>

namespace acr::ckpt {

class GroupMap {
 public:
  /// `group_size` <= 0 disables grouping (empty map).
  GroupMap() = default;
  GroupMap(int nodes_per_replica, int group_size);

  bool enabled() const { return !starts_.empty(); }
  int num_groups() const { return static_cast<int>(starts_.size()); }

  /// Group id of a node index.
  int group_of(int node_index) const;
  /// Members (node indices, ascending) of the group containing node_index.
  std::vector<int> group_members(int node_index) const;
  /// Position of node_index within its group (0-based "rank").
  int rank_in_group(int node_index) const;
  int group_size_of(int node_index) const;

 private:
  std::vector<int> starts_;  ///< first node index of each group
  int nodes_ = 0;
};

}  // namespace acr::ckpt
