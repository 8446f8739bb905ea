// Parity-group membership for the rs group-parity redundancy scheme.
//
// Node indices of a replica are partitioned into consecutive groups of
// `group_size`. A trailing remainder of two or more is its own smaller
// group; a remainder of ONE would have no parity peers, so it merges into
// the preceding group (group_size + 1 wide). Groups never span replicas:
// parity exchange stays on the cheap intra-replica links.
#pragma once

#include <utility>
#include <vector>

namespace acr::ckpt {

class GroupMap {
 public:
  /// `group_size` <= 0 disables grouping (empty map).
  GroupMap() = default;
  GroupMap(int nodes_per_replica, int group_size);

  bool enabled() const { return groups_ > 0; }
  int num_groups() const { return groups_; }

  /// Group id of a node index.
  int group_of(int node_index) const;
  /// Members (node indices, ascending) of the group containing node_index.
  std::vector<int> group_members(int node_index) const;
  /// Position of node_index within its group (0-based "rank").
  int rank_in_group(int node_index) const;
  int group_size_of(int node_index) const;

 private:
  /// [first, last) node indices of the group containing node_index.
  std::pair<int, int> bounds(int node_index) const;
  int nodes_ = 0;
  int size_ = 0;
  int groups_ = 0;
};

}  // namespace acr::ckpt
