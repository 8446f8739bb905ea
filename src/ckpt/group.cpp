#include "ckpt/group.h"

#include <algorithm>

#include "common/require.h"

namespace acr::ckpt {

GroupMap::GroupMap(int nodes_per_replica, int group_size) {
  if (group_size <= 0) return;
  ACR_REQUIRE(nodes_per_replica >= 1, "group map needs at least one node");
  ACR_REQUIRE(group_size >= 2, "parity groups need at least two members");
  nodes_ = nodes_per_replica;
  size_ = group_size;
  groups_ = std::max(1, nodes_ / size_ + (nodes_ % size_ > 1 ? 1 : 0));
}

int GroupMap::group_of(int node_index) const {
  ACR_REQUIRE(enabled() && node_index >= 0 && node_index < nodes_,
              "node index outside the group map");
  return std::min(node_index / size_, groups_ - 1);
}

std::pair<int, int> GroupMap::bounds(int node_index) const {
  int g = group_of(node_index);
  return {g * size_, g + 1 < groups_ ? (g + 1) * size_ : nodes_};
}

std::vector<int> GroupMap::group_members(int node_index) const {
  auto [first, last] = bounds(node_index);
  std::vector<int> members;
  for (int i = first; i < last; ++i) members.push_back(i);
  return members;
}

int GroupMap::rank_in_group(int node_index) const {
  return node_index - bounds(node_index).first;
}

int GroupMap::group_size_of(int node_index) const {
  auto [first, last] = bounds(node_index);
  return last - first;
}

}  // namespace acr::ckpt
