#include "net/link_load.h"

#include <algorithm>

namespace acr::net {

LinkLoadModel::LinkLoadModel(const topo::Torus3D& torus)
    : torus_(torus),
      bytes_(static_cast<std::size_t>(torus.num_links()), 0.0),
      msgs_(static_cast<std::size_t>(torus.num_links()), 0) {}

void LinkLoadModel::add_message(int src_rank, int dst_rank, double bytes) {
  if (src_rank == dst_rank) return;  // local delivery, no links crossed
  std::vector<int> path =
      torus_.route(torus_.coord_of(src_rank), torus_.coord_of(dst_rank));
  for (int link : path) {
    bytes_[static_cast<std::size_t>(link)] += bytes;
    msgs_[static_cast<std::size_t>(link)] += 1;
  }
  total_byte_hops_ += bytes * static_cast<double>(path.size());
  total_messages_ += 1;
  max_hops_ = std::max(max_hops_, static_cast<int>(path.size()));
}

void LinkLoadModel::add_traffic(const std::vector<std::pair<int, int>>& pairs,
                                double bytes_each) {
  for (const auto& [src, dst] : pairs) add_message(src, dst, bytes_each);
}

void LinkLoadModel::clear() {
  std::fill(bytes_.begin(), bytes_.end(), 0.0);
  std::fill(msgs_.begin(), msgs_.end(), 0);
  total_byte_hops_ = 0.0;
  total_messages_ = 0;
  max_hops_ = 0;
}

double LinkLoadModel::max_link_bytes() const {
  return bytes_.empty() ? 0.0 : *std::max_element(bytes_.begin(), bytes_.end());
}

std::uint64_t LinkLoadModel::max_link_messages() const {
  return msgs_.empty() ? 0 : *std::max_element(msgs_.begin(), msgs_.end());
}

double LinkLoadModel::phase_time(const NetworkParams& p) const {
  if (total_messages_ == 0) return 0.0;
  return p.alpha * static_cast<double>(max_hops_) +
         p.beta() * max_link_bytes();
}

}  // namespace acr::net
