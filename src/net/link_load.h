// Machine cost parameters and a link-level traffic model over a 3D torus.
//
// NetworkParams holds the alpha-beta-gamma costs the cluster charges for
// messages and for checkpoint pack/compare/unpack. (The L2 durable tier's
// per-role I/O pipe is part of the tier itself, ckpt::DurableTier.)
//
// The checkpoint-transfer and restart-transfer costs in the paper (Figs. 6,
// 8, 10) are dominated by contention on the links between the two replicas:
// every node of replica 1 sends its checkpoint to its buddy at the same
// time. This model routes every message with dimension-ordered minimal
// routing, accumulates bytes and message counts per directed link, and
// estimates the completion time of the bulk-synchronous phase as the time
// for the most loaded link to drain plus the longest path latency.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "topology/torus.h"

namespace acr::net {

/// alpha-beta-gamma machine parameters (Blue Gene/P-flavoured defaults).
struct NetworkParams {
  /// Per-message one-way latency, seconds.
  double alpha = 5e-6;
  /// Per-link bandwidth, bytes/second (BG/P torus link: 425 MB/s).
  double link_bandwidth = 425.0e6;
  /// Compute cost per byte-instruction, seconds. The checksum optimization
  /// costs ~4 instructions per byte (§4.2) => 4*gamma per byte. Calibrated
  /// to a BG/P PowerPC 450-class core without SIMD.
  double gamma = 3.0e-9;
  /// Local serialization (PUP pack) rate, bytes/second. Far below memcpy:
  /// the PUP traversal walks object graphs (calibrated so a 16 MiB Jacobi3D
  /// node checkpoint costs ~0.25 s, as in Fig. 8a).
  double pack_bandwidth = 70.0e6;
  /// Checkpoint comparison rate, bytes/second (streaming compare of two
  /// self-describing streams).
  double compare_bandwidth = 250.0e6;
  /// State reconstruction (PUP unpack + object rebuild) rate, bytes/second.
  double unpack_bandwidth = 60.0e6;

  double beta() const { return 1.0 / link_bandwidth; }
};

class LinkLoadModel {
 public:
  explicit LinkLoadModel(const topo::Torus3D& torus);

  /// Route one message and accumulate its bytes on every link it crosses.
  void add_message(int src_rank, int dst_rank, double bytes);

  /// One message of `bytes_each` for every (src, dst) pair.
  void add_traffic(const std::vector<std::pair<int, int>>& pairs,
                   double bytes_each);

  void clear();

  double link_bytes(int link_id) const { return bytes_.at(link_id); }
  std::uint64_t link_messages(int link_id) const { return msgs_.at(link_id); }

  double max_link_bytes() const;
  std::uint64_t max_link_messages() const;
  /// Longest routed path (hops) among the messages added.
  int max_hops() const { return max_hops_; }
  /// Total bytes*hops (aggregate network work).
  double total_byte_hops() const { return total_byte_hops_; }
  std::uint64_t total_messages() const { return total_messages_; }

  /// Completion time of the phase assuming all messages are injected
  /// simultaneously and the bottleneck link serializes its load:
  ///   T = alpha * max_hops + beta * max_link_bytes.
  double phase_time(const NetworkParams& p) const;

  const topo::Torus3D& torus() const { return torus_; }

 private:
  topo::Torus3D torus_;
  std::vector<double> bytes_;
  std::vector<std::uint64_t> msgs_;
  double total_byte_hops_ = 0.0;
  std::uint64_t total_messages_ = 0;
  int max_hops_ = 0;
};

}  // namespace acr::net
