// Message type of the tasklet runtime.
//
// Addressing is *logical*: (replica, node_index, slot). The cluster
// resolves a logical node index to whatever physical node currently plays
// that role, so a spare node that replaced a crashed one transparently
// receives its traffic — exactly the fail-over model of §2.1.
//
// Payloads are shared immutable Buffers: a broadcast fans one allocation
// out to every recipient, and a buddy checkpoint travels as an attachment
// that aliases the sender's stored image (zero-copy transfer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "buf/buffer.h"
#include "common/require.h"
#include "pup/pup.h"

namespace acr::rt {

/// Slot value addressing the per-node ACR service agent instead of a task.
constexpr int kServiceSlot = -1;

/// Modelled per-message envelope overhead (headers, matching metadata)
/// charged by the latency model on top of the payload bytes.
constexpr std::size_t kMessageHeaderBytes = 64;

struct TaskAddr {
  int node_index = 0;  ///< logical node within the replica
  int slot = 0;        ///< task slot on that node, or kServiceSlot

  friend bool operator==(const TaskAddr&, const TaskAddr&) = default;
};

struct Message {
  int tag = 0;
  int src_replica = 0;
  int dst_replica = 0;
  TaskAddr src{};
  TaskAddr dst{};
  /// Sender replica's app epoch at send time (task messages only); stale
  /// epochs are dropped at delivery after a rollback.
  std::uint64_t app_epoch = 0;
  /// Control payload (a packed wire struct). Shared, not copied, across
  /// broadcast recipients.
  buf::Buffer payload;
  /// Bulk side-channel: checkpoint image bytes riding along with the
  /// payload header. Aliases the sender's buffer — the simulated transfer
  /// costs latency (see bytes_on_wire), not memory.
  buf::Buffer attachment;

  std::size_t size_bytes() const {
    return payload.size() + attachment.size() + kMessageHeaderBytes;
  }
};

/// Builder used by pack_payload, in slice mode: consecutive payloads share
/// an arena, freed once the messages holding its slices are delivered.
/// Thread-local so concurrent engines never share one.
inline buf::BufferBuilder& payload_builder() {
  thread_local buf::BufferBuilder builder;
  return builder;
}

/// Encode a pup-able value as a message payload: a slice of an arena shared
/// with the payloads packed around it, sized first so the bytes go into
/// room reserved once. A payload kept long after delivery would keep its
/// whole arena alive; copy it out instead (see Cluster::route_reliable).
template <typename T>
buf::Buffer pack_payload(T& value) {
  pup::Sizer sizer;
  sizer | value;
  buf::BufferBuilder& builder = payload_builder();
  builder.reserve_slice(sizer.size());
  pup::Packer p(builder);
  p | value;
  return builder.take_slice();
}

/// Decode a payload produced by pack_payload.
template <typename T>
T unpack_payload(std::span<const std::byte> payload) {
  T value{};
  pup::Unpacker u(payload);
  u | value;
  ACR_REQUIRE(u.exhausted(), "payload has trailing bytes");
  return value;
}

template <typename T>
T unpack_payload(const Message& m) {
  return unpack_payload<T>(m.payload.bytes());
}

}  // namespace acr::rt
