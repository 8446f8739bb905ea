// Pluggable checkpoint-redundancy schemes (the SCR-style trade space).
//
// The paper's buddy scheme (§2.1) fully duplicates every verified image
// across replicas. That is one point on a redundancy-vs-memory curve:
//
//   Local    no remote copy at all. Zero extra memory and wire; any hard
//            failure loses the node's image, so recovery degrades to a
//            scratch restart. SDC rollback (which only needs the local
//            verified image) still works.
//   Partner  the existing buddy path: the cross-replica copy of §2.1,
//            1x extra memory (held by the buddy), image-sized recovery
//            transfer over the expensive inter-replica links.
//   Rs       Reed–Solomon group parity within one replica (rs.h): any m
//            dead members of an n-node group are rebuilt from the n - m
//            survivors, so a buddy-PAIR loss (fatal under Partner) is
//            survivable. m = 1 is the classic RAID-5 XOR rotation; the
//            driver's --ckpt-scheme=xor is a spelling of it.
//
// This layer is runtime-agnostic: schemes speak through Hooks callbacks
// and pup-able message structs; the NodeAgent owns tags and routing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "buf/buffer.h"
#include "ckpt/codec.h"
#include "ckpt/store.h"

namespace acr::ckpt {

enum class Scheme { Local, Partner, Rs };

const char* scheme_name(Scheme s);

/// Codec context the agent hands the scheme alongside a verified image:
/// the previous verified epoch (the delta base) and this image's chunk
/// digests. Null pointer = no codec / no base — ship full. force_full
/// marks re-protection after a restore, whose receivers may have lost
/// their parity history.
struct DeltaHints {
  const CodecConfig* codec = nullptr;
  const buf::Buffer* base_image = nullptr;
  const std::vector<std::uint32_t>* base_digests = nullptr;
  const std::vector<std::uint32_t>* digests = nullptr;
  std::uint64_t base_epoch = 0;  ///< 0 = no base held
  bool force_full = false;
};

struct RedundancyStats {
  // Encode-side wire traffic (the steady-state parity exchange).
  std::uint64_t parity_chunks_sent = 0;
  std::uint64_t parity_bytes_sent = 0;    ///< chunk bytes put on the wire
  // Rebuild-side wire traffic (recovery waves only), kept separate so
  // sweeps can report steady-state encode cost vs recovery cost per scheme.
  std::uint64_t rebuild_pieces_sent = 0;
  std::uint64_t rebuild_bytes_sent = 0;   ///< piece payload bytes (image+parity)
  std::uint64_t rebuilds_completed = 0;   ///< images reassembled on this node
  std::uint64_t rebuilds_rejected = 0;    ///< reconstructions failing the CRC
  // Codec (delta) counters — zero unless --ckpt-delta=on.
  std::uint64_t parity_delta_chunks_sent = 0;
  std::uint64_t parity_delta_bytes_sent = 0;  ///< diff payload bytes shipped
  std::uint64_t parity_rounds_poisoned = 0;   ///< delta rounds that fell back
};

/// Strategy interface. One instance per node agent; the agent forwards
/// verified-image events and scheme-specific wire traffic here.
class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;
  virtual Scheme kind() const = 0;
  const char* name() const { return scheme_name(kind()); }

  /// A new verified image exists on this node (commit promotion or a
  /// completed restore — the latter matters: a promoted spare's parity
  /// died with its predecessor and must be re-fed by the group). `hints`
  /// (may be null) carries the codec's delta base and chunk digests.
  virtual void on_verified(const Image& img,
                           const DeltaHints* hints = nullptr) {
    (void)img;
    (void)hints;
  }

  /// Forget all redundancy state (restart from scratch / re-promotion).
  virtual void reset() {}

  /// Extra bytes this node holds purely for redundancy (parity blocks).
  virtual std::size_t redundancy_bytes() const { return 0; }

  const RedundancyStats& stats() const { return stats_; }

 protected:
  RedundancyStats stats_;
};

/// No remote copy: the verified image lives only in the node's Store.
class LocalScheme final : public RedundancyScheme {
 public:
  Scheme kind() const override { return Scheme::Local; }
};

/// The §2.1 buddy copy. The actual shipping/compare path stays in the
/// NodeAgent (it is fused with SDC detection and must remain bit-identical
/// to the pre-refactor protocol); this object only names the policy for
/// the manager's recovery routing.
class PartnerScheme final : public RedundancyScheme {
 public:
  Scheme kind() const override { return Scheme::Partner; }
};

}  // namespace acr::ckpt
