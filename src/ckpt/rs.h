// Reed–Solomon erasure-coded checkpoint redundancy: survive any m losses
// per group.
//
// A single XOR parity block per group tops out at one loss; correlated
// bursts routinely kill 2+ nodes in one blade and force the slow fallback
// ladder. Rs(k, m) generalises RAID-5's rotated-stripe idea to m parity
// blocks per stripe over GF(256) (gf256.h), so ANY f <= m dead members of
// an n-node group are rebuilt bitwise from the n - f survivors. m = 1 is
// single parity: the driver's --ckpt-scheme=xor spells rs with m = 1.
//
// Stripe layout (n = group size, m = parity count, k = n - m data chunks
// per member; all arithmetic mod n):
//
//   - There are n stripes, one "rotation position" per member. Stripe s
//     is held as parity by the m members p = s, s+1, ..., s+m-1; every
//     other member r contributes its data chunk t = (s - r - 1) mod n.
//   - Equivalently: member r's image splits into k chunks of length
//     ceil(size_r / k); chunk t goes to stripe s = (r + 1 + t) mod n.
//     For m = 1 this is the classic RAID-5 rotation.
//   - Parity slot q of stripe s (held by p = (s + q) mod n) stores
//         P_q(s) = XOR-sum over data members r of  C[q][r] * chunk_r(s)
//     with Cauchy coefficients C[q][r] = 1 / (q XOR (m + r)) in GF(256)
//     (row labels 0..m-1, column labels m..m+n-1: disjoint, so every
//     square submatrix of C is invertible). Needs n + m <= 256.
//
// Survivability (the multi-loss argument; proof sketch in DESIGN.md §17):
// with f <= m dead members, a stripe s has u dead DATA members and hence
// at most f - u dead parity holders, leaving >= m - (f - u) >= u parity
// equations — and any u x u Cauchy submatrix is invertible, so Gaussian
// elimination recovers all u missing chunks of every stripe.
//
// The rebuild wave: the manager sends ONE RsRebuildCmd per group naming
// the whole dead set; every survivor ships one piece (its verified image +
// its m parity blocks + the recorded member sizes/digests) to EACH
// promoted spare; each spare independently runs the per-stripe Gaussian
// solve over gf256_muladd_row and restores only its own image,
// CRC-verified before promotion.
//
// This layer is runtime-agnostic: pup-able message structs + Hooks
// callbacks; the NodeAgent owns tags and routing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "buf/buffer.h"
#include "ckpt/codec.h"
#include "ckpt/group.h"
#include "ckpt/store.h"
#include "pup/pup.h"
#include "pup/stl.h"

namespace acr::ckpt {

/// Stripe-layout algebra, exposed for the decoder and the round-trip
/// tests. All functions are pure; n = group size, m = parity count.
namespace rs_layout {

/// Data chunks per member.
inline int chunk_count(int n, int m) { return n - m; }

/// Stripe receiving member r's data chunk t (t in [0, n-m)).
inline int data_stripe(int n, int r, int t) { return (r + 1 + t) % n; }

/// True when member r contributes a data chunk to stripe s.
inline bool is_data_member(int n, int m, int r, int s) {
  return (r - s + n) % n >= m;
}

/// Chunk index member r contributes to stripe s (requires is_data_member).
inline int chunk_index(int n, int r, int s) { return (s - r - 1 + n) % n; }

/// Parity slot q of member p in stripe s, or -1 when p is a data member.
inline int parity_slot(int n, int m, int p, int s) {
  int q = (p - s + n) % n;
  return q < m ? q : -1;
}

/// Parity holder of slot q of stripe s.
inline int parity_holder(int n, int s, int q) { return (s + q) % n; }

/// Cauchy coefficient applied to member rank r by parity slot q.
std::uint8_t coeff(int m, int q, int r);

}  // namespace rs_layout

/// One data chunk of the sender's verified image, bound for parity slot
/// `stripe` of the receiver. The chunk bytes ride as the attachment
/// (zero-copy slice of the stored checkpoint).
struct RsChunkMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::int32_t stripe = 0;         ///< stripe this chunk feeds
  std::uint64_t image_size = 0;    ///< sender's full verified image size
  std::uint32_t image_digest = 0;  ///< CRC32C of the sender's full image
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
    p | stripe;
    p | image_size;
    p | image_digest;
  }
};

/// Delta variant (codec pipeline): the XOR difference new^base of the
/// dirty sub-ranges of the sender's chunk. GF(256) multiplication
/// distributes over XOR, so the holder advances its seeded parity with
/// parity ^= C * diff over exactly these ranges. A holder seeds the round
/// from its complete base-epoch parity; valid only when EVERY data member
/// of the round diffs against that epoch — a mixed or unseedable round is
/// poisoned and simply does not complete (the group stays protected at
/// the base epoch until the next full exchange; see
/// kParityDeltaFullCadence).
struct RsDeltaChunkMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::uint64_t base_epoch = 0;
  std::int32_t stripe = 0;
  std::uint64_t image_size = 0;
  std::uint32_t image_digest = 0;  ///< CRC32C of the full NEW image
  std::uint8_t encoding = 0;       ///< 0 raw, 1 lz
  std::vector<std::uint64_t> offsets;  ///< chunk-relative dirty range starts
  std::vector<std::uint64_t> lens;
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
    p | base_epoch;
    p | stripe;
    p | image_size;
    p | image_digest;
    p | encoding;
    p | offsets;
    p | lens;
  }
};

/// Rebuild contribution from one survivor to a promoted spare: the
/// survivor's full verified image (attachment) plus ALL of its m parity
/// blocks (stripe ids + lengths + one concatenated blob — pup has no
/// nested-vector adapter) and the member sizes/digests its parity round
/// recorded.
struct RsPieceMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::uint64_t barrier = 0;
  std::uint64_t image_size = 0;  ///< sender's verified image size
  std::vector<std::int32_t> dead;  ///< dead group ranks this wave rebuilds
  std::vector<std::int32_t> stripe_ids;    ///< sender's parity stripes
  std::vector<std::uint64_t> parity_lens;  ///< per stripe_ids entry
  std::vector<std::uint8_t> parity;        ///< concatenated parity blocks
  std::vector<std::uint64_t> member_sizes;    ///< per group rank
  std::vector<std::uint32_t> member_digests;  ///< per group rank
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
    p | barrier;
    p | image_size;
    p | dead;
    p | stripe_ids;
    p | parity_lens;
    p | parity;
    p | member_sizes;
    p | member_digests;
  }
};

/// Every this-many epochs the parity exchange ships full chunks even when
/// deltas are possible, so a holder whose parity history died with its
/// hardware (promoted spare, shrink remap) re-converges within a bounded
/// number of commits instead of poisoning delta rounds forever.
inline constexpr std::uint64_t kParityDeltaFullCadence = 4;

/// The rs scheme's per-node state: one instance per node agent under rs
/// (none under local or partner). The agent forwards verified-image events
/// and the rs wire traffic here.
class RsScheme final {
 public:
  struct Stats {
    // Encode-side wire traffic (the steady-state parity exchange).
    std::uint64_t parity_chunks_sent = 0;
    std::uint64_t parity_bytes_sent = 0;  ///< chunk bytes put on the wire
    // Rebuild-side wire traffic (recovery waves only), kept separate so
    // sweeps can report steady-state encode cost vs recovery cost.
    std::uint64_t rebuild_pieces_sent = 0;
    std::uint64_t rebuild_bytes_sent = 0;  ///< piece payload bytes (image+parity)
    std::uint64_t rebuilds_completed = 0;  ///< images reassembled on this node
    std::uint64_t rebuilds_rejected = 0;   ///< reconstructions failing the CRC
    // Codec (delta) counters — zero unless --ckpt-delta=on.
    std::uint64_t parity_delta_chunks_sent = 0;
    std::uint64_t parity_delta_bytes_sent = 0;  ///< diff payload bytes shipped
    std::uint64_t parity_rounds_poisoned = 0;   ///< delta rounds that fell back
  };

  struct Hooks {
    /// Ship a parity chunk to group member `dst_index` (same replica).
    std::function<void(int dst_index, const RsChunkMsg& msg,
                       buf::Buffer chunk)>
        send_chunk;
    /// Ship a DELTA parity chunk (diff payload as the attachment). Only
    /// wired when the codec's delta stage is on.
    std::function<void(int dst_index, const RsDeltaChunkMsg& msg,
                       buf::Buffer payload)>
        send_delta_chunk;
    /// Ship a rebuild piece to the promoted spare at `dst_index`.
    std::function<void(int dst_index, const RsPieceMsg& msg,
                       buf::Buffer image)>
        send_piece;
    /// This node cannot contribute a usable piece (or the reconstruction
    /// failed): the manager must fall back down the recovery ladder.
    std::function<void(std::uint64_t barrier)> report_impossible;
    /// The multi-loss solve finished and the image verified: restore it.
    std::function<void(Image img, std::uint64_t barrier)> restore_rebuilt;
  };

  /// `codec` is the run's codec policy; its delta stage decides whether a
  /// round may ship diffs instead of full chunks.
  RsScheme(const GroupMap& groups, int node_index, int parity,
           CodecConfig codec, Hooks hooks);

  /// A new verified image exists on this node (commit promotion or a
  /// completed restore — the latter matters: a promoted spare's parity
  /// died with its predecessor and must be re-fed by the group). `base` is
  /// the previous verified image and `digests` this image's chunk digests;
  /// the round ships diffs against the base only when the codec's delta
  /// stage is on and the base fits (see kParityDeltaFullCadence). A null
  /// base ships full chunks.
  void on_verified(const Image& img, const DeltaBase* base = nullptr,
                   std::span<const std::uint32_t> digests = {});

  /// Forget all parity state (restart from scratch / re-promotion).
  void reset();

  /// Extra bytes this node holds purely for redundancy (parity blocks).
  std::size_t redundancy_bytes() const;

  const Stats& stats() const { return stats_; }

  /// A group member's parity chunk arrived for one of this node's parity
  /// stripes. Contributions are identity-tracked per (stripe, rank):
  /// at-least-once duplicates must not fold twice.
  void on_chunk(int src_index, const RsChunkMsg& msg, buf::Buffer chunk);

  /// A member's DELTA parity chunk arrived: seed the round from the
  /// base-epoch parity and advance the dirty ranges by C * diff.
  void on_delta_chunk(int src_index, const RsDeltaChunkMsg& msg,
                      buf::Buffer payload);

  /// Manager ordered this survivor to feed the spares rebuilding the dead
  /// node indices (one command covers the group's whole dead set).
  void on_rebuild_request(const std::vector<int>& dead_indices,
                          std::uint64_t barrier, const Image& verified);

  /// A survivor's rebuild piece arrived (this node is one of the spares).
  void on_piece(int src_index, const RsPieceMsg& msg, buf::Buffer image);

  bool parity_complete_for(std::uint64_t epoch) const {
    return complete_ && complete_->epoch == epoch;
  }
  int group_size() const { return n_; }

 private:
  struct StripeParity {
    std::set<int> contributed;  ///< ranks folded in (identity, not count)
    std::vector<std::byte> parity;
  };
  struct PendingRound {
    std::map<int, StripeParity> stripes;  ///< by stripe id (my slots only)
    std::uint64_t iteration = 0;
    std::vector<std::uint64_t> sizes;    ///< image size per rank (0 = self)
    std::vector<std::uint32_t> digests;  ///< image CRC32C per rank
    enum class Mode : std::uint8_t { Undecided, Full, Delta };
    Mode mode = Mode::Undecided;
    std::uint64_t base_epoch = 0;
    bool poisoned = false;
  };
  struct CompleteRound {
    std::uint64_t epoch = 0;
    std::uint64_t iteration = 0;
    std::map<int, std::vector<std::byte>> stripes;
    std::vector<std::uint64_t> sizes;
    std::vector<std::uint32_t> digests;
  };
  struct Piece {
    RsPieceMsg msg;
    buf::Buffer image;
  };

  int rank_of(int node_index) const;
  /// Chunk length for an image of `size` split into k data chunks.
  std::size_t chunk_len(std::uint64_t size) const;
  /// Bytes [begin, end) of chunk `t` of an image of `size`.
  std::pair<std::size_t, std::size_t> chunk_range(std::uint64_t size,
                                                  int t) const;
  /// The m stripe ids this node holds parity for, ascending.
  std::vector<int> my_parity_stripes() const;
  PendingRound& round_for(const std::uint64_t epoch);
  void finish_round_if_complete(std::uint64_t epoch, PendingRound& b);
  void try_reassemble(std::uint64_t barrier);
  void fail_rebuild(std::uint64_t barrier, const char* why);

  std::vector<int> members_;  ///< node indices of this group, ascending
  int n_ = 0;                 ///< group size
  int m_ = 0;                 ///< parity blocks per stripe
  int k_ = 0;                 ///< data chunks per member (n - m)
  int my_rank_ = 0;
  CodecConfig codec_;
  Hooks hooks_;
  Stats stats_;

  std::map<std::uint64_t, PendingRound> building_;  ///< by epoch
  std::optional<CompleteRound> complete_;
  /// Rebuild pieces while playing a spare, by barrier then sender rank.
  std::map<std::uint64_t, std::map<int, Piece>> rebuilds_;
};

}  // namespace acr::ckpt
