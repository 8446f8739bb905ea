#include "ckpt/redundancy.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/fold.h"
#include "checksum/kernels.h"
#include "common/logging.h"
#include "common/require.h"

namespace acr::ckpt {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Local:
      return "local";
    case Scheme::Partner:
      return "partner";
    case Scheme::Xor:
      return "xor";
    case Scheme::Rs:
      return "rs";
  }
  return "?";
}

namespace {

std::span<const std::byte> as_bytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

}  // namespace

XorScheme::XorScheme(const GroupMap& groups, int node_index, Hooks hooks)
    : members_(groups.group_members(node_index)),
      n_(static_cast<int>(members_.size())),
      my_rank_(groups.rank_in_group(node_index)),
      hooks_(std::move(hooks)) {
  ACR_REQUIRE(n_ >= 2, "XOR parity needs a group of at least two nodes");
}

int XorScheme::rank_of(int node_index) const {
  auto it = std::find(members_.begin(), members_.end(), node_index);
  ACR_REQUIRE(it != members_.end(), "node index outside this parity group");
  return static_cast<int>(it - members_.begin());
}

std::size_t XorScheme::chunk_len(std::uint64_t size) const {
  auto parts = static_cast<std::uint64_t>(n_ - 1);
  return static_cast<std::size_t>((size + parts - 1) / parts);
}

std::pair<std::size_t, std::size_t> XorScheme::chunk_range(std::uint64_t size,
                                                           int t) const {
  std::size_t cl = chunk_len(size);
  std::size_t begin =
      std::min(static_cast<std::size_t>(t) * cl, static_cast<std::size_t>(size));
  std::size_t end =
      std::min(begin + cl, static_cast<std::size_t>(size));
  return {begin, end};
}

void XorScheme::on_verified(const Image& img) {
  on_verified(img, nullptr);
}

void XorScheme::on_verified(const Image& img, const DeltaHints* hints) {
  ACR_REQUIRE(img.valid, "parity exchange needs a valid image");
  // Delta exchange is possible only when every precondition holds; any
  // miss falls back to the legacy full exchange (never a correctness
  // dependency). Cadence: epochs 1, 1+k, 1+2k... always go full, so a
  // holder that lost its parity history (promoted spare, shrink remap)
  // re-converges within k commits instead of poisoning rounds forever.
  bool delta = hints != nullptr && hints->codec != nullptr &&
               hints->codec->delta_on() && !hints->force_full &&
               hints->base_epoch != 0 && hints->base_epoch < img.epoch &&
               hints->base_image != nullptr &&
               hints->base_image->size() == img.image.size() &&
               hints->digests != nullptr && hints->base_digests != nullptr &&
               hints->digests->size() == hints->base_digests->size() &&
               img.epoch % kXorDeltaFullCadence != 1;
  // Recorded alongside every chunk so a future rebuild of THIS image can be
  // CRC-verified before promotion (verify-on-rebuild).
  std::uint32_t digest = checksum::crc32c_chunked(img.image.bytes());
  if (!delta) {
    // One chunk per other group member: holder i receives chunk (i-me-1)
    // mod n of this node's image, as a zero-copy slice of the stored
    // checkpoint.
    for (int i = 0; i < n_; ++i) {
      if (i == my_rank_) continue;
      int t = (i - my_rank_ - 1 + n_) % n_;
      auto [begin, end] = chunk_range(img.image.size(), t);
      XorChunkMsg msg;
      msg.epoch = img.epoch;
      msg.iteration = img.iteration;
      msg.image_size = img.image.size();
      msg.image_digest = digest;
      buf::Buffer chunk = img.image.buffer().slice(begin, end - begin);
      ++stats_.parity_chunks_sent;
      stats_.parity_bytes_sent += chunk.size();
      hooks_.send_chunk(members_[static_cast<std::size_t>(i)], msg,
                        std::move(chunk));
    }
    return;
  }

  std::span<const std::byte> now = img.image.bytes();
  std::span<const std::byte> base = hints->base_image->bytes();
  const std::vector<std::uint32_t>& dg = *hints->digests;
  const std::vector<std::uint32_t>& bdg = *hints->base_digests;
  for (int i = 0; i < n_; ++i) {
    if (i == my_rank_) continue;
    int t = (i - my_rank_ - 1 + n_) % n_;
    auto [begin, end] = chunk_range(img.image.size(), t);
    XorDeltaChunkMsg msg;
    msg.epoch = img.epoch;
    msg.iteration = img.iteration;
    msg.base_epoch = hints->base_epoch;
    msg.image_size = img.image.size();
    msg.image_digest = digest;
    // Dirty sub-ranges of this holder's slice: the digest grid's dirty
    // chunks intersected with [begin, end), adjacent runs merged. Offsets
    // are slice-relative — exactly the parity positions the holder folds.
    std::vector<std::byte> diff;
    std::size_t g0 = begin / checksum::kDigestChunk;
    for (std::size_t g = g0; g * checksum::kDigestChunk < end && g < dg.size();
         ++g) {
      if (dg[g] == bdg[g]) continue;
      auto [cb, ce] = checksum::digest_chunk_range(img.image.size(), g);
      std::size_t lo = cb > begin ? cb : begin;
      std::size_t hi = ce < end ? ce : end;
      if (lo >= hi) continue;
      std::uint64_t rel = lo - begin;
      if (!msg.offsets.empty() &&
          msg.offsets.back() + msg.lens.back() == rel) {
        msg.lens.back() += hi - lo;  // merge adjacent dirty runs
      } else {
        msg.offsets.push_back(rel);
        msg.lens.push_back(hi - lo);
      }
      std::size_t at = diff.size();
      diff.resize(at + (hi - lo));
      std::memcpy(diff.data() + at, now.data() + lo, hi - lo);
      checksum::kernels::xor_fold_words(diff.data() + at, base.data() + lo,
                                        hi - lo);
    }
    buf::Buffer payload;
    if (hints->codec->compress_on() && !diff.empty()) {
      if (auto lz = lz_compress_if_smaller(diff)) {
        msg.encoding = 1;
        payload = buf::Buffer::wrap(std::move(*lz));
      }
    }
    if (msg.encoding == 0 && !diff.empty())
      payload = buf::Buffer::wrap(std::move(diff));
    ++stats_.parity_delta_chunks_sent;
    stats_.parity_delta_bytes_sent += payload.size();
    hooks_.send_delta_chunk(members_[static_cast<std::size_t>(i)], msg,
                            std::move(payload));
  }
}

void XorScheme::on_chunk(int src_index, const XorChunkMsg& msg,
                         buf::Buffer chunk) {
  // Epochs commit monotonically (a rollback targets the LAST committed
  // epoch, never older), so anything at or below the complete parity's
  // epoch is a duplicate or a post-rollback re-exchange of what we hold.
  if (complete_ && msg.epoch <= complete_->epoch) return;
  int rank = rank_of(src_index);
  PendingParity& b = building_[msg.epoch];
  if (b.sizes.empty()) b.sizes.assign(static_cast<std::size_t>(n_), 0);
  if (b.digests.empty()) b.digests.assign(static_cast<std::size_t>(n_), 0);
  if (!b.contributed.insert(rank).second) return;  // duplicate chunk
  if (b.mode == PendingParity::Mode::Undecided)
    b.mode = PendingParity::Mode::Full;
  else if (b.mode != PendingParity::Mode::Full)
    b.poisoned = true;  // mixed full/delta round: the algebra is meaningless
  // Building the group parity is the hottest xor in the tree (one fold per
  // arriving chunk per epoch); fan it across the kernel pool. XOR is
  // positional, so the parity bytes are identical at any thread count.
  if (!b.poisoned) checksum::xor_fold_chunked(b.parity, chunk.bytes());
  b.sizes[static_cast<std::size_t>(rank)] = msg.image_size;
  b.digests[static_cast<std::size_t>(rank)] = msg.image_digest;
  b.iteration = msg.iteration;
  finish_round_if_complete(msg.epoch, b);
}

void XorScheme::on_delta_chunk(int src_index, const XorDeltaChunkMsg& msg,
                               buf::Buffer payload) {
  if (complete_ && msg.epoch <= complete_->epoch) return;
  int rank = rank_of(src_index);
  PendingParity& b = building_[msg.epoch];
  if (b.sizes.empty()) b.sizes.assign(static_cast<std::size_t>(n_), 0);
  if (b.digests.empty()) b.digests.assign(static_cast<std::size_t>(n_), 0);
  if (!b.contributed.insert(rank).second) return;  // duplicate contribution
  if (b.mode == PendingParity::Mode::Undecided) {
    if (complete_ && complete_->epoch == msg.base_epoch) {
      // Seed this round's parity from the base epoch's complete parity;
      // each member's diff advances it in place.
      b.mode = PendingParity::Mode::Delta;
      b.base_epoch = msg.base_epoch;
      b.parity = complete_->parity;
      b.sizes = complete_->sizes;
      b.sizes[static_cast<std::size_t>(my_rank_)] = 0;
      b.digests = complete_->digests;
      b.digests[static_cast<std::size_t>(my_rank_)] = 0;
    } else {
      b.mode = PendingParity::Mode::Delta;
      b.poisoned = true;  // nothing to seed from: wait for a full round
    }
  } else if (b.mode != PendingParity::Mode::Delta ||
             b.base_epoch != msg.base_epoch) {
    b.poisoned = true;
  }
  // A member whose image size changed must have sent full (its own
  // precondition); a size mismatch against the seeded parity is corrupt.
  if (!b.poisoned && b.sizes[static_cast<std::size_t>(rank)] != msg.image_size)
    b.poisoned = true;
  if (!b.poisoned && msg.offsets.size() != msg.lens.size()) b.poisoned = true;
  if (!b.poisoned) {
    std::uint64_t total = 0;
    for (std::uint64_t l : msg.lens) total += l;
    std::vector<std::byte> raw;
    std::span<const std::byte> diff = payload.bytes();
    if (msg.encoding == 1) {
      try {
        raw = lz_decompress_block(payload.bytes(),
                                  static_cast<std::size_t>(total));
      } catch (const pup::StreamError&) {
        b.poisoned = true;
      }
      diff = raw;
    }
    if (!b.poisoned && diff.size() != total) b.poisoned = true;
    if (!b.poisoned) {
      std::size_t cursor = 0;
      for (std::size_t r = 0; r < msg.offsets.size(); ++r) {
        std::size_t off = static_cast<std::size_t>(msg.offsets[r]);
        std::size_t len = static_cast<std::size_t>(msg.lens[r]);
        if (off + len > b.parity.size()) {
          b.poisoned = true;
          break;
        }
        checksum::kernels::xor_fold_words(b.parity.data() + off,
                                          diff.data() + cursor, len);
        cursor += len;
      }
    }
  }
  b.sizes[static_cast<std::size_t>(rank)] = msg.image_size;
  b.digests[static_cast<std::size_t>(rank)] = msg.image_digest;
  b.iteration = msg.iteration;
  finish_round_if_complete(msg.epoch, b);
}

void XorScheme::finish_round_if_complete(std::uint64_t epoch,
                                         PendingParity& b) {
  if (static_cast<int>(b.contributed.size()) < n_ - 1) return;
  if (b.poisoned) {
    // The round never completes; complete_ keeps protecting its (older)
    // epoch until a full exchange re-converges the group.
    ++stats_.parity_rounds_poisoned;
    log_warn("ckpt.xor") << "parity round for epoch " << epoch
                         << " poisoned; keeping epoch "
                         << (complete_ ? complete_->epoch : 0);
    building_.erase(epoch);
    return;
  }
  CompleteParity done;
  done.epoch = epoch;
  done.iteration = b.iteration;
  done.parity = std::move(b.parity);
  done.sizes = std::move(b.sizes);
  done.digests = std::move(b.digests);
  complete_ = std::move(done);
  // Stale rounds below the completed epoch can never finish.
  building_.erase(building_.begin(),
                  building_.upper_bound(complete_->epoch));
}

std::size_t XorScheme::redundancy_bytes() const {
  std::size_t bytes = complete_ ? complete_->parity.size() : 0;
  for (const auto& [epoch, b] : building_) bytes += b.parity.size();
  return bytes;
}

void XorScheme::on_rebuild_request(int dead_index, std::uint64_t barrier,
                                   const Image& verified) {
  // A usable piece needs this node's verified image AND a complete parity
  // block for the SAME epoch. A commit whose parity exchange was still in
  // flight when the group member died fails this test; the manager then
  // falls back to scratch (deterministic — no waiting on lost chunks).
  if (!verified.valid || !complete_ || complete_->epoch != verified.epoch) {
    log_warn("ckpt.xor") << "rebuild piece unusable (verified epoch "
                         << (verified.valid ? verified.epoch : 0)
                         << ", parity epoch "
                         << (complete_ ? complete_->epoch : 0) << ")";
    hooks_.report_impossible(barrier);
    return;
  }
  XorPieceMsg msg;
  msg.epoch = verified.epoch;
  msg.iteration = verified.iteration;
  msg.barrier = barrier;
  msg.image_size = verified.image.size();
  msg.parity.resize(complete_->parity.size());
  std::transform(complete_->parity.begin(), complete_->parity.end(),
                 msg.parity.begin(),
                 [](std::byte b) { return static_cast<std::uint8_t>(b); });
  msg.member_sizes = complete_->sizes;
  msg.member_digests = complete_->digests;
  ++stats_.rebuild_pieces_sent;
  stats_.rebuild_bytes_sent += verified.image.size() + msg.parity.size();
  hooks_.send_piece(dead_index, msg, verified.image.buffer());
}

void XorScheme::on_piece(int src_index, const XorPieceMsg& msg,
                         buf::Buffer image) {
  // Pieces from an older (abandoned) restore wave are dropped by the agent
  // before reaching here; anything below the newest barrier seen is stale.
  rebuilds_.erase(rebuilds_.begin(), rebuilds_.lower_bound(msg.barrier));
  Piece piece;
  piece.epoch = msg.epoch;
  piece.iteration = msg.iteration;
  piece.image_size = msg.image_size;
  piece.image = std::move(image);
  piece.parity = msg.parity;
  piece.member_sizes = msg.member_sizes;
  piece.member_digests = msg.member_digests;
  rebuilds_[msg.barrier].insert({rank_of(src_index), std::move(piece)});
  try_reassemble(msg.barrier);
}

void XorScheme::try_reassemble(std::uint64_t barrier) {
  auto& pieces = rebuilds_[barrier];
  if (static_cast<int>(pieces.size()) < n_ - 1) return;
  // All survivors must agree on the epoch: a commit/rollback racing the
  // failure can leave the group split across epochs, in which case the
  // XOR algebra is meaningless and scratch is the only sound answer.
  const Piece& first = pieces.begin()->second;
  for (const auto& [rank, p] : pieces) {
    if (p.epoch != first.epoch ||
        p.member_sizes.size() != static_cast<std::size_t>(n_)) {
      log_warn("ckpt.xor") << "rebuild pieces span epochs; giving up";
      rebuilds_.erase(barrier);
      hooks_.report_impossible(barrier);
      return;
    }
  }
  std::uint64_t my_size =
      first.member_sizes[static_cast<std::size_t>(my_rank_)];
  std::vector<std::byte> rebuilt;
  rebuilt.reserve(static_cast<std::size_t>(my_size));
  for (int t = 0; t < n_ - 1; ++t) {
    int holder = (t + my_rank_ + 1) % n_;
    const Piece& hp = pieces.at(holder);
    std::vector<std::byte> acc(as_bytes(hp.parity).begin(),
                               as_bytes(hp.parity).end());
    for (const auto& [rank, p] : pieces) {
      if (rank == holder) continue;
      int tc = (holder - rank - 1 + n_) % n_;
      auto [begin, end] = chunk_range(p.image_size, tc);
      checksum::xor_fold_chunked(acc,
                                 p.image.bytes().subspan(begin, end - begin));
    }
    auto [mb, me] = chunk_range(my_size, t);
    std::size_t want = me - mb;
    if (acc.size() < want) acc.resize(want, std::byte{0});
    rebuilt.insert(rebuilt.end(), acc.begin(),
                   acc.begin() + static_cast<std::ptrdiff_t>(want));
  }
  ACR_REQUIRE(rebuilt.size() == my_size,
              "reassembled image has the wrong size");
  // Verify-on-rebuild: the survivors recorded this member's image CRC32C
  // during the parity exchange; a reconstruction that does not match it
  // (bit rot, a corrupted piece, inconsistent survivor state) must degrade
  // to the manager's fallback ladder instead of silently promoting.
  std::uint32_t want_digest = 0;
  for (const auto& [rank, p] : pieces) {
    if (p.member_digests.size() != static_cast<std::size_t>(n_)) continue;
    std::uint32_t d = p.member_digests[static_cast<std::size_t>(my_rank_)];
    if (want_digest == 0) want_digest = d;
    if (d != 0 && d != want_digest) {
      log_warn("ckpt.xor") << "rebuild pieces disagree on the image digest";
      rebuilds_.erase(barrier);
      ++stats_.rebuilds_rejected;
      hooks_.report_impossible(barrier);
      return;
    }
  }
  if (want_digest != 0 &&
      checksum::crc32c_chunked(rebuilt) != want_digest) {
    log_warn("ckpt.xor") << "rebuilt image fails its CRC; refusing to promote";
    rebuilds_.erase(barrier);
    ++stats_.rebuilds_rejected;
    hooks_.report_impossible(barrier);
    return;
  }
  Image img;
  img.valid = true;
  img.epoch = first.epoch;
  img.iteration = first.iteration;
  img.image = pup::Checkpoint(std::move(rebuilt));
  img.image.epoch = img.epoch;
  rebuilds_.erase(barrier);
  ++stats_.rebuilds_completed;
  hooks_.restore_rebuilt(std::move(img), barrier);
}

void XorScheme::reset() {
  building_.clear();
  complete_.reset();
  rebuilds_.clear();
}

}  // namespace acr::ckpt
