#include "ckpt/rs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "checksum/crc32c.h"
#include "checksum/gf256.h"
#include "checksum/kernels.h"
#include "common/logging.h"
#include "common/require.h"

namespace acr::ckpt {

namespace rs_layout {

std::uint8_t coeff(int m, int q, int r) {
  // Cauchy element 1 / (x_q + y_r) with x_q = q (q < m) and y_r = m + r.
  // The label sets are disjoint, so the denominator is never zero and
  // every square submatrix of the coefficient matrix is invertible.
  auto x = static_cast<std::uint8_t>(q);
  auto y = static_cast<std::uint8_t>(m + r);
  return checksum::gf256::inv(static_cast<std::uint8_t>(x ^ y));
}

}  // namespace rs_layout

namespace {

std::span<const std::byte> as_bytes(const std::vector<std::uint8_t>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

}  // namespace

RsScheme::RsScheme(const GroupMap& groups, int node_index, int parity,
                   Hooks hooks)
    : members_(groups.group_members(node_index)),
      n_(static_cast<int>(members_.size())),
      m_(parity),
      k_(n_ - parity),
      my_rank_(groups.rank_in_group(node_index)),
      hooks_(std::move(hooks)) {
  ACR_REQUIRE(n_ >= 2, "RS parity needs a group of at least two nodes");
  ACR_REQUIRE(m_ >= 1 && m_ < n_,
              "RS parity count must be in [1, group size)");
  ACR_REQUIRE(n_ + m_ <= 256,
              "RS group size + parity must fit the GF(256) label space");
}

int RsScheme::rank_of(int node_index) const {
  auto it = std::find(members_.begin(), members_.end(), node_index);
  ACR_REQUIRE(it != members_.end(), "node index outside this RS group");
  return static_cast<int>(it - members_.begin());
}

std::size_t RsScheme::chunk_len(std::uint64_t size) const {
  auto parts = static_cast<std::uint64_t>(k_);
  return static_cast<std::size_t>((size + parts - 1) / parts);
}

std::pair<std::size_t, std::size_t> RsScheme::chunk_range(std::uint64_t size,
                                                          int t) const {
  std::size_t cl = chunk_len(size);
  std::size_t begin = std::min(static_cast<std::size_t>(t) * cl,
                               static_cast<std::size_t>(size));
  std::size_t end = std::min(begin + cl, static_cast<std::size_t>(size));
  return {begin, end};
}

std::vector<int> RsScheme::my_parity_stripes() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(m_));
  for (int q = 0; q < m_; ++q) out.push_back((my_rank_ - q + n_) % n_);
  std::sort(out.begin(), out.end());
  return out;
}

RsScheme::PendingRound& RsScheme::round_for(const std::uint64_t epoch) {
  PendingRound& b = building_[epoch];
  if (b.sizes.empty()) b.sizes.assign(static_cast<std::size_t>(n_), 0);
  if (b.digests.empty()) b.digests.assign(static_cast<std::size_t>(n_), 0);
  return b;
}

void RsScheme::on_verified(const Image& img, const DeltaHints* hints) {
  ACR_REQUIRE(img.valid, "parity exchange needs a valid image");
  // Delta exchange is possible only when every precondition holds; any
  // miss falls back to the full exchange (never a correctness
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
               img.epoch % kParityDeltaFullCadence != 1;
  std::uint32_t digest = checksum::crc32c(img.image.bytes());
  if (!delta) {
    // Chunk t feeds stripe (me + 1 + t) mod n; each of that stripe's m
    // parity holders receives the same zero-copy slice.
    for (int t = 0; t < k_; ++t) {
      int s = rs_layout::data_stripe(n_, my_rank_, t);
      auto [begin, end] = chunk_range(img.image.size(), t);
      for (int q = 0; q < m_; ++q) {
        int p = rs_layout::parity_holder(n_, s, q);
        RsChunkMsg msg;
        msg.epoch = img.epoch;
        msg.iteration = img.iteration;
        msg.stripe = s;
        msg.image_size = img.image.size();
        msg.image_digest = digest;
        buf::Buffer chunk = img.image.buffer().slice(begin, end - begin);
        ++stats_.parity_chunks_sent;
        stats_.parity_bytes_sent += chunk.size();
        hooks_.send_chunk(members_[static_cast<std::size_t>(p)], msg,
                          std::move(chunk));
      }
    }
    return;
  }

  std::span<const std::byte> now = img.image.bytes();
  std::span<const std::byte> base = hints->base_image->bytes();
  const std::vector<std::uint32_t>& dg = *hints->digests;
  const std::vector<std::uint32_t>& bdg = *hints->base_digests;
  for (int t = 0; t < k_; ++t) {
    int s = rs_layout::data_stripe(n_, my_rank_, t);
    auto [begin, end] = chunk_range(img.image.size(), t);
    // Dirty sub-ranges of this chunk: digest-grid dirty chunks intersected
    // with [begin, end), adjacent runs merged; offsets are chunk-relative,
    // which is exactly the parity position every holder folds at.
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> lens;
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
      if (!offsets.empty() && offsets.back() + lens.back() == rel) {
        lens.back() += hi - lo;
      } else {
        offsets.push_back(rel);
        lens.push_back(hi - lo);
      }
      std::size_t at = diff.size();
      diff.resize(at + (hi - lo));
      std::memcpy(diff.data() + at, now.data() + lo, hi - lo);
      checksum::kernels::xor_fold_words(diff.data() + at, base.data() + lo,
                                        hi - lo);
    }
    std::uint8_t encoding = 0;
    buf::Buffer payload;
    if (hints->codec->compress_on() && !diff.empty()) {
      if (auto lz = lz_compress_if_smaller(diff)) {
        encoding = 1;
        payload = buf::Buffer::wrap(std::move(*lz));
      }
    }
    if (encoding == 0 && !diff.empty())
      payload = buf::Buffer::wrap(std::move(diff));
    // The same diff payload serves all m holders of this stripe (the
    // buffer is ref-counted; each send shares the bytes).
    for (int q = 0; q < m_; ++q) {
      int p = rs_layout::parity_holder(n_, s, q);
      RsDeltaChunkMsg msg;
      msg.epoch = img.epoch;
      msg.iteration = img.iteration;
      msg.base_epoch = hints->base_epoch;
      msg.stripe = s;
      msg.image_size = img.image.size();
      msg.image_digest = digest;
      msg.encoding = encoding;
      msg.offsets = offsets;
      msg.lens = lens;
      ++stats_.parity_delta_chunks_sent;
      stats_.parity_delta_bytes_sent += payload.size();
      hooks_.send_delta_chunk(members_[static_cast<std::size_t>(p)], msg,
                              payload);
    }
  }
}

void RsScheme::on_chunk(int src_index, const RsChunkMsg& msg,
                        buf::Buffer chunk) {
  if (complete_ && msg.epoch <= complete_->epoch) return;
  int rank = rank_of(src_index);
  int s = static_cast<int>(msg.stripe);
  int q = rs_layout::parity_slot(n_, m_, my_rank_, s);
  if (q < 0 || !rs_layout::is_data_member(n_, m_, rank, s)) {
    log_warn("ckpt.rs") << "misrouted parity chunk (stripe " << s
                        << " from rank " << rank << "); dropping";
    return;
  }
  PendingRound& b = round_for(msg.epoch);
  StripeParity& sp = b.stripes[s];
  if (!sp.contributed.insert(rank).second) return;  // duplicate chunk
  if (b.mode == PendingRound::Mode::Undecided)
    b.mode = PendingRound::Mode::Full;
  else if (b.mode != PendingRound::Mode::Full)
    b.poisoned = true;  // mixed full/delta round
  if (!b.poisoned)
    checksum::gf256_muladd(sp.parity, chunk.bytes(),
                           rs_layout::coeff(m_, q, rank));
  b.sizes[static_cast<std::size_t>(rank)] = msg.image_size;
  b.digests[static_cast<std::size_t>(rank)] = msg.image_digest;
  b.iteration = msg.iteration;
  finish_round_if_complete(msg.epoch, b);
}

void RsScheme::on_delta_chunk(int src_index, const RsDeltaChunkMsg& msg,
                              buf::Buffer payload) {
  if (complete_ && msg.epoch <= complete_->epoch) return;
  int rank = rank_of(src_index);
  int s = static_cast<int>(msg.stripe);
  int q = rs_layout::parity_slot(n_, m_, my_rank_, s);
  if (q < 0 || !rs_layout::is_data_member(n_, m_, rank, s)) {
    log_warn("ckpt.rs") << "misrouted delta parity chunk (stripe " << s
                        << " from rank " << rank << "); dropping";
    return;
  }
  PendingRound& b = round_for(msg.epoch);
  StripeParity& sp = b.stripes[s];
  if (!sp.contributed.insert(rank).second) return;  // duplicate contribution
  if (b.mode == PendingRound::Mode::Undecided) {
    if (complete_ && complete_->epoch == msg.base_epoch) {
      // Seed ALL of this node's stripe parities from the base round; each
      // member's diff advances its stripe in place.
      b.mode = PendingRound::Mode::Delta;
      b.base_epoch = msg.base_epoch;
      for (const auto& [sid, bytes] : complete_->stripes)
        b.stripes[sid].parity = bytes;
      b.sizes = complete_->sizes;
      b.sizes[static_cast<std::size_t>(my_rank_)] = 0;
      b.digests = complete_->digests;
      b.digests[static_cast<std::size_t>(my_rank_)] = 0;
    } else {
      b.mode = PendingRound::Mode::Delta;
      b.poisoned = true;  // nothing to seed from: wait for a full round
    }
  } else if (b.mode != PendingRound::Mode::Delta ||
             b.base_epoch != msg.base_epoch) {
    b.poisoned = true;
  }
  if (!b.poisoned && b.sizes[static_cast<std::size_t>(rank)] != msg.image_size)
    b.poisoned = true;  // a size change requires a full exchange
  if (!b.poisoned && msg.offsets.size() != msg.lens.size()) b.poisoned = true;
  if (!b.poisoned) {
    StripeParity& seeded = b.stripes[s];
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
      std::uint8_t c = rs_layout::coeff(m_, q, rank);
      std::size_t cursor = 0;
      for (std::size_t r = 0; r < msg.offsets.size(); ++r) {
        std::size_t off = static_cast<std::size_t>(msg.offsets[r]);
        std::size_t len = static_cast<std::size_t>(msg.lens[r]);
        if (off + len > seeded.parity.size()) {
          b.poisoned = true;
          break;
        }
        checksum::kernels::gf256_muladd_row(seeded.parity.data() + off,
                                            diff.data() + cursor, c, len);
        cursor += len;
      }
    }
  }
  b.sizes[static_cast<std::size_t>(rank)] = msg.image_size;
  b.digests[static_cast<std::size_t>(rank)] = msg.image_digest;
  b.iteration = msg.iteration;
  finish_round_if_complete(msg.epoch, b);
}

void RsScheme::finish_round_if_complete(std::uint64_t epoch, PendingRound& b) {
  // Complete when every one of this node's m parity stripes has all k data
  // contributions (m * k total, identity-tracked per stripe).
  std::size_t got = 0;
  for (const auto& [sid, sp] : b.stripes) got += sp.contributed.size();
  if (got < static_cast<std::size_t>(m_) * static_cast<std::size_t>(k_))
    return;
  if (b.poisoned) {
    ++stats_.parity_rounds_poisoned;
    log_warn("ckpt.rs") << "parity round for epoch " << epoch
                        << " poisoned; keeping epoch "
                        << (complete_ ? complete_->epoch : 0);
    building_.erase(epoch);
    return;
  }
  CompleteRound done;
  done.epoch = epoch;
  done.iteration = b.iteration;
  for (auto& [sid, sp] : b.stripes)
    done.stripes[sid] = std::move(sp.parity);
  done.sizes = std::move(b.sizes);
  done.digests = std::move(b.digests);
  complete_ = std::move(done);
  building_.erase(building_.begin(), building_.upper_bound(complete_->epoch));
}

std::size_t RsScheme::redundancy_bytes() const {
  std::size_t bytes = 0;
  if (complete_)
    for (const auto& [sid, p] : complete_->stripes) bytes += p.size();
  for (const auto& [epoch, b] : building_)
    for (const auto& [sid, sp] : b.stripes) bytes += sp.parity.size();
  return bytes;
}

void RsScheme::on_rebuild_request(const std::vector<int>& dead_indices,
                                  std::uint64_t barrier,
                                  const Image& verified) {
  if (!verified.valid || !complete_ || complete_->epoch != verified.epoch) {
    log_warn("ckpt.rs") << "rebuild piece unusable (verified epoch "
                        << (verified.valid ? verified.epoch : 0)
                        << ", parity epoch "
                        << (complete_ ? complete_->epoch : 0) << ")";
    hooks_.report_impossible(barrier);
    return;
  }
  RsPieceMsg msg;
  msg.epoch = verified.epoch;
  msg.iteration = verified.iteration;
  msg.barrier = barrier;
  msg.image_size = verified.image.size();
  for (int d : dead_indices)
    msg.dead.push_back(static_cast<std::int32_t>(rank_of(d)));
  std::sort(msg.dead.begin(), msg.dead.end());
  for (const auto& [sid, p] : complete_->stripes) {
    msg.stripe_ids.push_back(static_cast<std::int32_t>(sid));
    msg.parity_lens.push_back(p.size());
    std::size_t at = msg.parity.size();
    msg.parity.resize(at + p.size());
    std::transform(p.begin(), p.end(), msg.parity.begin() + at,
                   [](std::byte b) { return static_cast<std::uint8_t>(b); });
  }
  msg.member_sizes = complete_->sizes;
  msg.member_sizes[static_cast<std::size_t>(my_rank_)] =
      verified.image.size();
  msg.member_digests = complete_->digests;
  msg.member_digests[static_cast<std::size_t>(my_rank_)] =
      checksum::crc32c(verified.image.bytes());
  for (std::int32_t d : msg.dead) {
    ++stats_.rebuild_pieces_sent;
    stats_.rebuild_bytes_sent += verified.image.size() + msg.parity.size();
    hooks_.send_piece(members_[static_cast<std::size_t>(d)], msg,
                      verified.image.buffer());
  }
}

void RsScheme::on_piece(int src_index, const RsPieceMsg& msg,
                        buf::Buffer image) {
  rebuilds_.erase(rebuilds_.begin(), rebuilds_.lower_bound(msg.barrier));
  Piece piece;
  piece.msg = msg;
  piece.image = std::move(image);
  rebuilds_[msg.barrier].insert({rank_of(src_index), std::move(piece)});
  try_reassemble(msg.barrier);
}

void RsScheme::fail_rebuild(std::uint64_t barrier, const char* why) {
  log_warn("ckpt.rs") << "rebuild abandoned: " << why;
  rebuilds_.erase(barrier);
  hooks_.report_impossible(barrier);
}

void RsScheme::try_reassemble(std::uint64_t barrier) {
  auto& pieces = rebuilds_[barrier];
  if (pieces.empty()) return;
  const Piece& first = pieces.begin()->second;
  std::size_t f = first.msg.dead.size();
  if (f == 0 || f > static_cast<std::size_t>(m_))
    return fail_rebuild(barrier, "dead set outside [1, m]");
  if (pieces.size() < static_cast<std::size_t>(n_) - f) return;
  // Every survivor must agree on epoch and on the dead set, and carry a
  // structurally sound parity payload; the whole group either rebuilds
  // from one consistent snapshot or not at all.
  for (const auto& [rank, p] : pieces) {
    const RsPieceMsg& pm = p.msg;
    if (pm.epoch != first.msg.epoch || pm.dead != first.msg.dead)
      return fail_rebuild(barrier, "pieces span epochs or dead sets");
    if (pm.member_sizes.size() != static_cast<std::size_t>(n_) ||
        pm.member_digests.size() != static_cast<std::size_t>(n_) ||
        pm.stripe_ids.size() != pm.parity_lens.size())
      return fail_rebuild(barrier, "malformed piece");
    std::uint64_t total = 0;
    for (std::uint64_t l : pm.parity_lens) total += l;
    if (pm.parity.size() != total)
      return fail_rebuild(barrier, "parity blob does not match its lengths");
  }
  std::vector<int> dead(first.msg.dead.begin(), first.msg.dead.end());
  if (!std::binary_search(dead.begin(), dead.end(), my_rank_))
    return fail_rebuild(barrier, "this node is not in the wave's dead set");
  // Member sizes: survivors report their own image directly; dead members'
  // sizes/digests come from the survivors' parity-round records and must
  // agree across all pieces.
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(n_), 0);
  std::vector<std::uint32_t> digests(static_cast<std::size_t>(n_), 0);
  for (const auto& [rank, p] : pieces)
    sizes[static_cast<std::size_t>(rank)] = p.msg.image_size;
  for (int d : dead) {
    for (const auto& [rank, p] : pieces) {
      std::uint64_t sz = p.msg.member_sizes[static_cast<std::size_t>(d)];
      std::uint32_t dg = p.msg.member_digests[static_cast<std::size_t>(d)];
      if (sizes[static_cast<std::size_t>(d)] == 0)
        sizes[static_cast<std::size_t>(d)] = sz;
      else if (sz != 0 && sz != sizes[static_cast<std::size_t>(d)])
        return fail_rebuild(barrier, "survivors disagree on a dead size");
      if (digests[static_cast<std::size_t>(d)] == 0)
        digests[static_cast<std::size_t>(d)] = dg;
      else if (dg != 0 && dg != digests[static_cast<std::size_t>(d)])
        return fail_rebuild(barrier, "survivors disagree on a dead digest");
    }
    if (sizes[static_cast<std::size_t>(d)] == 0)
      return fail_rebuild(barrier, "no survivor knows a dead member's size");
  }
  std::uint64_t my_size = sizes[static_cast<std::size_t>(my_rank_)];

  // Per-stripe Gaussian solve for this node's k data chunks. Everything
  // iterates in canonical order (ranks ascending, parity slots ascending),
  // so every spare computes the same bytes.
  std::vector<std::byte> rebuilt;
  rebuilt.reserve(static_cast<std::size_t>(my_size));
  for (int t = 0; t < k_; ++t) {
    int s = rs_layout::data_stripe(n_, my_rank_, t);
    // Unknowns: dead data members of this stripe (me included).
    std::vector<int> unknowns;
    for (int d : dead)
      if (rs_layout::is_data_member(n_, m_, d, s)) unknowns.push_back(d);
    std::size_t u = unknowns.size();
    // Surviving parity equations, first u in slot order. With f <= m dead
    // there are always enough: the stripe loses at most f - u holders.
    std::vector<int> slots;
    for (int q = 0; q < m_ && slots.size() < u; ++q) {
      int p = rs_layout::parity_holder(n_, s, q);
      if (pieces.find(p) != pieces.end()) slots.push_back(q);
    }
    if (slots.size() < u)
      return fail_rebuild(barrier, "not enough surviving parity equations");
    // Parity block length: the longest data chunk of this stripe.
    std::size_t plen = 0;
    for (int r = 0; r < n_; ++r) {
      if (!rs_layout::is_data_member(n_, m_, r, s)) continue;
      auto [cb, ce] = chunk_range(sizes[static_cast<std::size_t>(r)],
                                  rs_layout::chunk_index(n_, r, s));
      plen = std::max(plen, ce - cb);
    }
    // Right-hand sides: each surviving parity block minus (XOR) the known
    // survivors' contributions, leaving only the unknowns' terms.
    std::vector<std::vector<std::byte>> rhs(u);
    std::vector<std::vector<std::uint8_t>> mat(
        u, std::vector<std::uint8_t>(u, 0));
    for (std::size_t i = 0; i < u; ++i) {
      int q = slots[i];
      int holder = rs_layout::parity_holder(n_, s, q);
      const RsPieceMsg& hm = pieces.at(holder).msg;
      auto it = std::find(hm.stripe_ids.begin(), hm.stripe_ids.end(),
                          static_cast<std::int32_t>(s));
      if (it == hm.stripe_ids.end())
        return fail_rebuild(barrier, "holder piece is missing a stripe");
      std::size_t idx =
          static_cast<std::size_t>(it - hm.stripe_ids.begin());
      std::size_t off = 0;
      for (std::size_t j = 0; j < idx; ++j)
        off += static_cast<std::size_t>(hm.parity_lens[j]);
      std::size_t len = static_cast<std::size_t>(hm.parity_lens[idx]);
      std::span<const std::byte> block =
          as_bytes(hm.parity).subspan(off, len);
      rhs[i].assign(block.begin(), block.end());
      rhs[i].resize(plen, std::byte{0});
      for (int r = 0; r < n_; ++r) {
        if (!rs_layout::is_data_member(n_, m_, r, s)) continue;
        if (std::binary_search(dead.begin(), dead.end(), r)) continue;
        auto [cb, ce] = chunk_range(sizes[static_cast<std::size_t>(r)],
                                    rs_layout::chunk_index(n_, r, s));
        checksum::gf256_muladd(
            rhs[i], pieces.at(r).image.bytes().subspan(cb, ce - cb),
            rs_layout::coeff(m_, q, r));
      }
      for (std::size_t j = 0; j < u; ++j)
        mat[i][j] = rs_layout::coeff(m_, q, unknowns[j]);
    }
    // Gauss–Jordan elimination over GF(256); the byte-vector row ops run
    // through the dispatched muladd kernel.
    for (std::size_t col = 0; col < u; ++col) {
      std::size_t piv = col;
      while (piv < u && mat[piv][col] == 0) ++piv;
      if (piv == u)
        return fail_rebuild(barrier, "singular rebuild system");
      if (piv != col) {
        std::swap(mat[piv], mat[col]);
        std::swap(rhs[piv], rhs[col]);
      }
      for (std::size_t row = 0; row < u; ++row) {
        if (row == col || mat[row][col] == 0) continue;
        std::uint8_t factor =
            checksum::gf256::div(mat[row][col], mat[col][col]);
        for (std::size_t c2 = col; c2 < u; ++c2)
          mat[row][c2] = static_cast<std::uint8_t>(
              mat[row][c2] ^ checksum::gf256::mul(factor, mat[col][c2]));
        checksum::gf256_muladd(rhs[row], rhs[col], factor);
      }
    }
    std::size_t mine = static_cast<std::size_t>(
        std::find(unknowns.begin(), unknowns.end(), my_rank_) -
        unknowns.begin());
    ACR_REQUIRE(mine < u, "own rank missing from the stripe's unknowns");
    std::uint8_t scale = checksum::gf256::inv(mat[mine][mine]);
    if (scale != 1) {
      std::vector<std::byte> scaled(plen, std::byte{0});
      checksum::gf256_muladd(scaled, rhs[mine], scale);
      rhs[mine] = std::move(scaled);
    }
    auto [mb, me] = chunk_range(my_size, t);
    std::size_t want = me - mb;
    if (rhs[mine].size() < want) rhs[mine].resize(want, std::byte{0});
    rebuilt.insert(rebuilt.end(), rhs[mine].begin(),
                   rhs[mine].begin() + static_cast<std::ptrdiff_t>(want));
  }
  if (rebuilt.size() != my_size)
    return fail_rebuild(barrier, "reassembled image has the wrong size");
  // Verify-on-rebuild: refuse to promote a reconstruction whose CRC32C
  // does not match what the survivors recorded for this member.
  std::uint32_t want_digest = digests[static_cast<std::size_t>(my_rank_)];
  if (want_digest != 0 && checksum::crc32c(rebuilt) != want_digest) {
    ++stats_.rebuilds_rejected;
    return fail_rebuild(barrier, "rebuilt image fails its CRC");
  }
  Image img;
  img.valid = true;
  img.epoch = first.msg.epoch;
  img.iteration = first.msg.iteration;
  img.image = pup::Checkpoint(std::move(rebuilt));
  img.image.epoch = img.epoch;
  rebuilds_.erase(barrier);
  ++stats_.rebuilds_completed;
  hooks_.restore_rebuilt(std::move(img), barrier);
}

void RsScheme::reset() {
  building_.clear();
  complete_.reset();
  rebuilds_.clear();
}

}  // namespace acr::ckpt
