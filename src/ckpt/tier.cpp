#include "ckpt/tier.h"

#include <algorithm>
#include <set>

#include "common/require.h"

namespace acr::ckpt {

DurableTier::DurableTier(const TierConfig& config, int replicas,
                         int roles_per_replica)
    : config_(config),
      replicas_(replicas),
      roles_(roles_per_replica),
      busy_until_(static_cast<std::size_t>(replicas * roles_per_replica),
                  0.0) {}

double DurableTier::charge(int replica, int index, double now, double bytes) {
  ACR_REQUIRE(replica >= 0 && replica < replicas_, "tier I/O: bad replica");
  ACR_REQUIRE(index >= 0 && index < roles_, "tier I/O: bad node index");
  double& busy = busy_until_[static_cast<std::size_t>(replica * roles_ + index)];
  double start = std::max(now, busy);
  double service = config_.latency + bytes / config_.bandwidth;
  busy = start + service;
  return busy - now;
}

double DurableTier::write(int replica, int index, double now, double bytes) {
  bytes_written_ += bytes;
  return charge(replica, index, now, bytes);
}

double DurableTier::read(int replica, int index, double now, double bytes) {
  return charge(replica, index, now, bytes);
}

void DurableTier::publish(int replica, int index, const Image& img) {
  ACR_REQUIRE(replica >= 0 && replica < replicas_, "tier publish: bad replica");
  ACR_REQUIRE(index >= 0 && index < roles_, "tier publish: bad node index");
  std::vector<std::byte> blob = encode_stored_image(img);
  bytes_published_ += blob.size();
  ++publishes_;
  blobs_[Key{replica, index, img.epoch}] = Blob{std::move(blob), 0};
}

void DurableTier::publish_blob(int replica, int index, std::uint64_t epoch,
                               std::vector<std::byte> blob,
                               std::uint64_t base_epoch) {
  ACR_REQUIRE(replica >= 0 && replica < replicas_, "tier publish: bad replica");
  ACR_REQUIRE(index >= 0 && index < roles_, "tier publish: bad node index");
  ACR_REQUIRE(base_epoch < epoch || base_epoch == 0,
              "tier publish: delta base must be an older epoch");
  bytes_published_ += blob.size();
  ++publishes_;
  if (base_epoch != 0) ++delta_publishes_;
  blobs_[Key{replica, index, epoch}] = Blob{std::move(blob), base_epoch};
}

bool DurableTier::has(int replica, int index, std::uint64_t epoch) const {
  return blobs_.count(Key{replica, index, epoch}) != 0;
}

Image DurableTier::decode_chain(int replica, int index, std::uint64_t epoch,
                               int depth) {
  // A cycle cannot be published (base_epoch < epoch is enforced), but a
  // corrupt blob could claim one; the depth guard turns that into a failed
  // fetch instead of a hang.
  if (depth > 64) return {};
  auto it = blobs_.find(Key{replica, index, epoch});
  if (it == blobs_.end()) return {};
  try {
    DecodedBlob decoded = decode_any_image(it->second.bytes);
    if (!decoded.is_delta) return std::move(decoded.full);
    buf::Buffer image;
    if (decoded.delta.base_epoch == 0) {
      // Self-contained v2 blob (compressed full image).
      image = CodecPipeline::decode(decoded.delta.frame, {});
    } else {
      Image base =
          decode_chain(replica, index, decoded.delta.base_epoch, depth + 1);
      if (!base.valid) return {};
      image = CodecPipeline::decode(decoded.delta.frame, base.image.bytes());
    }
    return Image{true, decoded.delta.epoch, decoded.delta.iteration,
                 pup::Checkpoint(std::move(image))};
  } catch (const pup::StreamError&) {
    return {};
  }
}

Image DurableTier::fetch(int replica, int index, std::uint64_t epoch) {
  Image out = decode_chain(replica, index, epoch, 0);
  if (out.valid) ++fetches_;
  return out;
}

std::uint64_t DurableTier::blob_bytes(int replica, int index,
                                      std::uint64_t epoch) const {
  auto it = blobs_.find(Key{replica, index, epoch});
  return it == blobs_.end() ? 0 : it->second.bytes.size();
}

std::uint64_t DurableTier::chain_bytes(int replica, int index,
                                       std::uint64_t epoch) const {
  std::uint64_t total = 0;
  std::uint64_t e = epoch;
  for (int depth = 0; depth <= 64; ++depth) {
    auto it = blobs_.find(Key{replica, index, e});
    if (it == blobs_.end()) return 0;  // broken chain: a fetch cannot succeed
    total += it->second.bytes.size();
    if (it->second.base_epoch == 0) return total;
    e = it->second.base_epoch;
  }
  return 0;  // chain deeper than any agent grows: treat as unfetchable
}

std::uint64_t DurableTier::chain_length(int replica, int index,
                                        std::uint64_t epoch) const {
  std::uint64_t count = 0;
  std::uint64_t e = epoch;
  for (int depth = 0; depth <= 64; ++depth) {
    auto it = blobs_.find(Key{replica, index, e});
    if (it == blobs_.end()) break;
    ++count;
    if (it->second.base_epoch == 0) break;
    e = it->second.base_epoch;
  }
  return count;
}

std::uint64_t DurableTier::newest_complete_epoch() const {
  // Keys are ordered by epoch first, so walk runs of equal epoch and count.
  std::uint64_t best = 0;
  auto it = blobs_.begin();
  const std::size_t need =
      static_cast<std::size_t>(replicas_) * static_cast<std::size_t>(roles_);
  while (it != blobs_.end()) {
    std::uint64_t epoch = it->first.epoch;
    std::size_t count = 0;
    while (it != blobs_.end() && it->first.epoch == epoch) {
      ++count;
      ++it;
    }
    if (count >= need && epoch > best) best = epoch;
  }
  return best;
}

std::vector<std::uint64_t> DurableTier::epochs_present() const {
  std::vector<std::uint64_t> out;
  for (const auto& [key, blob] : blobs_)
    if (out.empty() || out.back() != key.epoch) out.push_back(key.epoch);
  return out;
}

void DurableTier::prune(std::uint64_t keep_from_epoch) {
  // Mark the base-chain ancestors of every kept delta blob: pruning them
  // would orphan the deltas they anchor. Chains only point backwards, so a
  // per-kept-key backward walk finds every live ancestor.
  std::set<Key> keep;
  for (const auto& [key, blob] : blobs_) {
    if (key.epoch < keep_from_epoch) continue;
    std::uint64_t e = blob.base_epoch;
    for (int depth = 0; e != 0 && depth <= 64; ++depth) {
      Key ancestor{key.replica, key.index, e};
      auto it = blobs_.find(ancestor);
      if (it == blobs_.end() || !keep.insert(ancestor).second) break;
      e = it->second.base_epoch;
    }
  }
  auto it = blobs_.begin();
  while (it != blobs_.end() && it->first.epoch < keep_from_epoch) {
    if (keep.count(it->first))
      ++it;
    else
      it = blobs_.erase(it);
  }
}

}  // namespace acr::ckpt
