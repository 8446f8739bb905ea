#include "ckpt/store.h"

#include <utility>

namespace acr::ckpt {

void Store::stage_candidate(std::uint64_t epoch, std::uint64_t iteration,
                            pup::Checkpoint image) {
  candidate_.valid = true;
  candidate_.epoch = epoch;
  candidate_.iteration = iteration;
  candidate_.image = std::move(image);
}

bool Store::share_candidate(const buf::Buffer& twin) {
  if (!candidate_.valid || !candidate_.image.buffer().content_equals(twin))
    return false;
  candidate_.image = pup::Checkpoint(twin);
  return true;
}

PromoteResult Store::promote(std::uint64_t epoch) {
  if (!candidate_.valid) return PromoteResult::NoCandidate;
  if (candidate_.epoch != epoch) return PromoteResult::EpochMismatch;
  verified_ = std::move(candidate_);
  candidate_ = Image{};
  return PromoteResult::Promoted;
}

void Store::adopt_verified(Image img) {
  verified_ = std::move(img);
  candidate_ = Image{};
}

const Image* Store::restorable(std::uint64_t epoch) const {
  if (verified_.valid && verified_.epoch == epoch) return &verified_;
  if (candidate_.valid && candidate_.epoch == epoch) return &candidate_;
  return nullptr;
}

void Store::reset() {
  verified_ = Image{};
  candidate_ = Image{};
}

}  // namespace acr::ckpt
