// Fault injectors (§6.1).
//
// * SDC: "flips a randomly selected bit in the user data that will be
//   checkpointed". We realize exactly that — serialize the victim object
//   with PUP, flip one random bit inside the payload of a floating point
//   record (record headers and integer records excluded, so the flip lands
//   in user data rather than framing or control state), and deserialize
//   back into the live object.
// * Hard errors are modelled by the runtime as no-response nodes (see
//   acr::rt); this header only provides the shared arrival machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/rng.h"
#include "pup/pup.h"

namespace acr::failure {

struct BitFlip {
  std::size_t byte_offset = 0;
  unsigned bit = 0;
};

/// Flip one uniformly random bit among the eligible payload bytes of a PUP
/// stream: those of floating point records (F32/F64), the bulk "user data"
/// of HPC applications and what the paper's injector effectively corrupts.
/// Such flips silently distort results without deranging control flow;
/// integer counters, indices and framework records are never touched.
/// Returns the flip location. Requires at least one eligible byte.
BitFlip flip_random_payload_bit(std::span<std::byte> stream, Pcg32& rng);

/// Byte count eligible for flips (exposed for tests and for exhaustive flip
/// sweeps in property tests).
std::size_t payload_bytes(std::span<const std::byte> stream);

/// Convenience: run the serialize–flip–deserialize cycle on a pup-able
/// object, corrupting its live state exactly as checkpointing would see it.
/// Requires at least one eligible byte (throws RequireError otherwise);
/// use try_inject_sdc when the victim's eligibility is unknown.
template <typename T>
BitFlip inject_sdc(T& victim, Pcg32& rng) {
  pup::Checkpoint image = pup::make_checkpoint(victim);
  BitFlip flip = flip_random_payload_bit(image.mutable_bytes(), rng);
  pup::restore_checkpoint(victim, image);
  return flip;
}

/// Like inject_sdc, but returns nullopt when the victim has no eligible
/// payload (e.g. a freshly created, still-empty task on a spare node — a
/// flip into unallocated state is physically a no-op anyway).
template <typename T>
std::optional<BitFlip> try_inject_sdc(T& victim, Pcg32& rng) {
  pup::Checkpoint image = pup::make_checkpoint(victim);
  if (payload_bytes(image.bytes()) == 0) return std::nullopt;
  BitFlip flip = flip_random_payload_bit(image.mutable_bytes(), rng);
  pup::restore_checkpoint(victim, image);
  return flip;
}

}  // namespace acr::failure
