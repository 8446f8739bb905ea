// Staged-codec soak: incremental (delta) + compressed checkpoints under
// correlated bursts, with the L2 tier enabled.
//
// Property (ISSUE acceptance): with --ckpt-delta=on --ckpt-compress=lz the
// protocol's observable outcome is bitwise identical to the codec-off
// pipeline — every seeded run that completes reaches the fault-free
// reference digest, exactly as the codec-off control seeds do. The codec
// only changes what travels (dirty chunks, compressed payloads, vault v2
// blobs); recovery always reconstructs exact full images, and every
// consumer falls back to full transfers whenever its delta base is gone
// (post-restore, post-rebind, broken tier chain).
//
// The app is sized so each node's checkpoint image spans multiple 256 KiB
// digest chunks — otherwise delta degenerates to full frames and the soak
// would not exercise chunk maps, overlays, or parity delta algebra.
//
// Runs under the `delta-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include "checksum/kernels.h"
#include "failure/distributions.h"
#include "soak_util.h"

namespace acr {
namespace {

AcrConfig soak_acr_config(bool codec) {
  AcrConfig ac = soak::base_acr_config();
  ac.redundancy = ckpt::Scheme::Partner;
  ac.degrade = DegradeMode::Shrink;
  ac.tier.bandwidth = 1e9;
  if (codec) {
    ac.codec.delta = ckpt::DeltaMode::On;
    ac.codec.compress = ckpt::CompressMode::Lz;
  }
  return ac;
}

/// The multi-chunk soak job with `spares` spares.
Scenario soak_job(bool codec, int spares,
                  std::uint64_t seed = rt::ClusterConfig{}.seed) {
  return soak::job(soak_acr_config(codec), spares, seed,
                   soak::multi_chunk_app());
}

/// Fault-free, codec-off run fixing the expected answer (and checking the
/// app is big enough to make delta meaningful).
const soak::Reference& reference() {
  static soak::Reference cached = soak::make_reference(
      soak_job(/*codec=*/false, 0),
      "delta soak reference run must complete");
  return cached;
}

struct SoakOutcome {
  JobResult out;
  bool hardware_annihilated = false;
};

SoakOutcome soak_run(std::uint64_t seed, bool codec) {
  Scenario s = soak_job(codec, 2, seed);
  s.bursts = soak::default_burst_config(reference().finish_time);
  SoakOutcome o;
  o.out = run(s);
  o.hardware_annihilated = soak::hardware_annihilated(*o.out.runtime);
  return o;
}

TEST(DeltaSoak, ImagesSpanMultipleChunks) {
  ASSERT_GE(reference().image_bytes, 2 * checksum::kDigestChunk)
      << "soak app too small: delta would degenerate to full frames";
}

class DeltaSoak : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSoak, DeltaCompressRunsReachFaultFreeAnswerBitwise) {
  std::uint64_t seed = 910000 + static_cast<std::uint64_t>(GetParam()) * 7717;
  SoakOutcome o = soak_run(seed, /*codec=*/true);
  if (!o.out.summary.complete) {
    // Only tolerated when the burst wiped a whole replica's hardware AND
    // the codec-off pipeline aborts on this seed too: the codec must never
    // turn a survivable run into an abort.
    EXPECT_TRUE(o.hardware_annihilated)
        << "seed " << seed
        << " aborted (kills=" << o.out.summary.burst_node_kills
        << ", waves=" << o.out.summary.l2_fetch_waves << ")";
    SoakOutcome control = soak_run(seed, /*codec=*/false);
    EXPECT_FALSE(control.out.summary.complete)
        << "seed " << seed
        << ": codec run aborted where the codec-off run completes";
  } else {
    EXPECT_FALSE(o.out.summary.failed);
    EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSoak, ::testing::Range(0, 100));

/// Codec-off control seeds: the identical burst schedule through the
/// legacy full-image pipeline reaches the same reference digest, and ships
/// zero codec traffic.
class DeltaSoakControl : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSoakControl, CodecOffControlMatchesReferenceBitwise) {
  std::uint64_t seed = 910000 + static_cast<std::uint64_t>(GetParam()) * 7717;
  SoakOutcome o = soak_run(seed, /*codec=*/false);
  if (!o.out.summary.complete) {
    EXPECT_TRUE(o.hardware_annihilated) << "seed " << seed;
    return;
  }
  EXPECT_EQ(o.out.summary.codec_frames, 0u);
  EXPECT_EQ(o.out.summary.l2_delta_blobs, 0u);
  EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSoakControl, ::testing::Range(0, 10));

/// Deterministic base-loss drill: run delta+compress fault-free, then
/// restore a node from its buddy mid-run via an injected hard failure at a
/// fixed seed; the restored node's codec bases are invalidated, its next
/// buddy frame is a legacy full transfer, and the answer stays bitwise.
TEST(DeltaSoak, FullImageFallbackAfterBaseLoss) {
  Scenario s = soak_job(/*codec=*/true, 2, 424242);
  s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(reference().finish_time / 2.0));
  s.faults.sdc_fraction = 0.0;  // hard failures: the base-loss trigger
  JobResult o = run(s);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_GE(o.summary.recoveries, 1u) << "drill needs at least one restore";
  EXPECT_EQ(o.digest, reference().digest);
  // The recovery forced at least one legacy full transfer while the codec
  // was on: frames stop, then resume once a new base is re-established.
  EXPECT_GT(o.summary.codec_frames, 0u);
}

}  // namespace
}  // namespace acr
