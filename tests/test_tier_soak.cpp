// Durable-tier soak: correlated bursts over a shallow spare pool WITH the
// L2 tier enabled.
//
// Property (ISSUE acceptance): whenever a burst defeats L1 — buddy-pair
// loss, pool exhaustion — the job restores from the newest fully-flushed
// L2 epoch instead of restarting from scratch. Every seeded run completes
// with the bitwise fault-free answer, and a scratch restart is permitted
// ONLY if no epoch had finished flushing at that moment (checked against
// the trace: no "restart from scratch" rollback after the first
// epoch-durable record). Control seeds with the tier disabled pin the
// no-L2 pipeline to the same digest as the single-tier build.
//
// Runs under the `tier-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include "soak_util.h"

namespace acr {
namespace {

AcrConfig soak_acr_config(bool tier) {
  AcrConfig ac = soak::base_acr_config();
  ac.redundancy = ckpt::Scheme::Partner;
  ac.degrade = DegradeMode::Shrink;
  if (tier) ac.tier.bandwidth = 1e9;
  return ac;
}

/// Fault-free, tier-free run fixing the expected answer.
const soak::Reference& reference() {
  static soak::Reference cached = soak::make_reference(
      soak::job(soak_acr_config(/*tier=*/false), 0),
      "tier soak reference run must complete");
  return cached;
}

struct SoakOutcome {
  JobResult out;
  bool scratch_after_durable = false;
  bool hardware_annihilated = false;
};

SoakOutcome soak_run(std::uint64_t seed, bool tier) {
  // Bursts drain the 2-spare pool.
  Scenario s = soak::job(soak_acr_config(tier), /*spares=*/2, seed);
  s.bursts = soak::default_burst_config(reference().finish_time);
  SoakOutcome o;
  o.out = run(s);
  AcrRuntime& runtime = *o.out.runtime;
  // A scratch restart is legitimate only before the first epoch finished
  // flushing; afterwards the ladder must always serve an L2 fetch.
  o.scratch_after_durable = soak::scratch_after_first_durable(runtime);
  // A burst can kill every host of a replica before any repair returns;
  // no checkpoint level can continue without hardware, so that abort is
  // acceptable — but only if the single-tier pipeline aborts there too.
  o.hardware_annihilated = soak::hardware_annihilated(runtime);
  return o;
}

class TierSoak : public ::testing::TestWithParam<int> {};

TEST_P(TierSoak, BurstsRestoreFromL2Bitwise) {
  std::uint64_t seed = 650000 + static_cast<std::uint64_t>(GetParam()) * 7717;
  SoakOutcome o = soak_run(seed, /*tier=*/true);
  if (!o.out.summary.complete) {
    // The only tolerated failure: the burst wiped every host of a replica
    // (nothing any checkpoint level can do), and the single-tier pipeline
    // aborts on this seed as well — the tier never makes a run worse.
    EXPECT_TRUE(o.hardware_annihilated)
        << "aborted or wedged at t=" << o.out.summary.finish_time << " (seed "
        << seed << ", kills=" << o.out.summary.burst_node_kills
        << ", waves=" << o.out.summary.l2_fetch_waves
        << ", scratch=" << o.out.summary.scratch_restarts << ")";
    SoakOutcome control = soak_run(seed, /*tier=*/false);
    EXPECT_FALSE(control.out.summary.complete)
        << "seed " << seed
        << ": tier run aborted where the single-tier run completes";
  } else {
    EXPECT_FALSE(o.out.summary.failed);
    EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
  }
  EXPECT_FALSE(o.scratch_after_durable)
      << "seed " << seed << ": scratch restart while a flushed epoch existed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierSoak, ::testing::Range(0, 100));

/// No-L2 control seeds: the same bursts with the tier disabled exercise
/// the unchanged single-tier pipeline and still reach the reference
/// answer (completion is guaranteed by the burst-soak property).
class TierSoakControl : public ::testing::TestWithParam<int> {};

TEST_P(TierSoakControl, NoTierControlMatchesReferenceBitwise) {
  std::uint64_t seed = 650000 + static_cast<std::uint64_t>(GetParam()) * 7717;
  SoakOutcome o = soak_run(seed, /*tier=*/false);
  ASSERT_TRUE(o.out.summary.complete);
  EXPECT_EQ(o.out.summary.l2_flushes, 0u);
  EXPECT_EQ(o.out.summary.l2_fetch_waves, 0u);
  EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierSoakControl, ::testing::Range(0, 10));

}  // namespace
}  // namespace acr
