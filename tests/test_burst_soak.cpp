// Correlated-burst / shrink-to-survive soak.
//
// Property (ISSUE acceptance): under correlated failure bursts with node
// repair and --degrade=shrink, the job always makes forward progress —
// every seeded run completes (no aborts, no wedges) and its verified
// answer is bitwise identical to the fault-free answer (the app RNG is
// seeded by logical position, so doubling roles onto surviving hardware
// must not perturb a single bit). Zero-fault control seeds additionally
// pin the burst-free pipeline to the same digest.
//
// Runs under the `burst-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "soak_util.h"

namespace acr {
namespace {

AcrConfig soak_acr_config() {
  AcrConfig ac = soak::base_acr_config();
  ac.redundancy = ckpt::Scheme::Partner;
  ac.degrade = DegradeMode::Shrink;
  return ac;
}

/// Fault-free run fixing the expected answer and nominal duration.
const soak::Reference& reference() {
  static soak::Reference cached = soak::make_reference(
      soak::small_app(), soak_acr_config(),
      "burst soak reference run must complete");
  return cached;
}

soak::Outcome soak_run(std::uint64_t seed, bool inject) {
  soak::Sim sim(soak_acr_config(), /*spares=*/2, seed);  // bursts WILL drain
  if (inject)
    sim.runtime.set_burst_plan(
        soak::default_burst_config(reference().finish_time));
  return soak::run_and_digest(sim.runtime);
}

class BurstSoak : public ::testing::TestWithParam<int> {};

TEST_P(BurstSoak, ShrinkToSurviveMakesForwardProgressBitwise) {
  std::uint64_t seed = 430000 + static_cast<std::uint64_t>(GetParam()) * 7717;
  soak::Outcome o = soak_run(seed, /*inject=*/true);
  ASSERT_TRUE(o.summary.complete)
      << "aborted or wedged at t=" << o.summary.finish_time << " (seed "
      << seed << ", kills=" << o.summary.burst_node_kills
      << ", doubled=" << o.summary.roles_doubled
      << ", repairs=" << o.summary.spare_repairs << ")";
  EXPECT_FALSE(o.summary.failed);
  EXPECT_EQ(o.digest, reference().digest) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstSoak, ::testing::Range(0, 100));

/// Zero-fault control seeds: the burst-free pipeline (lifecycle code
/// compiled in, injection off) reproduces the reference answer bitwise.
class BurstSoakControl : public ::testing::TestWithParam<int> {};

TEST_P(BurstSoakControl, CleanSeedsMatchReferenceBitwise) {
  std::uint64_t seed = 990000 + static_cast<std::uint64_t>(GetParam()) * 131;
  soak::Outcome o = soak_run(seed, /*inject=*/false);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.summary.burst_node_kills, 0u);
  EXPECT_EQ(o.summary.roles_doubled, 0u);
  EXPECT_EQ(o.digest, reference().digest) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstSoakControl,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace acr
