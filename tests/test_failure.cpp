// Failure distributions, arrival processes, online estimation, adaptive
// interval control, and the fault injector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "failure/adaptive_interval.h"
#include "failure/distributions.h"
#include "failure/estimator.h"
#include "failure/injector.h"

namespace acr::failure {
namespace {

TEST(Distributions, ExponentialSampleMean) {
  Pcg32 rng(1, 1);
  Exponential d(50.0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Distributions, WeibullWithMeanHitsMean) {
  Pcg32 rng(2, 1);
  Weibull d = Weibull::with_mean(0.6, 30.0);
  EXPECT_NEAR(d.mean(), 30.0, 1e-9);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, 30.0, 2.0);
}

TEST(Distributions, WeibullShape1IsExponential) {
  // k = 1: CDF 1 - exp(-x/s); compare the empirical median with s*ln 2.
  Pcg32 rng(3, 1);
  Weibull d(1.0, 10.0);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(d.sample(rng));
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], 10.0 * std::log(2.0), 0.4);
}

TEST(Distributions, LogNormalMean) {
  Pcg32 rng(4, 1);
  LogNormal d(1.0, 0.5);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, d.mean(), d.mean() * 0.05);
}

TEST(Distributions, SamplesArePositive) {
  Pcg32 rng(5, 1);
  Weibull w(0.6, 1.0);
  Exponential e(1.0);
  LogNormal l(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(w.sample(rng), 0.0);
    EXPECT_GT(e.sample(rng), 0.0);
    EXPECT_GT(l.sample(rng), 0.0);
  }
}

TEST(ArrivalProcess, WeibullProcessRateDecreasesForSubExponentialShape) {
  // With shape 0.6, the hazard decreases: more events early than late.
  Pcg32 rng(6, 1);
  WeibullProcess proc(0.6, 100.0);
  int early = 0, late = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto trace = draw_failure_trace(proc, 1000.0, rng);
    for (double t : trace) (t < 500.0 ? early : late) += 1;
  }
  EXPECT_GT(early, late * 3 / 2);
}

TEST(ArrivalProcess, WeibullProcessExpectedCountMatchesCumulativeIntensity) {
  Pcg32 rng(7, 1);
  WeibullProcess proc(0.6, 100.0);
  double total = 0.0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial)
    total += static_cast<double>(draw_failure_trace(proc, 1800.0, rng).size());
  EXPECT_NEAR(total / trials, proc.cumulative_intensity(1800.0), 0.3);
}

TEST(ArrivalProcess, RenewalPoissonCount) {
  Pcg32 rng(8, 1);
  RenewalProcess proc(std::make_shared<Exponential>(10.0));
  double total = 0.0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial)
    total += static_cast<double>(draw_failure_trace(proc, 1000.0, rng).size());
  EXPECT_NEAR(total / trials, 100.0, 3.0);
}

// ---------------------------------------------------------------------------
// Estimation.
// ---------------------------------------------------------------------------

TEST(MtbfEstimator, NoDataNoPriorIsEmpty) {
  MtbfEstimator e(4);
  EXPECT_FALSE(e.mtbf(10.0).has_value());
}

TEST(MtbfEstimator, TracksWindowedGaps) {
  MtbfEstimator e(3);
  for (double t : {10.0, 20.0, 30.0, 40.0}) e.record_failure(t);
  // Three gaps of 10 and an open gap of 0.
  EXPECT_NEAR(*e.mtbf(40.0), 10.0, 1e-12);
  // A long quiet period pushes the estimate up (censored evidence).
  EXPECT_GT(*e.mtbf(100.0), 25.0);
}

TEST(MtbfEstimator, WindowForgetsOldGaps) {
  MtbfEstimator e(2);
  e.record_failure(0.0);
  e.record_failure(1000.0);  // gap 1000 — will be evicted
  e.record_failure(1001.0);
  e.record_failure(1002.0);
  EXPECT_NEAR(*e.mtbf(1002.0), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Adaptive interval.
// ---------------------------------------------------------------------------

TEST(Interval, YoungFormula) {
  EXPECT_NEAR(young_interval(10.0, 2000.0), std::sqrt(2.0 * 10.0 * 2000.0),
              1e-12);
}

TEST(Interval, DalyApproachesYoungForLargeMtbf) {
  double d = 10.0;
  double m = 1e9;
  EXPECT_NEAR(daly_interval(d, m) / young_interval(d, m), 1.0, 1e-3);
}

TEST(Interval, DalyDegradesToMtbfWhenOverwhelmed) {
  EXPECT_DOUBLE_EQ(daly_interval(100.0, 10.0), 10.0);
}

TEST(AdaptiveController, ShrinksWithFailuresGrowsWithQuiet) {
  AdaptiveIntervalConfig cfg;
  cfg.checkpoint_cost = 1.0;
  cfg.min_interval = 0.5;
  cfg.max_interval = 1000.0;
  AdaptiveIntervalController ctl(cfg);
  EXPECT_DOUBLE_EQ(ctl.next_interval(0.0), 1000.0);  // nothing observed yet
  // Rapid failures: interval collapses.
  for (double t : {1.0, 2.0, 3.0, 4.0, 5.0}) ctl.on_failure(t);
  double busy = ctl.next_interval(5.0);
  EXPECT_LT(busy, 3.0);
  // Long quiet stretch: interval stretches back out.
  double quiet = ctl.next_interval(500.0);
  EXPECT_GT(quiet, busy * 3.0);
}

TEST(AdaptiveController, ConvergesToDalyUnderStationaryPoisson) {
  AdaptiveIntervalConfig cfg;
  cfg.checkpoint_cost = 2.0;
  cfg.min_interval = 0.1;
  cfg.max_interval = 1e6;
  cfg.window = 64;
  AdaptiveIntervalController ctl(cfg);
  Pcg32 rng(11, 1);
  Exponential gaps(300.0);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += gaps.sample(rng);
    ctl.on_failure(t);
  }
  double expected = daly_interval(2.0, 300.0);
  EXPECT_NEAR(ctl.next_interval(t), expected, expected * 0.25);
}

// ---------------------------------------------------------------------------
// Injector.
// ---------------------------------------------------------------------------

struct Victim {
  std::vector<double> data;
  std::uint64_t counter = 0;
  void pup(pup::Puper& p) {
    p | data;
    p | counter;
  }
};

TEST(Injector, FlipChangesExactlyOneBitOfUserData) {
  Victim v;
  v.data = {1.0, 2.0, 3.0};
  v.counter = 77;
  pup::Checkpoint before = pup::make_checkpoint(v);
  Pcg32 rng(12, 1);
  for (int trial = 0; trial < 200; ++trial) {
    Victim w = v;
    BitFlip flip = inject_sdc(w, rng);
    pup::Checkpoint after = pup::make_checkpoint(w);
    ASSERT_EQ(before.size(), after.size());
    int bits_changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      auto diff = static_cast<unsigned>(before.bytes()[i] ^ after.bytes()[i]);
      bits_changed += std::popcount(diff);
    }
    EXPECT_EQ(bits_changed, 1) << "trial " << trial;
    // The stream ends with the doubles' 24 payload bytes, then the
    // counter's record (a 9-byte header and 8 bytes): the flip must land
    // in the doubles.
    std::size_t counter_record = 9 + sizeof(std::uint64_t);
    std::size_t doubles_end = before.size() - counter_record;
    EXPECT_GE(flip.byte_offset, doubles_end - 3 * sizeof(double))
        << "trial " << trial;
    EXPECT_LT(flip.byte_offset, doubles_end) << "trial " << trial;
    // And in the live object: one double changed, never the U64 counter.
    EXPECT_EQ(w.counter, v.counter) << "trial " << trial;
    ASSERT_EQ(w.data.size(), v.data.size());
    int doubles_changed = 0;
    for (std::size_t i = 0; i < v.data.size(); ++i)
      doubles_changed +=
          std::memcmp(&w.data[i], &v.data[i], sizeof(double)) != 0;
    EXPECT_EQ(doubles_changed, 1) << "trial " << trial;
  }
}

TEST(Injector, PayloadBytesExcludesHeaders) {
  Victim v;
  v.data = {1.0, 2.0, 3.0};
  pup::Checkpoint c = pup::make_checkpoint(v);
  // Flippable payload: the 24 B of doubles. The vector's length record
  // (Tag::Size) is framework structure and the U64 counter is control
  // state; both are excluded.
  EXPECT_EQ(payload_bytes(c.bytes()), 24u);
  EXPECT_GT(c.size(), 24u + 8u);
}

TEST(Injector, IntegerOnlyStateHasNothingToFlip) {
  Victim v;
  v.counter = 77;
  Pcg32 rng(14, 1);
  EXPECT_EQ(payload_bytes(pup::make_checkpoint(v).bytes()), 0u);
  EXPECT_FALSE(try_inject_sdc(v, rng).has_value());
  EXPECT_EQ(v.counter, 77u);
}

TEST(Injector, RejectsEmptyStream) {
  Pcg32 rng(13, 1);
  std::vector<std::byte> empty;
  EXPECT_THROW(flip_random_payload_bit(empty, rng), RequireError);
}

}  // namespace
}  // namespace acr::failure
