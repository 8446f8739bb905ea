// Online failure-rate estimation (§2.2 "Adapting to Failures").
//
// ACR fits the stream of observed failures during execution and re-derives
// the checkpoint interval from the *current* trend, so a decreasing-hazard
// workload checkpoints densely early and sparsely late (Fig. 12).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

namespace acr::failure {

/// Sliding-window MTBF estimator over observed failure times.
///
/// Keeps the last `window` inter-failure gaps. Because a long quiet period
/// is itself evidence that the rate has dropped, the estimate also folds in
/// the censored (still open) gap since the last failure: with n closed gaps
/// summing to S and an open gap a, the maximum-likelihood exponential rate
/// given the censored observation is n / (S + a).
class MtbfEstimator {
 public:
  explicit MtbfEstimator(std::size_t window = 8) : window_(window) {}

  /// Record a failure at absolute time `t` (must be non-decreasing).
  void record_failure(double t);

  /// Current MTBF estimate at time `now`; nullopt before the first failure.
  std::optional<double> mtbf(double now) const;

 private:
  std::size_t window_;
  std::deque<double> gaps_;
  std::optional<double> last_failure_;
};

}  // namespace acr::failure
