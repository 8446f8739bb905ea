// Online failure-rate estimation and Weibull fitting (§2.2 "Adapting to
// Failures").
//
// ACR fits the stream of observed failures during execution and re-derives
// the checkpoint interval from the *current* trend, so a decreasing-hazard
// workload checkpoints densely early and sparsely late (Fig. 12).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

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
  explicit MtbfEstimator(std::size_t window = 8, double prior_mtbf = 0.0)
      : window_(window), prior_mtbf_(prior_mtbf) {}

  /// Record a failure at absolute time `t` (must be non-decreasing).
  void record_failure(double t);

  /// Current MTBF estimate at time `now`. Falls back to the prior before
  /// the first failure; returns nullopt if no prior and no failures.
  std::optional<double> mtbf(double now) const;

  std::size_t failures_observed() const { return total_; }

 private:
  std::size_t window_;
  double prior_mtbf_;
  std::deque<double> gaps_;
  std::optional<double> last_failure_;
  std::size_t total_ = 0;
};

/// Maximum-likelihood Weibull fit of a sample of inter-failure times.
///
/// Solves the profile-likelihood equation for the shape k by Newton
/// iteration, then recovers the scale in closed form. Used both as a
/// diagnostic (is the hazard decreasing? k < 1) and to extrapolate the
/// near-future failure rate.
struct WeibullFit {
  double shape = 1.0;
  double scale = 1.0;
  bool converged = false;
  double mean() const;
};

WeibullFit fit_weibull_mle(const std::vector<double>& samples,
                           int max_iterations = 100, double tolerance = 1e-10);

}  // namespace acr::failure
