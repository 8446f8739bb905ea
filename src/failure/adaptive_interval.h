// Adaptive checkpoint-interval controller (§2.2).
//
// Combines the online MTBF estimate with Daly's optimum period:
// after every failure (and periodically in between) the controller
// re-derives the interval from the current failure-rate trend, clamped to
// a sane range. This is the policy behind Fig. 12: checkpoint every ~6 s
// while failures are frequent, stretching to ~17 s as the Weibull hazard
// decays.
#pragma once

#include "failure/estimator.h"

namespace acr::failure {

/// Young's first-order optimum checkpoint period: sqrt(2 * delta * mtbf).
double young_interval(double checkpoint_cost, double mtbf);

/// Daly's higher-order estimate. Falls back to the MTBF-limited form when
/// delta >= 2*M (checkpointing cannot keep up with the failure rate).
double daly_interval(double checkpoint_cost, double mtbf);

struct AdaptiveIntervalConfig {
  double checkpoint_cost = 1.0;   ///< delta, seconds
  double min_interval = 1.0;      ///< clamp floor, seconds
  double max_interval = 3600.0;   ///< clamp ceiling, seconds
  std::size_t window = 8;         ///< estimator sliding window
};

class AdaptiveIntervalController {
 public:
  explicit AdaptiveIntervalController(const AdaptiveIntervalConfig& config);

  /// Feed an observed failure at absolute time `t`.
  void on_failure(double t);

  /// Amortized durable-tier flush cost per checkpoint period (seconds).
  /// Added to the configured checkpoint cost when deriving the Daly
  /// delta, so a flush-heavy tier stretches the optimal interval. 0 (the
  /// default) reproduces the single-tier controller exactly.
  void set_flush_overhead(double seconds);

  /// Interval to use for the next checkpoint, given the current time.
  /// Before any failure returns max_interval.
  double next_interval(double now) const;

  const AdaptiveIntervalConfig& config() const { return config_; }

 private:
  AdaptiveIntervalConfig config_;
  MtbfEstimator estimator_;
  double flush_overhead_ = 0.0;
};

}  // namespace acr::failure
