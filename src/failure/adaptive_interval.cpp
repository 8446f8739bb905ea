#include "failure/adaptive_interval.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace acr::failure {

double young_interval(double checkpoint_cost, double mtbf) {
  ACR_REQUIRE(checkpoint_cost > 0.0 && mtbf > 0.0,
              "young interval needs positive cost and MTBF");
  return std::sqrt(2.0 * checkpoint_cost * mtbf);
}

double daly_interval(double checkpoint_cost, double mtbf) {
  ACR_REQUIRE(checkpoint_cost > 0.0 && mtbf > 0.0,
              "daly interval needs positive cost and MTBF");
  const double d = checkpoint_cost, m = mtbf;
  if (d >= 2.0 * m) return m;  // Daly's boundary case
  double root = std::sqrt(2.0 * d * m);
  // tau_opt = sqrt(2 d M) * [1 + (1/3)sqrt(d/(2M)) + (1/9)(d/(2M))] - d
  double r = std::sqrt(d / (2.0 * m));
  return root * (1.0 + r / 3.0 + (d / (2.0 * m)) / 9.0) - d;
}

AdaptiveIntervalController::AdaptiveIntervalController(
    const AdaptiveIntervalConfig& config)
    : config_(config), estimator_(config.window) {
  ACR_REQUIRE(config.min_interval > 0.0 &&
                  config.max_interval >= config.min_interval,
              "interval clamp range invalid");
  ACR_REQUIRE(config.checkpoint_cost > 0.0, "checkpoint cost must be > 0");
}

void AdaptiveIntervalController::on_failure(double t) {
  estimator_.record_failure(t);
}

void AdaptiveIntervalController::set_flush_overhead(double seconds) {
  ACR_REQUIRE(seconds >= 0.0, "flush overhead must be >= 0");
  flush_overhead_ = seconds;
}

double AdaptiveIntervalController::next_interval(double now) const {
  std::optional<double> m = estimator_.mtbf(now);
  if (!m) return config_.max_interval;
  double delta = config_.checkpoint_cost + flush_overhead_;
  return std::clamp(daly_interval(delta, *m), config_.min_interval,
                    config_.max_interval);
}

}  // namespace acr::failure
