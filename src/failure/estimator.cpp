#include "failure/estimator.h"

#include <algorithm>
#include <numeric>

#include "common/require.h"

namespace acr::failure {

void MtbfEstimator::record_failure(double t) {
  if (last_failure_) {
    ACR_REQUIRE(t >= *last_failure_, "failure times must be non-decreasing");
    gaps_.push_back(t - *last_failure_);
    if (gaps_.size() > window_) gaps_.pop_front();
  }
  last_failure_ = t;
}

std::optional<double> MtbfEstimator::mtbf(double now) const {
  if (!last_failure_) return std::nullopt;
  double open_gap = std::max(0.0, now - *last_failure_);
  // Single failure so far: the open gap is the only evidence.
  if (gaps_.empty()) return std::max(open_gap, 1e-9);
  double closed = std::accumulate(gaps_.begin(), gaps_.end(), 0.0);
  double n = static_cast<double>(gaps_.size());
  return (closed + open_gap) / n;
}

}  // namespace acr::failure
