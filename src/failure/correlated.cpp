#include "failure/correlated.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace acr::failure {

namespace {

/// Lognormal sigma of the node repair-time distribution.
constexpr double kRepairSigma = 0.5;

/// Torus dims for N nodes with X = domain size: pack the remaining
/// domains into a near-square Y*Z face so hop distances stay meaningful.
topo::Torus3D derive_torus(int num_nodes, int domain_size) {
  int dx = std::clamp(domain_size, 1, std::max(1, num_nodes));
  int lines = (num_nodes + dx - 1) / dx;
  int dy = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                           static_cast<double>(lines)))));
  int dz = (lines + dy - 1) / dy;
  return topo::Torus3D(dx, dy, std::max(1, dz));
}

}  // namespace

FailureDomains::FailureDomains(int num_nodes, int domain_size)
    : num_nodes_(num_nodes),
      domain_size_(std::clamp(domain_size, 1, std::max(1, num_nodes))),
      torus_(derive_torus(num_nodes, domain_size)) {
  ACR_REQUIRE(num_nodes > 0, "failure domains need at least one node");
}

int FailureDomains::num_domains() const {
  return (num_nodes_ + domain_size_ - 1) / domain_size_;
}

int FailureDomains::domain_of(int node) const {
  ACR_REQUIRE(node >= 0 && node < num_nodes_, "node outside domain map");
  // TXYZ rank order: x fastest, so rank / dim_x identifies the X-line.
  return node / domain_size_;
}

std::vector<int> FailureDomains::members(int domain) const {
  ACR_REQUIRE(domain >= 0 && domain < num_domains(), "no such domain");
  std::vector<int> out;
  int first = domain * domain_size_;
  int last = std::min(first + domain_size_, num_nodes_);
  out.reserve(static_cast<std::size_t>(last - first));
  for (int n = first; n < last; ++n) out.push_back(n);
  return out;
}

CorrelatedInjector::CorrelatedInjector(const BurstConfig& config,
                                       int num_nodes, std::uint64_t seed)
    : config_(config),
      domains_(num_nodes, config.domain_size),
      rng_(seed ^ 0xB125700DC0DEULL, 0xB1157) {
  ACR_REQUIRE(config_.enabled(), "injector requires seed_mtbf > 0");
  ACR_REQUIRE(config_.follow_prob >= 0.0 && config_.follow_prob <= 1.0,
              "follow probability must be in [0, 1]");
  ACR_REQUIRE(config_.window >= 0.0, "burst window must be non-negative");
  std::shared_ptr<const Distribution> gaps;
  if (config_.weibull_shape > 0.0)
    gaps = std::make_shared<Weibull>(
        Weibull::with_mean(config_.weibull_shape, config_.seed_mtbf));
  else
    gaps = std::make_shared<Exponential>(config_.seed_mtbf);
  seeds_ = std::make_unique<RenewalProcess>(std::move(gaps));
  if (config_.repair_mean > 0.0) {
    // Lognormal with the requested mean: mean = exp(mu + sigma^2 / 2).
    double mu =
        std::log(config_.repair_mean) - 0.5 * kRepairSigma * kRepairSigma;
    repair_ = std::make_unique<LogNormal>(mu, kRepairSigma);
  }
}

double CorrelatedInjector::next_seed_after(double now) {
  return seeds_->next_after(now, rng_);
}

int CorrelatedInjector::pick_victim(const std::vector<int>& alive_nodes) {
  ACR_REQUIRE(!alive_nodes.empty(), "no live hardware to strike");
  return alive_nodes[rng_.bounded(
      static_cast<std::uint32_t>(alive_nodes.size()))];
}

std::vector<FollowerEvent> CorrelatedInjector::plan_followers(
    int victim, const std::vector<int>& alive_nodes) {
  std::vector<FollowerEvent> out;
  for (int peer : domains_.members(domains_.domain_of(victim))) {
    if (peer == victim) continue;
    if (!std::binary_search(alive_nodes.begin(), alive_nodes.end(), peer))
      continue;
    if (rng_.uniform() >= config_.follow_prob) continue;
    out.push_back(FollowerEvent{peer, config_.window * rng_.uniform()});
  }
  return out;
}

double CorrelatedInjector::sample_repair_time() {
  ACR_REQUIRE(repair_ != nullptr, "repair process disabled (repair_mean 0)");
  return repair_->sample(rng_);
}

}  // namespace acr::failure
