// Correlated failure bursts and node repair.
//
// Real HPC failure logs (the LANL data behind the paper's §5 Weibull fits)
// show spatially and temporally correlated failures: a power or cooling
// event takes out a blade or rack, not one independent node. This module
// models that: physical nodes are grouped into failure domains derived from
// the torus topology (one domain = one X-line, the blade of a BG/P-style
// machine), a seeded arrival process produces *seed* failures, and each
// seed raises the hazard of its domain peers within a short window —
// producing rack-style multi-node bursts that can kill buddy pairs or
// drain the spare pool. A repair process returns dead hardware to service
// after a configurable repair-time distribution.
//
// The class is pure decision logic over seeded RNG — it owns no cluster
// and schedules no events. The runtime glue (acr::AcrRuntime) asks it
// when/who/how-long and performs the kills/repairs, which keeps every
// choice unit-testable and the whole schedule deterministic per seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "failure/distributions.h"
#include "topology/torus.h"

namespace acr::failure {

struct BurstConfig {
  /// Mean time between burst seed failures (renewal process). 0 disables
  /// correlated injection entirely.
  double seed_mtbf = 0.0;
  /// Weibull shape of the seed inter-arrival distribution; <= 0 uses
  /// exponential inter-arrivals (a Poisson seed process). Shape < 1 gives
  /// the decreasing hazard observed in HPC logs (§5).
  double weibull_shape = 0.0;
  /// Probability that each live domain peer of the seed also fails.
  double follow_prob = 0.5;
  /// Follower deaths land uniformly within [seed_time, seed_time + window).
  /// A zero window makes followers strictly simultaneous with the seed.
  double window = 0.002;
  /// Hardware nodes per failure domain (the X extent of the derived torus).
  int domain_size = 4;
  /// Mean node repair time; 0 means dead hardware stays dead. Repair
  /// times are lognormal with sigma 0.5.
  double repair_mean = 0.0;

  bool enabled() const { return seed_mtbf > 0.0; }
};

/// Partition of hardware nodes 0..N-1 into failure domains via a derived
/// 3D torus: nodes are laid out in TXYZ rank order on a torus whose X
/// extent is the domain size, so a domain is one X-line — the set of nodes
/// sharing a (y, z) coordinate, the blade/mezzanine of the modelled
/// machine. The last domain may be short when N is not a multiple.
class FailureDomains {
 public:
  FailureDomains(int num_nodes, int domain_size);

  int num_nodes() const { return num_nodes_; }
  int domain_size() const { return domain_size_; }
  int num_domains() const;
  int domain_of(int node) const;
  /// Members of `domain`, ascending.
  std::vector<int> members(int domain) const;
  /// The derived torus (covers >= num_nodes ranks; trailing ranks unused).
  const topo::Torus3D& torus() const { return torus_; }

 private:
  int num_nodes_;
  int domain_size_;
  topo::Torus3D torus_;
};

/// A planned follower death relative to its burst's seed time.
struct FollowerEvent {
  int node = -1;
  double delay = 0.0;  ///< seconds after the seed failure
};

class CorrelatedInjector {
 public:
  CorrelatedInjector(const BurstConfig& config, int num_nodes,
                     std::uint64_t seed);

  const BurstConfig& config() const { return config_; }
  const FailureDomains& domains() const { return domains_; }

  /// Absolute time of the next burst seed strictly after `now`.
  double next_seed_after(double now);

  /// Uniform choice of the seed victim among currently-alive hardware.
  int pick_victim(const std::vector<int>& alive_nodes);

  /// Decide which live domain peers of `victim` follow it down, and when.
  /// `alive_nodes` must be ascending (the cluster's live-hardware scan).
  std::vector<FollowerEvent> plan_followers(
      int victim, const std::vector<int>& alive_nodes);

  /// Duration of one node repair (valid only when repair_mean > 0).
  double sample_repair_time();

 private:
  BurstConfig config_;
  FailureDomains domains_;
  Pcg32 rng_;
  std::unique_ptr<ArrivalProcess> seeds_;
  std::unique_ptr<Distribution> repair_;
};

}  // namespace acr::failure
