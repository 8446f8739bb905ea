// MiniMD mini-app: neighbor-list molecular dynamics in the style of the
// Mantevo miniMD (mimicking LAMMPS) (§6.1). Fixed atom ownership (atoms
// reflect at slab walls instead of migrating), an explicitly stored
// neighbor list rebuilt every few steps, and force evaluation through that
// list — the indirection produces the "scattered in memory" checkpoint
// data the paper calls out for the MD codes.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/iterative.h"
#include "rt/cluster.h"

namespace acr::apps {

struct MiniMdConfig {
  int atoms_per_task = 64;  ///< paper: 1000 per core
  int num_tasks = 4;
  int slots_per_node = 1;  ///< MPI style
  std::uint64_t iterations = 10;
  int rebuild_every = 3;   ///< neighbor-list rebuild cadence
  double cutoff = 2.8;     ///< force cutoff
  double skin = 0.4;       ///< extra list radius
  double box = 9.0;        ///< cubic per-task box edge
  double dt = 2e-3;
  double seconds_per_pair = 2e-9;

  int nodes_needed() const {
    return (num_tasks + slots_per_node - 1) / slots_per_node;
  }
  rt::Cluster::TaskFactory factory() const;
};

class MiniMdTask final : public IterativeTask {
 public:
  MiniMdTask(const MiniMdConfig& config, int task_id);

  std::size_t neighbor_pairs() const { return list_a_.size(); }
  double kinetic_energy() const;

 protected:
  void init() override;
  void send_phase(std::uint64_t iter, int phase) override;
  int expected_in_phase(std::uint64_t iter, int phase) const override;
  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override;
  void pup_state(pup::Puper& p) override;

 private:
  rt::TaskAddr addr_of(int task) const {
    return rt::TaskAddr{task / cfg_.slots_per_node,
                        task % cfg_.slots_per_node};
  }
  bool rebuild_step(std::uint64_t iter) const {
    return ((iter - 1) % static_cast<std::uint64_t>(cfg_.rebuild_every)) == 0;
  }
  void rebuild_neighbor_list();

  MiniMdConfig cfg_;
  int task_id_;

  // Atom state (checkpointed). Ownership is fixed: walls reflect.
  std::vector<double> x_, y_, z_;
  std::vector<double> vx_, vy_, vz_;
  // Stored neighbor list (checkpointed — integer data interleaved with the
  // doubles exercises mixed-type PUP streams).
  std::vector<std::int32_t> list_a_, list_b_;
  std::uint64_t last_rebuild_iter_ = 0;
};

}  // namespace acr::apps
