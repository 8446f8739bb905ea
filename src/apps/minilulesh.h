// MiniLulesh: a reduced Lagrangian explicit shock-hydrodynamics step in the
// style of LLNL's LULESH (§6.1). Captures the traits the paper leans on:
//  * both element-centred (energy, pressure, relative volume) and
//    node-centred (coordinates, velocities) fields — several independently
//    shaped arrays, making serialization structurally richer than a single
//    block (the paper notes LULESH's higher local-checkpoint cost);
//  * a global minimum-timestep reduction every cycle (butterfly min-reduce);
//  * transcendental-heavy per-element updates (EOS + artificial viscosity).
// The mesh is a 1D slab decomposition of a structured hex mesh along Z.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/iterative.h"
#include "rt/cluster.h"

namespace acr::apps {

struct MiniLuleshConfig {
  /// Elements per task per dimension (paper: 32x32x64 per core).
  int ex = 6;
  int ey = 6;
  int ez = 6;
  int num_tasks = 4;  ///< power of two (dt min-reduce butterfly)
  int slots_per_node = 1;
  std::uint64_t iterations = 12;
  double seconds_per_element = 6e-8;  ///< hydro step is flop-heavy

  int nodes_needed() const {
    return (num_tasks + slots_per_node - 1) / slots_per_node;
  }
  std::size_t elements_per_task() const {
    return static_cast<std::size_t>(ex) * ey * ez;
  }
  rt::Cluster::TaskFactory factory() const;
};

class MiniLuleshTask final : public IterativeTask {
 public:
  MiniLuleshTask(const MiniLuleshConfig& config, int task_id);

  double total_energy() const;
  double dt() const { return dt_; }

 protected:
  void init() override;
  void send_phase(std::uint64_t iter, int phase) override;
  int expected_in_phase(std::uint64_t iter, int phase) const override;
  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override;
  int num_phases() const override { return 1 + stages_; }
  void pup_state(pup::Puper& p) override;

 private:
  std::size_t node_plane() const {
    return static_cast<std::size_t>(cfg_.ex + 1) * (cfg_.ey + 1);
  }
  std::size_t nodes_per_task() const {
    return node_plane() * static_cast<std::size_t>(cfg_.ez + 1);
  }
  rt::TaskAddr addr_of(int task) const {
    return rt::TaskAddr{task / cfg_.slots_per_node,
                        task % cfg_.slots_per_node};
  }

  void hydro_step(Inbox halos);

  MiniLuleshConfig cfg_;
  int task_id_;
  int stages_;

  // Node-centred fields (checkpointed): positions and velocities, SoA.
  std::vector<double> px_, py_, pz_;
  std::vector<double> vx_, vy_, vz_;
  // Element-centred fields (checkpointed).
  std::vector<double> energy_, pressure_, relvol_;
  // Cycle state.
  double dt_ = 1e-3;
  double local_dt_min_ = 1e-3;  ///< scratch: this cycle's local candidate
};

}  // namespace acr::apps
