// LeanMD mini-app: short-range molecular dynamics with cell-based spatial
// decomposition and atom migration (§6.1). Each task owns one slab of the
// 1D-decomposed simulation box. Every step:
//   phase 0 — send positions of atoms within the cutoff of a slab boundary
//             to that neighbor; compute Lennard-Jones-style forces among
//             local atoms and against ghost atoms; integrate.
//   phase 1 — migrate atoms that crossed a slab boundary (variable-size
//             messages: the checkpoint size of a task changes over time,
//             unlike the fixed-block apps).
// Atoms are kept sorted by id so both replicas serialize identical state.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/iterative.h"
#include "rt/cluster.h"

namespace acr::apps {

struct LeanMdConfig {
  /// Atoms initially placed per task (paper: 4000 per core).
  int atoms_per_task = 64;
  int num_tasks = 4;
  int slots_per_node = 2;  ///< Charm++-style: a few cells per node
  std::uint64_t iterations = 10;
  double cutoff = 2.5;
  double slab_width = 10.0;  ///< box extent per task along Z
  double box_xy = 8.0;
  double dt = 2e-3;
  double seconds_per_pair = 2e-9;  ///< virtual cost per interaction pair

  int nodes_needed() const {
    return (num_tasks + slots_per_node - 1) / slots_per_node;
  }
  rt::Cluster::TaskFactory factory() const;
};

class LeanMdTask final : public IterativeTask {
 public:
  LeanMdTask(const LeanMdConfig& config, int task_id);

  std::size_t atom_count() const { return ids_.size(); }
  double kinetic_energy() const;

 protected:
  void init() override;
  void send_phase(std::uint64_t iter, int phase) override;
  int expected_in_phase(std::uint64_t iter, int phase) const override;
  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override;
  int num_phases() const override { return 2; }
  void pup_state(pup::Puper& p) override;

 private:
  rt::TaskAddr addr_of(int task) const {
    return rt::TaskAddr{task / cfg_.slots_per_node,
                        task % cfg_.slots_per_node};
  }
  double z_lo() const { return task_id_ * cfg_.slab_width; }
  double z_hi() const { return (task_id_ + 1) * cfg_.slab_width; }

  /// Force/integration step; returns the number of pairs evaluated.
  double force_and_integrate(Inbox ghosts);
  void sort_atoms_by_id();

  LeanMdConfig cfg_;
  int task_id_;

  // Atom state, SoA, sorted by id (all checkpointed).
  std::vector<std::int64_t> ids_;
  std::vector<double> x_, y_, z_;
  std::vector<double> vx_, vy_, vz_;

  // Scratch between phase 0 and phase 1 of one step: indices of atoms that
  // crossed a boundary (rebuilt every step, but pupped for safety since it
  // is live between phases... it is empty at iteration boundaries).
  std::vector<double> emigrants_lo_, emigrants_hi_;
};

}  // namespace acr::apps
