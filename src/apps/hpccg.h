// HPCCG mini-app: conjugate gradient on a 27-point stencil operator,
// mimicking the Mantevo benchmark (§6.1). One rank-task per node in the
// paper's MPI/AMPI configuration.
//
// The domain is slab-decomposed along Z. Every CG iteration is a
// multi-phase step: halo exchange + local matvec + partial dot products,
// then two butterfly allreduce ladders (p·Ap, then r·r) — the real
// communication skeleton of CG.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/iterative.h"
#include "rt/cluster.h"

namespace acr::apps {

struct HpccgConfig {
  /// Local grid per task (paper: 40x40x40 per core).
  int nx = 8;
  int ny = 8;
  int nz = 8;
  /// Number of tasks (power of two; slab decomposition along Z).
  int num_tasks = 4;
  int slots_per_node = 1;  ///< MPI style: one rank per node
  std::uint64_t iterations = 15;
  double seconds_per_flop = 2.5e-10;

  int nodes_needed() const {
    return (num_tasks + slots_per_node - 1) / slots_per_node;
  }
  std::size_t rows_per_task() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
  rt::Cluster::TaskFactory factory() const;
};

class HpccgTask final : public IterativeTask {
 public:
  HpccgTask(const HpccgConfig& config, int task_id);

  double residual_norm() const { return rtrans_; }

 protected:
  void init() override;
  void send_phase(std::uint64_t iter, int phase) override;
  int expected_in_phase(std::uint64_t iter, int phase) const override;
  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override;
  int num_phases() const override { return 1 + 2 * stages_; }
  void pup_state(pup::Puper& p) override;

 private:
  std::size_t plane() const {
    return static_cast<std::size_t>(cfg_.nx) * cfg_.ny;
  }
  std::size_t rows() const { return cfg_.rows_per_task(); }
  rt::TaskAddr addr_of(int task) const {
    return rt::TaskAddr{task / cfg_.slots_per_node,
                        task % cfg_.slots_per_node};
  }

  /// 27-point operator applied to p_ (with halo planes) into ap_; returns
  /// the flop count.
  double matvec();
  void apply_alpha_update();  ///< after the first allreduce
  void apply_beta_update();   ///< after the second allreduce

  HpccgConfig cfg_;
  int task_id_;
  int stages_;  ///< log2(num_tasks)

  // CG state (checkpointed). p_ carries one ghost plane on each side.
  std::vector<double> x_, r_, p_;
  double rtrans_ = 0.0;
  std::uint64_t cg_steps_done_ = 0;

  // Scratch (rebuilt every iteration; excluded from checkpoints).
  std::vector<double> ap_;
  double red1_[2] = {0.0, 0.0};  ///< [p·Ap, r·r (first iteration bootstrap)]
  double red2_ = 0.0;            ///< new r·r
};

}  // namespace acr::apps
