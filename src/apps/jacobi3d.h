// Jacobi3D mini-app: 7-point stencil relaxation on a 3D structured mesh
// (§6.1). The global domain is block-decomposed over a 3D grid of tasks;
// each iteration exchanges six face halos and applies the stencil.
//
// Two flavours mirror the paper's Charm++ vs AMPI versions: the Charm++
// style overdecomposes (several tasks per node), the AMPI style runs one
// rank-task per node. Both share this implementation; only
// `slots_per_node` differs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/iterative.h"
#include "rt/cluster.h"

namespace acr::apps {

struct Jacobi3DConfig {
  int tasks_x = 2;
  int tasks_y = 2;
  int tasks_z = 2;
  /// Interior points per task per dimension (paper: 64x64x128 per core).
  int block_x = 8;
  int block_y = 8;
  int block_z = 8;
  std::uint64_t iterations = 20;
  /// Tasks hosted per node: >1 = Charm++-style overdecomposition,
  /// 1 = AMPI-style one rank per node.
  int slots_per_node = 4;
  /// Virtual compute cost per grid point per iteration (seconds).
  double seconds_per_point = 4e-9;
  /// Fraction of the global Z extent seeded with the sinusoidal initial
  /// condition; the rest starts exactly zero. 1.0 (default) seeds every
  /// point — bit-identical to the historical behaviour. Values < 1
  /// localize the impulse so distant blocks stay bitwise unchanged until
  /// the update front reaches them (the dirty-chunk codec's regime).
  double init_fill_fraction = 1.0;

  int total_tasks() const { return tasks_x * tasks_y * tasks_z; }
  int nodes_needed() const {
    return (total_tasks() + slots_per_node - 1) / slots_per_node;
  }
  /// Checkpointable doubles per task (the solution block).
  std::size_t doubles_per_task() const;

  /// Task factory for rt::Cluster.
  rt::Cluster::TaskFactory factory() const;
};

class Jacobi3DTask final : public IterativeTask {
 public:
  Jacobi3DTask(const Jacobi3DConfig& config, int task_id);

  /// Residual-style digest of the current solution (tests).
  double solution_norm() const;

  /// Direct access to a grid value (i,j,k in local block coordinates,
  /// -1 and block_* address the ghost shell). Used by tests and examples
  /// to plant deterministic silent corruption in checkpointed data.
  double& value_at(int i, int j, int k) { return u_[idx(i, j, k)]; }

 protected:
  void init() override;
  void send_phase(std::uint64_t iter, int phase) override;
  int expected_in_phase(std::uint64_t iter, int phase) const override;
  double compute_phase(std::uint64_t iter, int phase, Inbox msgs) override;
  void pup_state(pup::Puper& p) override;

 private:
  // Face directions; the sender key a message carries is the direction the
  // *receiver* sees the data arriving from.
  enum Face : int { XLo = 0, XHi, YLo, YHi, ZLo, ZHi };
  static int opposite(int f) { return f ^ 1; }

  int neighbor_task(int face) const;  ///< -1 at the domain boundary
  void zero_ghost_planes();
  /// Visit the 12 ghost edges and 8 corners as f(n, idx), n = 0, 1, ...
  template <typename F>
  void for_each_edge_cell(F&& f) const;
  /// After the stencil's output block became u_: give u_ the parked edge
  /// cells and park those of `old` (the block just swapped out), leaving
  /// `old`'s edges zero for its next use as the stencil's output.
  void rotate_edges(std::vector<double>& old);
  /// The boundary plane on `face`, copied into a scratch buffer shared by
  /// the thread's tasks; valid until the next call.
  std::span<const double> extract_face(int face) const;
  void apply_halo(int face, std::span<const double> data);

  std::size_t idx(int i, int j, int k) const {
    // Ghost layer of one point on each side.
    return static_cast<std::size_t>(
        (k + 1) * (cfg_.block_x + 2) * (cfg_.block_y + 2) +
        (j + 1) * (cfg_.block_x + 2) + (i + 1));
  }

  Jacobi3DConfig cfg_;
  int task_id_;
  int tx_, ty_, tz_;  ///< position in the task grid
  std::array<int, 6> neighbors_{};  ///< neighbor_task(face), fixed
  int num_neighbors_ = 0;           ///< faces with a neighbor
  std::vector<double> u_;  ///< solution with ghosts (checkpointed)
  /// Edge and corner cells of the previous block, which come back into u_
  /// on the next compute (DESIGN §16); empty while all are +0.0.
  std::vector<double> parked_edges_;
};

}  // namespace acr::apps
