#include "apps/jacobi3d.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/require.h"

namespace acr::apps {

std::size_t Jacobi3DConfig::doubles_per_task() const {
  return static_cast<std::size_t>(block_x + 2) *
         static_cast<std::size_t>(block_y + 2) *
         static_cast<std::size_t>(block_z + 2);
}

rt::Cluster::TaskFactory Jacobi3DConfig::factory() const {
  Jacobi3DConfig cfg = *this;
  return [cfg](int replica, int node_index) {
    (void)replica;  // replicas run identical work
    std::vector<std::unique_ptr<rt::Task>> tasks;
    int first = node_index * cfg.slots_per_node;
    int last = std::min(first + cfg.slots_per_node, cfg.total_tasks());
    for (int t = first; t < last; ++t)
      tasks.push_back(std::make_unique<Jacobi3DTask>(cfg, t));
    return tasks;
  };
}

Jacobi3DTask::Jacobi3DTask(const Jacobi3DConfig& config, int task_id)
    : IterativeTask(config.iterations), cfg_(config), task_id_(task_id) {
  ACR_REQUIRE(task_id >= 0 && task_id < cfg_.total_tasks(),
              "task id outside the task grid");
  tx_ = task_id % cfg_.tasks_x;
  ty_ = (task_id / cfg_.tasks_x) % cfg_.tasks_y;
  tz_ = task_id / (cfg_.tasks_x * cfg_.tasks_y);
  for (int face = 0; face < 6; ++face) {
    int nbr = neighbor_task(face);
    neighbors_[static_cast<std::size_t>(face)] = nbr;
    if (nbr >= 0) ++num_neighbors_;
  }
}

void Jacobi3DTask::init() {
  u_.assign(cfg_.doubles_per_task(), 0.0);
  parked_edges_.clear();
  // Deterministic initial condition from global coordinates: identical in
  // both replicas, different across tasks. Points at or beyond the seeded
  // Z fraction start exactly zero and stay bitwise zero until the update
  // front (one cell per iteration) reaches them.
  double z_seeded =
      cfg_.init_fill_fraction *
      static_cast<double>(cfg_.tasks_z) * static_cast<double>(cfg_.block_z);
  for (int k = 0; k < cfg_.block_z; ++k) {
    for (int j = 0; j < cfg_.block_y; ++j) {
      for (int i = 0; i < cfg_.block_x; ++i) {
        double gx = tx_ * cfg_.block_x + i;
        double gy = ty_ * cfg_.block_y + j;
        double gz = tz_ * cfg_.block_z + k;
        if (gz >= z_seeded) continue;
        u_[idx(i, j, k)] =
            std::sin(0.13 * gx) * std::cos(0.07 * gy) + 0.01 * gz;
      }
    }
  }
}

int Jacobi3DTask::neighbor_task(int face) const {
  int nx = tx_, ny = ty_, nz = tz_;
  switch (face) {
    case XLo: nx -= 1; break;
    case XHi: nx += 1; break;
    case YLo: ny -= 1; break;
    case YHi: ny += 1; break;
    case ZLo: nz -= 1; break;
    case ZHi: nz += 1; break;
  }
  if (nx < 0 || nx >= cfg_.tasks_x || ny < 0 || ny >= cfg_.tasks_y ||
      nz < 0 || nz >= cfg_.tasks_z)
    return -1;
  return nx + cfg_.tasks_x * (ny + cfg_.tasks_y * nz);
}

std::span<const double> Jacobi3DTask::extract_face(int face) const {
  thread_local std::vector<double> out;
  out.clear();
  auto push_plane_x = [&](int i) {
    for (int k = 0; k < cfg_.block_z; ++k)
      for (int j = 0; j < cfg_.block_y; ++j) out.push_back(u_[idx(i, j, k)]);
  };
  auto push_plane_y = [&](int j) {
    for (int k = 0; k < cfg_.block_z; ++k)
      for (int i = 0; i < cfg_.block_x; ++i) out.push_back(u_[idx(i, j, k)]);
  };
  auto push_plane_z = [&](int k) {
    for (int j = 0; j < cfg_.block_y; ++j)
      for (int i = 0; i < cfg_.block_x; ++i) out.push_back(u_[idx(i, j, k)]);
  };
  switch (face) {
    case XLo: push_plane_x(0); break;
    case XHi: push_plane_x(cfg_.block_x - 1); break;
    case YLo: push_plane_y(0); break;
    case YHi: push_plane_y(cfg_.block_y - 1); break;
    case ZLo: push_plane_z(0); break;
    case ZHi: push_plane_z(cfg_.block_z - 1); break;
  }
  return out;
}

void Jacobi3DTask::apply_halo(int face, std::span<const double> data) {
  std::size_t n = 0;
  auto pull_plane_x = [&](int i_ghost) {
    for (int k = 0; k < cfg_.block_z; ++k)
      for (int j = 0; j < cfg_.block_y; ++j)
        u_[idx(i_ghost, j, k)] = data[n++];
  };
  auto pull_plane_y = [&](int j_ghost) {
    for (int k = 0; k < cfg_.block_z; ++k)
      for (int i = 0; i < cfg_.block_x; ++i)
        u_[idx(i, j_ghost, k)] = data[n++];
  };
  auto pull_plane_z = [&](int k_ghost) {
    for (int j = 0; j < cfg_.block_y; ++j)
      for (int i = 0; i < cfg_.block_x; ++i)
        u_[idx(i, j, k_ghost)] = data[n++];
  };
  // Data arriving from face F fills the ghost plane on side F.
  switch (face) {
    case XLo: pull_plane_x(-1); break;
    case XHi: pull_plane_x(cfg_.block_x); break;
    case YLo: pull_plane_y(-1); break;
    case YHi: pull_plane_y(cfg_.block_y); break;
    case ZLo: pull_plane_z(-1); break;
    case ZHi: pull_plane_z(cfg_.block_z); break;
  }
}

void Jacobi3DTask::send_phase(std::uint64_t iter, int phase) {
  for (int face = 0; face < 6; ++face) {
    int nbr = neighbors_[static_cast<std::size_t>(face)];
    if (nbr < 0) continue;
    rt::TaskAddr dst{nbr / cfg_.slots_per_node, nbr % cfg_.slots_per_node};
    // The receiver sees this data arriving on its opposite face.
    send_phase_msg(dst, iter, phase, opposite(face), extract_face(face));
  }
}

int Jacobi3DTask::expected_in_phase(std::uint64_t, int) const {
  return num_neighbors_;
}

double Jacobi3DTask::compute_phase(std::uint64_t, int, Inbox msgs) {
  for (const auto& [face, data] : msgs) apply_halo(face, data);
  // The stencil's output block is shared by the thread's tasks: its
  // interior is fully rewritten here and its ghost planes are zeroed below,
  // and its edge cells are kept at zero (rotate_edges), so no task state
  // lives in it between computes. Which cells are edges depends on the
  // block's shape, not just its size.
  thread_local std::vector<double> next;
  thread_local std::array<int, 3> next_shape{};
  const std::array<int, 3> shape{cfg_.block_x, cfg_.block_y, cfg_.block_z};
  if (next_shape != shape) {
    next.assign(u_.size(), 0.0);
    next_shape = shape;
  }
  const double inv6 = 1.0 / 6.0;
  for (int k = 0; k < cfg_.block_z; ++k) {
    for (int j = 0; j < cfg_.block_y; ++j) {
      for (int i = 0; i < cfg_.block_x; ++i) {
        next[idx(i, j, k)] =
            inv6 * (u_[idx(i - 1, j, k)] + u_[idx(i + 1, j, k)] +
                    u_[idx(i, j - 1, k)] + u_[idx(i, j + 1, k)] +
                    u_[idx(i, j, k - 1)] + u_[idx(i, j, k + 1)]);
      }
    }
  }
  u_.swap(next);
  rotate_edges(next);
  // Canonicalize the ghost planes: the swapped-in block's planes hold
  // another block's halo data, which would differ between a freshly
  // restored replica and one that never rolled back — a false SDC mismatch.
  // Zeroed ghosts make the checkpointed state a pure function of the
  // iteration number. (Halos are rewritten before every stencil pass.)
  zero_ghost_planes();
  double points = static_cast<double>(cfg_.block_x) * cfg_.block_y *
                  cfg_.block_z;
  return points * cfg_.seconds_per_point;
}

template <typename F>
void Jacobi3DTask::for_each_edge_cell(F&& f) const {
  const int bx = cfg_.block_x, by = cfg_.block_y, bz = cfg_.block_z;
  std::size_t n = 0;
  for (int k : {-1, bz})
    for (int j : {-1, by})
      for (int i = -1; i <= bx; ++i) f(n++, idx(i, j, k));  // x edges, corners
  for (int k : {-1, bz})
    for (int i : {-1, bx})
      for (int j = 0; j < by; ++j) f(n++, idx(i, j, k));  // y edges
  for (int j : {-1, by})
    for (int i : {-1, bx})
      for (int k = 0; k < bz; ++k) f(n++, idx(i, j, k));  // z edges
}

void Jacobi3DTask::rotate_edges(std::vector<double>& old) {
  // The edge and corner cells are touched by neither the stencil nor the
  // halos, yet they are checkpointed and the SDC injector can flip them.
  // They behave as if each task owned two alternating blocks: a flip shows
  // in every other checkpoint, and an unpack drops it while it is parked.
  // Driver output depends on that (DriverTrace.Checksum). A bit test, not
  // == 0.0: a flipped sign bit (-0.0) is corruption that must survive too.
  bool old_zero = true;
  for_each_edge_cell([&](std::size_t, std::size_t c) {
    old_zero = old_zero && std::bit_cast<std::uint64_t>(old[c]) == 0;
  });
  if (old_zero && parked_edges_.empty()) return;  // u_'s edges are zero
  if (parked_edges_.empty())
    parked_edges_.assign(
        4 * static_cast<std::size_t>(cfg_.block_x + cfg_.block_y +
                                     cfg_.block_z) + 8,
        0.0);
  for_each_edge_cell([&](std::size_t n, std::size_t c) {
    u_[c] = std::exchange(parked_edges_[n], std::exchange(old[c], 0.0));
  });
  if (old_zero) parked_edges_.clear();
}

void Jacobi3DTask::zero_ghost_planes() {
  for (int k = 0; k < cfg_.block_z; ++k) {
    for (int j = 0; j < cfg_.block_y; ++j) {
      u_[idx(-1, j, k)] = 0.0;
      u_[idx(cfg_.block_x, j, k)] = 0.0;
    }
    for (int i = 0; i < cfg_.block_x; ++i) {
      u_[idx(i, -1, k)] = 0.0;
      u_[idx(i, cfg_.block_y, k)] = 0.0;
    }
  }
  for (int j = 0; j < cfg_.block_y; ++j) {
    for (int i = 0; i < cfg_.block_x; ++i) {
      u_[idx(i, j, -1)] = 0.0;
      u_[idx(i, j, cfg_.block_z)] = 0.0;
    }
  }
}

void Jacobi3DTask::pup_state(pup::Puper& p) {
  p | u_;  // the parked edges are not checkpointed: a restore zeroes them
  if (p.is_unpacking()) parked_edges_.clear();
}

double Jacobi3DTask::solution_norm() const {
  double s = 0.0;
  for (int k = 0; k < cfg_.block_z; ++k)
    for (int j = 0; j < cfg_.block_y; ++j)
      for (int i = 0; i < cfg_.block_x; ++i) s += u_[idx(i, j, k)] * u_[idx(i, j, k)];
  return s;
}

}  // namespace acr::apps
