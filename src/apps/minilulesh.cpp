#include "apps/minilulesh.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/require.h"

namespace acr::apps {

rt::Cluster::TaskFactory MiniLuleshConfig::factory() const {
  MiniLuleshConfig cfg = *this;
  return [cfg](int replica, int node_index) {
    (void)replica;
    std::vector<std::unique_ptr<rt::Task>> tasks;
    int first = node_index * cfg.slots_per_node;
    int last = std::min(first + cfg.slots_per_node, cfg.num_tasks);
    for (int t = first; t < last; ++t)
      tasks.push_back(std::make_unique<MiniLuleshTask>(cfg, t));
    return tasks;
  };
}

MiniLuleshTask::MiniLuleshTask(const MiniLuleshConfig& config, int task_id)
    : IterativeTask(config.iterations), cfg_(config), task_id_(task_id) {
  ACR_REQUIRE(std::has_single_bit(static_cast<unsigned>(cfg_.num_tasks)),
              "dt min-reduce butterfly requires a power-of-two task count");
  stages_ = std::countr_zero(static_cast<unsigned>(cfg_.num_tasks));
}

void MiniLuleshTask::init() {
  std::size_t nn = nodes_per_task();
  px_.resize(nn);
  py_.resize(nn);
  pz_.resize(nn);
  vx_.assign(nn, 0.0);
  vy_.assign(nn, 0.0);
  vz_.assign(nn, 0.0);
  std::size_t n = 0;
  for (int k = 0; k <= cfg_.ez; ++k) {
    for (int j = 0; j <= cfg_.ey; ++j) {
      for (int i = 0; i <= cfg_.ex; ++i, ++n) {
        px_[n] = static_cast<double>(i);
        py_[n] = static_cast<double>(j);
        pz_[n] = static_cast<double>(task_id_ * cfg_.ez + k);
      }
    }
  }
  std::size_t ne = cfg_.elements_per_task();
  energy_.assign(ne, 0.0);
  pressure_.assign(ne, 0.0);
  relvol_.assign(ne, 1.0);
  // Sedov-style point deposit: the first element of task 0 carries the
  // initial energy that drives the shock.
  if (task_id_ == 0) energy_[0] = 3.948746e+7;
  dt_ = 1e-3;
}

void MiniLuleshTask::send_phase(std::uint64_t iter, int phase) {
  if (phase == 0) {
    // Exchange the boundary plane of nodal velocities with Z neighbors
    // (the force contribution across the slab interface).
    for (int dir = -1; dir <= 1; dir += 2) {
      int nbr = task_id_ + dir;
      if (nbr < 0 || nbr >= cfg_.num_tasks) continue;
      std::size_t base = dir < 0 ? 0 : (nodes_per_task() - node_plane());
      std::vector<double> data;
      data.reserve(3 * node_plane());
      for (std::size_t n = 0; n < node_plane(); ++n) data.push_back(vx_[base + n]);
      for (std::size_t n = 0; n < node_plane(); ++n) data.push_back(vy_[base + n]);
      for (std::size_t n = 0; n < node_plane(); ++n) data.push_back(vz_[base + n]);
      send_phase_msg(addr_of(nbr), iter, phase, /*sender=*/-dir,
                     std::move(data));
    }
    return;
  }
  int stage = phase - 1;
  int partner = task_id_ ^ (1 << stage);
  send_phase_msg(addr_of(partner), iter, phase, /*sender=*/partner,
                 std::span(&local_dt_min_, 1));
}

int MiniLuleshTask::expected_in_phase(std::uint64_t, int phase) const {
  if (phase == 0) {
    int n = 0;
    if (task_id_ > 0) ++n;
    if (task_id_ < cfg_.num_tasks - 1) ++n;
    return n;
  }
  return 1;
}

void MiniLuleshTask::hydro_step(Inbox halos) {
  const double gamma_eos = 1.4;
  const double qq = 0.06;  // artificial viscosity coefficient
  std::size_t ne = cfg_.elements_per_task();

  // Ghost velocity planes (zero at the global boundary).
  std::vector<double> ghost_lo(3 * node_plane(), 0.0);
  std::vector<double> ghost_hi(3 * node_plane(), 0.0);
  for (const auto& [sender, data] : halos) {
    if (sender < 0)
      ghost_lo.assign(data.begin(), data.end());
    else
      ghost_hi.assign(data.begin(), data.end());
  }

  // Element update: EOS + viscosity from a divergence proxy built out of
  // the nodal velocities around the element.
  local_dt_min_ = 1e-2;
  std::size_t e = 0;
  for (int k = 0; k < cfg_.ez; ++k) {
    for (int j = 0; j < cfg_.ey; ++j) {
      for (int i = 0; i < cfg_.ex; ++i, ++e) {
        auto nidx = [&](int ii, int jj, int kk) {
          return static_cast<std::size_t>(kk) * node_plane() +
                 static_cast<std::size_t>(jj) * (cfg_.ex + 1) + ii;
        };
        double div = (vx_[nidx(i + 1, j, k)] - vx_[nidx(i, j, k)]) +
                     (vy_[nidx(i, j + 1, k)] - vy_[nidx(i, j, k)]) +
                     (vz_[nidx(i, j, k + 1)] - vz_[nidx(i, j, k)]);
        relvol_[e] = std::max(1e-6, relvol_[e] * (1.0 + dt_ * div));
        double q = div < 0.0 ? qq * div * div : 0.0;
        pressure_[e] =
            std::max(0.0, (gamma_eos - 1.0) * energy_[e] / relvol_[e] + q);
        energy_[e] = std::max(
            0.0, energy_[e] - dt_ * pressure_[e] * div);
        double ss = std::sqrt(gamma_eos * (pressure_[e] + 1e-12) /
                              std::max(relvol_[e], 1e-6));
        double cand = 0.4 / std::max(ss, 1e-9);
        local_dt_min_ = std::min(local_dt_min_, cand);
      }
    }
  }
  ACR_ASSERT(e == ne);
  (void)ne;

  // Nodal update: accelerate nodes away from high pressure (gradient
  // proxy), using the ghost planes at the slab interfaces.
  auto pressure_at = [&](int i, int j, int k) {
    i = std::clamp(i, 0, cfg_.ex - 1);
    j = std::clamp(j, 0, cfg_.ey - 1);
    k = std::clamp(k, 0, cfg_.ez - 1);
    return pressure_[static_cast<std::size_t>(k) * cfg_.ex * cfg_.ey +
                     static_cast<std::size_t>(j) * cfg_.ex + i];
  };
  std::size_t n = 0;
  for (int k = 0; k <= cfg_.ez; ++k) {
    for (int j = 0; j <= cfg_.ey; ++j) {
      for (int i = 0; i <= cfg_.ex; ++i, ++n) {
        double gx = pressure_at(i, j, k) - pressure_at(i - 1, j, k);
        double gy = pressure_at(i, j, k) - pressure_at(i, j - 1, k);
        double gz = pressure_at(i, j, k) - pressure_at(i, j, k - 1);
        // Interface coupling: blend in the neighbor's boundary velocity so
        // information crosses the slab boundary.
        if (k == 0) {
          std::size_t g = static_cast<std::size_t>(j) * (cfg_.ex + 1) + i;
          vz_[n] = 0.5 * (vz_[n] + ghost_lo[2 * node_plane() + g]);
        }
        if (k == cfg_.ez) {
          std::size_t g = static_cast<std::size_t>(j) * (cfg_.ex + 1) + i;
          vz_[n] = 0.5 * (vz_[n] + ghost_hi[2 * node_plane() + g]);
        }
        vx_[n] -= dt_ * gx;
        vy_[n] -= dt_ * gy;
        vz_[n] -= dt_ * gz;
        px_[n] += dt_ * vx_[n];
        py_[n] += dt_ * vy_[n];
        pz_[n] += dt_ * vz_[n];
      }
    }
  }
}

double MiniLuleshTask::compute_phase(std::uint64_t, int phase, Inbox msgs) {
  if (phase == 0) {
    hydro_step(msgs);
    if (stages_ == 0) dt_ = std::min(local_dt_min_, 1e-2);
    return static_cast<double>(cfg_.elements_per_task()) *
           cfg_.seconds_per_element;
  }
  ACR_REQUIRE(msgs.size() == 1, "dt butterfly expects one partner message");
  local_dt_min_ = std::min(local_dt_min_, msgs[0].data[0]);
  if (phase == stages_) dt_ = std::min(local_dt_min_, 1e-2);
  return 1e-7;
}

void MiniLuleshTask::pup_state(pup::Puper& p) {
  p | px_;
  p | py_;
  p | pz_;
  p | vx_;
  p | vy_;
  p | vz_;
  p | energy_;
  p | pressure_;
  p | relvol_;
  p | dt_;
  p | local_dt_min_;
}

double MiniLuleshTask::total_energy() const {
  double s = 0.0;
  for (double e : energy_) s += e;
  return s;
}

}  // namespace acr::apps
