#include "apps/hpccg.h"

#include <bit>
#include <cmath>

#include "common/require.h"

namespace acr::apps {

rt::Cluster::TaskFactory HpccgConfig::factory() const {
  HpccgConfig cfg = *this;
  return [cfg](int replica, int node_index) {
    (void)replica;
    std::vector<std::unique_ptr<rt::Task>> tasks;
    int first = node_index * cfg.slots_per_node;
    int last = std::min(first + cfg.slots_per_node, cfg.num_tasks);
    for (int t = first; t < last; ++t)
      tasks.push_back(std::make_unique<HpccgTask>(cfg, t));
    return tasks;
  };
}

HpccgTask::HpccgTask(const HpccgConfig& config, int task_id)
    : IterativeTask(config.iterations), cfg_(config), task_id_(task_id) {
  ACR_REQUIRE(std::has_single_bit(static_cast<unsigned>(cfg_.num_tasks)),
              "HPCCG butterfly allreduce requires a power-of-two task count");
  stages_ = std::countr_zero(static_cast<unsigned>(cfg_.num_tasks));
}

void HpccgTask::init() {
  x_.assign(rows(), 0.0);
  ap_.assign(rows(), 0.0);
  p_.assign(rows() + 2 * plane(), 0.0);
  r_.assign(rows(), 0.0);
  // b = A * ones; with x0 = 0, r0 = b and p0 = r0. For the 27-point
  // operator with diagonal 27 and off-diagonals -1, b_i = 27 - #neighbors.
  bool at_zlo = task_id_ == 0;
  bool at_zhi = task_id_ == cfg_.num_tasks - 1;
  for (int k = 0; k < cfg_.nz; ++k) {
    for (int j = 0; j < cfg_.ny; ++j) {
      for (int i = 0; i < cfg_.nx; ++i) {
        int neighbors = 0;
        for (int dk = -1; dk <= 1; ++dk) {
          int gk_missing = (k + dk < 0 && at_zlo) ||
                           (k + dk >= cfg_.nz && at_zhi);
          if (gk_missing) continue;
          for (int dj = -1; dj <= 1; ++dj) {
            if (j + dj < 0 || j + dj >= cfg_.ny) continue;
            for (int di = -1; di <= 1; ++di) {
              if (i + di < 0 || i + di >= cfg_.nx) continue;
              if (di == 0 && dj == 0 && dk == 0) continue;
              ++neighbors;
            }
          }
        }
        std::size_t row = static_cast<std::size_t>(k) * plane() +
                          static_cast<std::size_t>(j) * cfg_.nx + i;
        r_[row] = 27.0 - neighbors;
        p_[plane() + row] = r_[row];  // p0 = r0 (interior offset by a plane)
      }
    }
  }
}

void HpccgTask::send_phase(std::uint64_t iter, int phase) {
  (void)iter;
  if (phase == 0) {
    // Boundary planes of p to the Z neighbors.
    for (int dir = -1; dir <= 1; dir += 2) {
      int nbr = task_id_ + dir;
      if (nbr < 0 || nbr >= cfg_.num_tasks) continue;
      std::vector<double> face(plane());
      std::size_t k = dir < 0 ? 0 : static_cast<std::size_t>(cfg_.nz - 1);
      for (std::size_t n = 0; n < plane(); ++n)
        face[n] = p_[plane() + k * plane() + n];
      // The receiver sees this plane arriving from the opposite direction.
      send_phase_msg(addr_of(nbr), iter, phase, /*sender=*/-dir,
                     std::move(face));
    }
    return;
  }
  // Butterfly stage: first ladder reduces [p·Ap, bootstrap r·r], second
  // ladder reduces the fresh r·r.
  int stage = (phase - 1) % stages_;
  int partner = task_id_ ^ (1 << stage);
  bool first_ladder = phase <= stages_;
  std::vector<double> payload =
      first_ladder ? std::vector<double>{red1_[0], red1_[1]}
                   : std::vector<double>{red2_};
  send_phase_msg(addr_of(partner), iter, phase, /*sender=*/partner,
                 std::move(payload));
}

int HpccgTask::expected_in_phase(std::uint64_t, int phase) const {
  if (phase == 0) {
    int n = 0;
    if (task_id_ > 0) ++n;
    if (task_id_ < cfg_.num_tasks - 1) ++n;
    return n;
  }
  return 1;  // butterfly partner
}

double HpccgTask::matvec() {
  const int nx = cfg_.nx, ny = cfg_.ny, nz = cfg_.nz;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        std::size_t row = static_cast<std::size_t>(k) * plane() +
                          static_cast<std::size_t>(j) * nx + i;
        double sum = 27.0 * p_[plane() + row];
        for (int dk = -1; dk <= 1; ++dk) {
          for (int dj = -1; dj <= 1; ++dj) {
            if (j + dj < 0 || j + dj >= ny) continue;
            for (int di = -1; di <= 1; ++di) {
              if (i + di < 0 || i + di >= nx) continue;
              if (di == 0 && dj == 0 && dk == 0) continue;
              // Ghost planes cover k = -1 and k = nz; absent global
              // boundaries stay zero there.
              std::size_t col =
                  static_cast<std::size_t>(k + dk + 1) * plane() +
                  static_cast<std::size_t>(j + dj) * nx + (i + di);
              sum -= p_[col];
            }
          }
        }
        ap_[row] = sum;
      }
    }
  }
  return 2.0 * 27.0 * static_cast<double>(rows());
}

void HpccgTask::apply_alpha_update() {
  if (cg_steps_done_ == 0) rtrans_ = red1_[1];  // bootstrap r·r
  double alpha = red1_[0] != 0.0 ? rtrans_ / red1_[0] : 0.0;
  red2_ = 0.0;
  for (std::size_t n = 0; n < rows(); ++n) {
    x_[n] += alpha * p_[plane() + n];
    r_[n] -= alpha * ap_[n];
    red2_ += r_[n] * r_[n];
  }
}

void HpccgTask::apply_beta_update() {
  double rr_new = red2_;
  double beta = rtrans_ != 0.0 ? rr_new / rtrans_ : 0.0;
  rtrans_ = rr_new;
  for (std::size_t n = 0; n < rows(); ++n)
    p_[plane() + n] = r_[n] + beta * p_[plane() + n];
  ++cg_steps_done_;
}

double HpccgTask::compute_phase(std::uint64_t, int phase, Inbox msgs) {
  if (phase == 0) {
    // Install halos: sender -1 = data from the lower neighbor (our k=-1
    // ghost plane), +1 = upper neighbor (k=nz ghost plane).
    for (const auto& [sender, data] : msgs) {
      std::size_t base = sender < 0
                             ? 0
                             : (static_cast<std::size_t>(cfg_.nz) + 1) *
                                   plane();
      for (std::size_t n = 0; n < plane(); ++n) p_[base + n] = data[n];
    }
    double flops = matvec();
    red1_[0] = 0.0;
    red1_[1] = 0.0;
    for (std::size_t n = 0; n < rows(); ++n) {
      red1_[0] += p_[plane() + n] * ap_[n];
      if (cg_steps_done_ == 0) red1_[1] += r_[n] * r_[n];
    }
    flops += 4.0 * static_cast<double>(rows());
    if (stages_ == 0) {
      // Single task: the "allreduce" is local.
      apply_alpha_update();
      apply_beta_update();
      flops += 6.0 * static_cast<double>(rows());
    }
    return flops * cfg_.seconds_per_flop;
  }

  bool first_ladder = phase <= stages_;
  ACR_REQUIRE(msgs.size() == 1, "butterfly stage expects one partner message");
  std::span<const double> v = msgs[0].data;
  double flops = 4.0;
  if (first_ladder) {
    red1_[0] += v[0];
    red1_[1] += v[1];
    if (phase == stages_) {
      apply_alpha_update();
      flops += 6.0 * static_cast<double>(rows());
    }
  } else {
    red2_ += v[0];
    if (phase == 2 * stages_) {
      apply_beta_update();
      flops += 4.0 * static_cast<double>(rows());
    }
  }
  return flops * cfg_.seconds_per_flop;
}

void HpccgTask::pup_state(pup::Puper& p) {
  p | x_;
  p | r_;
  p | p_;
  p | rtrans_;
  p | cg_steps_done_;
  if (p.is_unpacking()) ap_.assign(rows(), 0.0);
}

}  // namespace acr::apps
