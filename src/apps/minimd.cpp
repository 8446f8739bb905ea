#include "apps/minimd.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "common/rng.h"

namespace acr::apps {

namespace {
constexpr std::size_t kGhostRecord = 3;  ///< [x, y, z]
}

rt::Cluster::TaskFactory MiniMdConfig::factory() const {
  MiniMdConfig cfg = *this;
  return [cfg](int replica, int node_index) {
    (void)replica;
    std::vector<std::unique_ptr<rt::Task>> tasks;
    int first = node_index * cfg.slots_per_node;
    int last = std::min(first + cfg.slots_per_node, cfg.num_tasks);
    for (int t = first; t < last; ++t)
      tasks.push_back(std::make_unique<MiniMdTask>(cfg, t));
    return tasks;
  };
}

MiniMdTask::MiniMdTask(const MiniMdConfig& config, int task_id)
    : IterativeTask(config.iterations), cfg_(config), task_id_(task_id) {}

void MiniMdTask::init() {
  Pcg32 rng(0x5EEDBEEFULL ^ static_cast<std::uint64_t>(task_id_), 24);
  double zlo = task_id_ * cfg_.box;
  int n = cfg_.atoms_per_task;
  int per_side =
      std::max(1, static_cast<int>(std::cbrt(static_cast<double>(n))) + 1);
  int placed = 0;
  for (int k = 0; k < per_side && placed < n; ++k) {
    for (int j = 0; j < per_side && placed < n; ++j) {
      for (int i = 0; i < per_side && placed < n; ++i, ++placed) {
        double h = cfg_.box / per_side;
        x_.push_back((i + 0.5) * h + 0.03 * rng.uniform(-1.0, 1.0));
        y_.push_back((j + 0.5) * h + 0.03 * rng.uniform(-1.0, 1.0));
        z_.push_back(zlo + (k + 0.5) * h + 0.03 * rng.uniform(-1.0, 1.0));
        vx_.push_back(0.2 * rng.uniform(-1.0, 1.0));
        vy_.push_back(0.2 * rng.uniform(-1.0, 1.0));
        vz_.push_back(0.2 * rng.uniform(-1.0, 1.0));
      }
    }
  }
  rebuild_neighbor_list();
}

void MiniMdTask::rebuild_neighbor_list() {
  list_a_.clear();
  list_b_.clear();
  double r = cfg_.cutoff + cfg_.skin;
  double r2 = r * r;
  std::size_t n = x_.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      double dx = x_[a] - x_[b], dy = y_[a] - y_[b], dz = z_[a] - z_[b];
      if (dx * dx + dy * dy + dz * dz < r2) {
        list_a_.push_back(static_cast<std::int32_t>(a));
        list_b_.push_back(static_cast<std::int32_t>(b));
      }
    }
  }
}

void MiniMdTask::send_phase(std::uint64_t iter, int phase) {
  for (int dir = -1; dir <= 1; dir += 2) {
    int nbr = task_id_ + dir;
    if (nbr < 0 || nbr >= cfg_.num_tasks) continue;
    double zlo = task_id_ * cfg_.box;
    double zhi = zlo + cfg_.box;
    std::vector<double> data;
    for (std::size_t a = 0; a < x_.size(); ++a) {
      bool near = dir < 0 ? (z_[a] - zlo < cfg_.cutoff)
                          : (zhi - z_[a] < cfg_.cutoff);
      if (near) data.insert(data.end(), {x_[a], y_[a], z_[a]});
    }
    send_phase_msg(addr_of(nbr), iter, phase, /*sender=*/-dir,
                   std::move(data));
  }
}

int MiniMdTask::expected_in_phase(std::uint64_t, int) const {
  int n = 0;
  if (task_id_ > 0) ++n;
  if (task_id_ < cfg_.num_tasks - 1) ++n;
  return n;
}

double MiniMdTask::compute_phase(std::uint64_t iter, int, Inbox msgs) {
  if (rebuild_step(iter)) {
    rebuild_neighbor_list();
    last_rebuild_iter_ = iter;
  }
  std::size_t n = x_.size();
  std::vector<double> fx(n, 0.0), fy(n, 0.0), fz(n, 0.0);
  double cutoff2 = cfg_.cutoff * cfg_.cutoff;
  double pairs = 0.0;

  auto pair_force = [&](double dx, double dy, double dz, double& mag) {
    double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= cutoff2 || r2 < 1e-12) return false;
    double inv2 = 1.0 / r2;
    double inv6 = inv2 * inv2 * inv2;
    mag = std::clamp(24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0), -1e3, 1e3);
    return true;
  };

  // Owned pairs through the stored list (scattered access on purpose).
  for (std::size_t p = 0; p < list_a_.size(); ++p) {
    std::size_t a = static_cast<std::size_t>(list_a_[p]);
    std::size_t b = static_cast<std::size_t>(list_b_[p]);
    double dx = x_[a] - x_[b], dy = y_[a] - y_[b], dz = z_[a] - z_[b];
    double mag = 0.0;
    if (!pair_force(dx, dy, dz, mag)) continue;
    pairs += 1.0;
    fx[a] += mag * dx;
    fy[a] += mag * dy;
    fz[a] += mag * dz;
    fx[b] -= mag * dx;
    fy[b] -= mag * dy;
    fz[b] -= mag * dz;
  }
  // Ghost interactions (all pairs against the imported boundary atoms).
  for (const auto& [sender, data] : msgs) {
    (void)sender;
    for (std::size_t off = 0; off + kGhostRecord <= data.size();
         off += kGhostRecord) {
      for (std::size_t a = 0; a < n; ++a) {
        double dx = x_[a] - data[off], dy = y_[a] - data[off + 1],
               dz = z_[a] - data[off + 2];
        double mag = 0.0;
        if (!pair_force(dx, dy, dz, mag)) continue;
        pairs += 1.0;
        fx[a] += mag * dx;
        fy[a] += mag * dy;
        fz[a] += mag * dz;
      }
    }
  }

  // Integrate with reflective walls (fixed ownership).
  double zlo = task_id_ * cfg_.box;
  double zhi = zlo + cfg_.box;
  for (std::size_t a = 0; a < n; ++a) {
    vx_[a] += cfg_.dt * fx[a];
    vy_[a] += cfg_.dt * fy[a];
    vz_[a] += cfg_.dt * fz[a];
    x_[a] += cfg_.dt * vx_[a];
    y_[a] += cfg_.dt * vy_[a];
    z_[a] += cfg_.dt * vz_[a];
    if (x_[a] < 0.0 || x_[a] > cfg_.box) vx_[a] = -vx_[a];
    if (y_[a] < 0.0 || y_[a] > cfg_.box) vy_[a] = -vy_[a];
    if (z_[a] < zlo || z_[a] > zhi) vz_[a] = -vz_[a];
    x_[a] = std::clamp(x_[a], 0.0, cfg_.box);
    y_[a] = std::clamp(y_[a], 0.0, cfg_.box);
    z_[a] = std::clamp(z_[a], zlo, zhi);
  }
  return (pairs + static_cast<double>(n)) * cfg_.seconds_per_pair;
}

void MiniMdTask::pup_state(pup::Puper& p) {
  p | x_;
  p | y_;
  p | z_;
  p | vx_;
  p | vy_;
  p | vz_;
  p | list_a_;
  p | list_b_;
  p | last_rebuild_iter_;
}

double MiniMdTask::kinetic_energy() const {
  double ke = 0.0;
  for (std::size_t a = 0; a < x_.size(); ++a)
    ke += 0.5 * (vx_[a] * vx_[a] + vy_[a] * vy_[a] + vz_[a] * vz_[a]);
  return ke;
}

}  // namespace acr::apps
