#include "apps/leanmd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/require.h"
#include "common/rng.h"

namespace acr::apps {

namespace {
/// Flattened atom record width in a migration/ghost message:
/// [id, x, y, z, vx, vy, vz].
constexpr std::size_t kAtomRecord = 7;
}  // namespace

rt::Cluster::TaskFactory LeanMdConfig::factory() const {
  LeanMdConfig cfg = *this;
  return [cfg](int replica, int node_index) {
    (void)replica;
    std::vector<std::unique_ptr<rt::Task>> tasks;
    int first = node_index * cfg.slots_per_node;
    int last = std::min(first + cfg.slots_per_node, cfg.num_tasks);
    for (int t = first; t < last; ++t)
      tasks.push_back(std::make_unique<LeanMdTask>(cfg, t));
    return tasks;
  };
}

LeanMdTask::LeanMdTask(const LeanMdConfig& config, int task_id)
    : IterativeTask(config.iterations), cfg_(config), task_id_(task_id) {}

void LeanMdTask::init() {
  // Deterministic lattice-with-jitter fill of this task's slab. The RNG is
  // seeded by logical position (task id), so buddy tasks agree.
  Pcg32 rng(0xBEEF5EEDULL ^ static_cast<std::uint64_t>(task_id_), 42);
  int n = cfg_.atoms_per_task;
  int per_side = std::max(1, static_cast<int>(std::cbrt(static_cast<double>(n))) + 1);
  int placed = 0;
  for (int k = 0; k < per_side && placed < n; ++k) {
    for (int j = 0; j < per_side && placed < n; ++j) {
      for (int i = 0; i < per_side && placed < n; ++i, ++placed) {
        ids_.push_back(static_cast<std::int64_t>(task_id_) * cfg_.atoms_per_task +
                       placed);
        x_.push_back((i + 0.5) * cfg_.box_xy / per_side +
                     0.05 * rng.uniform(-1.0, 1.0));
        y_.push_back((j + 0.5) * cfg_.box_xy / per_side +
                     0.05 * rng.uniform(-1.0, 1.0));
        z_.push_back(z_lo() + (k + 0.5) * cfg_.slab_width / per_side +
                     0.05 * rng.uniform(-1.0, 1.0));
        vx_.push_back(0.3 * rng.uniform(-1.0, 1.0));
        vy_.push_back(0.3 * rng.uniform(-1.0, 1.0));
        vz_.push_back(0.3 * rng.uniform(-1.0, 1.0));
      }
    }
  }
  sort_atoms_by_id();
}

void LeanMdTask::sort_atoms_by_id() {
  std::vector<std::size_t> order(ids_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids_[a] < ids_[b]; });
  auto permute = [&](auto& v) {
    auto copy = v;
    for (std::size_t i = 0; i < order.size(); ++i) v[i] = copy[order[i]];
  };
  permute(ids_);
  permute(x_);
  permute(y_);
  permute(z_);
  permute(vx_);
  permute(vy_);
  permute(vz_);
}

void LeanMdTask::send_phase(std::uint64_t iter, int phase) {
  if (phase == 0) {
    // Ghost export: atoms within the cutoff of a boundary.
    for (int dir = -1; dir <= 1; dir += 2) {
      int nbr = task_id_ + dir;
      if (nbr < 0 || nbr >= cfg_.num_tasks) continue;
      std::vector<double> data;
      for (std::size_t a = 0; a < ids_.size(); ++a) {
        bool near = dir < 0 ? (z_[a] - z_lo() < cfg_.cutoff)
                            : (z_hi() - z_[a] < cfg_.cutoff);
        if (!near) continue;
        data.insert(data.end(), {static_cast<double>(ids_[a]), x_[a], y_[a],
                                 z_[a], vx_[a], vy_[a], vz_[a]});
      }
      send_phase_msg(addr_of(nbr), iter, phase, /*sender=*/-dir,
                     std::move(data));
    }
    return;
  }
  // Phase 1: migration. Always send (possibly empty) so the expected
  // message count is fixed.
  for (int dir = -1; dir <= 1; dir += 2) {
    int nbr = task_id_ + dir;
    if (nbr < 0 || nbr >= cfg_.num_tasks) continue;
    send_phase_msg(addr_of(nbr), iter, phase, /*sender=*/-dir,
                   dir < 0 ? emigrants_lo_ : emigrants_hi_);
  }
}

int LeanMdTask::expected_in_phase(std::uint64_t, int) const {
  int n = 0;
  if (task_id_ > 0) ++n;
  if (task_id_ < cfg_.num_tasks - 1) ++n;
  return n;
}

double LeanMdTask::force_and_integrate(Inbox ghosts) {
  std::size_t n = ids_.size();
  std::vector<double> fx(n, 0.0), fy(n, 0.0), fz(n, 0.0);
  double cutoff2 = cfg_.cutoff * cfg_.cutoff;
  double pairs = 0.0;

  auto accumulate = [&](std::size_t a, double bx, double by, double bz,
                        bool half) {
    double dx = x_[a] - bx, dy = y_[a] - by, dz = z_[a] - bz;
    double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= cutoff2 || r2 < 1e-12) return;
    pairs += 1.0;
    // Truncated LJ-style force magnitude / r.
    double inv2 = 1.0 / r2;
    double inv6 = inv2 * inv2 * inv2;
    double fmag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
    fmag = std::clamp(fmag, -1e3, 1e3);  // keep the toy integrator stable
    fx[a] += (half ? 1.0 : 1.0) * fmag * dx;
    fy[a] += fmag * dy;
    fz[a] += fmag * dz;
  };

  // Local-local pairs (both sides accumulated, Newton's third law kept by
  // symmetry of the loop).
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      if (a != b) accumulate(a, x_[b], y_[b], z_[b], true);
  // Local-ghost pairs.
  for (const auto& [sender, data] : ghosts) {
    (void)sender;
    for (std::size_t off = 0; off + kAtomRecord <= data.size();
         off += kAtomRecord)
      for (std::size_t a = 0; a < n; ++a)
        accumulate(a, data[off + 1], data[off + 2], data[off + 3], false);
  }

  // Velocity-Verlet-ish integration with reflective X/Y walls.
  emigrants_lo_.clear();
  emigrants_hi_.clear();
  for (std::size_t a = 0; a < n; ++a) {
    vx_[a] += cfg_.dt * fx[a];
    vy_[a] += cfg_.dt * fy[a];
    vz_[a] += cfg_.dt * fz[a];
    x_[a] += cfg_.dt * vx_[a];
    y_[a] += cfg_.dt * vy_[a];
    z_[a] += cfg_.dt * vz_[a];
    if (x_[a] < 0.0 || x_[a] > cfg_.box_xy) vx_[a] = -vx_[a];
    if (y_[a] < 0.0 || y_[a] > cfg_.box_xy) vy_[a] = -vy_[a];
    x_[a] = std::clamp(x_[a], 0.0, cfg_.box_xy);
    y_[a] = std::clamp(y_[a], 0.0, cfg_.box_xy);
    // Global Z walls reflect; interior crossings migrate in phase 1.
    if (task_id_ == 0 && z_[a] < z_lo()) {
      vz_[a] = -vz_[a];
      z_[a] = z_lo() + (z_lo() - z_[a]);
    }
    if (task_id_ == cfg_.num_tasks - 1 && z_[a] > z_hi()) {
      vz_[a] = -vz_[a];
      z_[a] = z_hi() - (z_[a] - z_hi());
    }
  }

  // Collect emigrants (descending index so erasure is stable).
  for (std::size_t a = n; a-- > 0;) {
    int dir = 0;
    if (z_[a] < z_lo() && task_id_ > 0) dir = -1;
    if (z_[a] >= z_hi() && task_id_ < cfg_.num_tasks - 1) dir = +1;
    if (dir == 0) continue;
    auto& out = dir < 0 ? emigrants_lo_ : emigrants_hi_;
    out.insert(out.end(), {static_cast<double>(ids_[a]), x_[a], y_[a], z_[a],
                           vx_[a], vy_[a], vz_[a]});
    auto erase_at = [&](auto& v) { v.erase(v.begin() + static_cast<long>(a)); };
    erase_at(ids_);
    erase_at(x_);
    erase_at(y_);
    erase_at(z_);
    erase_at(vx_);
    erase_at(vy_);
    erase_at(vz_);
  }
  return pairs;
}

double LeanMdTask::compute_phase(std::uint64_t, int phase, Inbox msgs) {
  if (phase == 0) {
    double pairs = force_and_integrate(msgs);
    return (pairs + static_cast<double>(ids_.size())) * cfg_.seconds_per_pair;
  }
  // Phase 1: absorb immigrants, restore canonical (id-sorted) order.
  for (const auto& [sender, data] : msgs) {
    (void)sender;
    for (std::size_t off = 0; off + kAtomRecord <= data.size();
         off += kAtomRecord) {
      ids_.push_back(static_cast<std::int64_t>(data[off]));
      x_.push_back(data[off + 1]);
      y_.push_back(data[off + 2]);
      z_.push_back(data[off + 3]);
      vx_.push_back(data[off + 4]);
      vy_.push_back(data[off + 5]);
      vz_.push_back(data[off + 6]);
    }
  }
  sort_atoms_by_id();
  emigrants_lo_.clear();
  emigrants_hi_.clear();
  return static_cast<double>(ids_.size()) * cfg_.seconds_per_pair;
}

void LeanMdTask::pup_state(pup::Puper& p) {
  p | ids_;
  p | x_;
  p | y_;
  p | z_;
  p | vx_;
  p | vy_;
  p | vz_;
  p | emigrants_lo_;
  p | emigrants_hi_;
}

double LeanMdTask::kinetic_energy() const {
  double ke = 0.0;
  for (std::size_t a = 0; a < ids_.size(); ++a)
    ke += 0.5 * (vx_[a] * vx_[a] + vy_[a] * vy_[a] + vz_[a] * vz_[a]);
  return ke;
}

}  // namespace acr::apps
