// The benchmark's workloads: one simulated ACR job each, built from the
// public configuration structs and run through AcrRuntime.
//
//   halo-1k      jacobi message path at 1,024 nodes/replica, fault-free
//   ckpt-rs-lz   checkpoint write side: 2.3 MiB images, rs(2), delta+lz, L2
//   recover-256  checkpoint read side: rebuild, SDC rollback, L2 fetch wave
//   lossy-256    the reliable transport under drop/dup/reorder/corrupt
//
// Every workload also has a miniature (at most 8 nodes per replica) that
// the smoke test runs in well under a second.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"

namespace perfbench {

enum class Scale { Full, Mini };

struct Workload {
  std::string name;
  acr::apps::Jacobi3DConfig app;
  acr::AcrConfig acr;
  acr::rt::ClusterConfig cluster;  ///< seed is set per job
  /// Inject the scripted fault scenario (see schedule_faults).
  bool faults = false;
  /// Fault-free virtual finish time, seconds. Fault times are fractions of
  /// it, and it sets the virtual-time cap. Pinned for Full, measured by
  /// the smoke test for Mini.
  double nominal_finish = 0.0;
  /// Fletcher-64 digest of the fault-free verified answer (0 = unpinned).
  std::uint64_t digest = 0;

  int nodes_per_replica() const { return cluster.nodes_per_replica; }
  std::uint64_t iterations() const { return app.iterations; }
};

/// Workload names in benchmark order.
const std::vector<std::string>& workload_names();

/// The named workload at `scale`. Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, Scale scale);

/// The same job with faults and network loss switched off: the run whose
/// answer every run of the workload must reproduce.
Workload fault_free(Workload w);

/// Schedule the workload's fault scenario on `runtime` (after setup()).
/// The scenario's shape is fixed; `seed` picks the victims. In order, at
/// fixed fractions of the nominal finish: one hard failure (an rs group
/// rebuild), one silent bit flip in checkpointed interior state (a
/// rollback of both replicas), and a burst killing three members of one
/// parity group (more than rs(2) can rebuild: an L2 fetch wave), whose
/// hardware is repaired back into the spare pool later.
void schedule_faults(acr::AcrRuntime& runtime, const Workload& w,
                     std::uint64_t seed);

}  // namespace perfbench
