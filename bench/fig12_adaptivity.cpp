// Figure 12: adaptivity of ACR to a changing failure rate. A Jacobi3D run
// on the virtual cluster with hard failures injected by a Weibull process
// with decreasing hazard (shape 0.6, ~19 failures over the run, as in the
// paper's 30-minute 512-core experiment). ACR re-derives the checkpoint
// interval from the observed MTBF: dense checkpoints early, sparse late.
//
// Prints the paper's timeline as text — one row per failure (F) and
// checkpoint commit (C) — plus the interval evolution summary.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "acr/scenario.h"
#include "common/table.h"
#include "failure/distributions.h"

using namespace acr;

int main() {
  // Compressed-time analogue of the paper's run: the adaptivity logic only
  // sees inter-failure times, so scaling all times preserves the shape.
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 4;
  j.tasks_z = 2;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 1200;
  j.slots_per_node = 2;  // 16 nodes per replica
  j.seconds_per_point = 2.5e-4;  // ~16 ms per iteration

  Scenario job;
  job.app = j;
  job.cluster.spare_nodes = 48;
  job.cluster.seed = 20130101;

  AcrConfig& ac = job.acr;
  ac.scheme = ResilienceScheme::Strong;
  ac.adaptive = true;
  ac.adaptive_config.checkpoint_cost = 0.08;
  ac.adaptive_config.min_interval = 0.15;
  ac.adaptive_config.max_interval = 1.0;
  ac.adaptive_config.window = 6;
  ac.checkpoint_interval = 0.3;
  ac.heartbeat_period = 0.004;
  ac.heartbeat_timeout = 0.016;

  // Weibull process, shape 0.6; scale chosen for ~19 failures over ~20 s
  // of virtual time: Lambda(T) = (T/s)^0.6 = 19 -> s = T / 19^(1/0.6).
  job.faults.arrivals = std::make_shared<failure::WeibullProcess>(0.6, 0.145);
  job.faults.sdc_fraction = 0.0;
  job.faults.horizon = 20.0;  // the paper's run has ~19 failures, front-loaded

  std::unique_ptr<AcrRuntime> started = start(job);
  AcrRuntime& runtime = *started;

  // Probe the controller's chosen interval through the run.
  std::vector<std::pair<double, double>> probes;
  std::function<void()> probe = [&] {
    probes.emplace_back(runtime.engine().now(),
                        runtime.manager().current_interval());
    if (!runtime.manager().job_complete())
      runtime.engine().schedule_after(2.0, probe);
  };
  runtime.engine().schedule_after(2.0, probe);

  RunSummary s = runtime.run(600.0);

  std::printf("Figure 12: adaptive checkpointing under a decreasing "
              "failure rate (Weibull shape 0.6)\n\n");
  std::printf("run: complete=%d  virtual time=%.2f s  failures "
              "injected/detected=%llu/%llu  checkpoints=%llu\n\n",
              s.complete, s.finish_time,
              static_cast<unsigned long long>(
                  runtime.trace().count(rt::TraceKind::HardFailureInjected)),
              static_cast<unsigned long long>(s.hard_failures),
              static_cast<unsigned long long>(s.checkpoints));

  // Timeline (paper's black = failure, white = checkpoint).
  std::printf("timeline (F = failure injected, C = checkpoint committed):\n");
  std::vector<double> commits;
  double last_commit = 0.0;
  for (const auto& e : runtime.trace().events()) {
    if (e.kind == rt::TraceKind::HardFailureInjected) {
      std::printf("  %7.3f  F  node (%d,%d)\n", e.time, e.replica,
                  e.node_index);
    } else if (e.kind == rt::TraceKind::CheckpointCommitted) {
      std::printf("  %7.3f  C  interval since last: %.3f s\n", e.time,
                  e.time - last_commit);
      commits.push_back(e.time);
      last_commit = e.time;
    }
  }

  std::printf("\ncontroller interval over the run (the Fig. 12 signal):\n");
  for (const auto& [t, interval] : probes)
    std::printf("  t=%6.2f s   interval=%.3f s\n", t, interval);
  if (probes.size() >= 2) {
    double early = probes.front().second;
    double late = probes.back().second;
    std::printf(
        "\ncheckpoint interval: %.3f s while failures are frequent -> "
        "%.3f s once the hazard decays (%.1fx stretch)\n",
        early, late, late / early);
    std::printf(
        "paper analogue: 6 s at the start of the run -> 17 s at the end "
        "(~2.8x) on 512 cores of BG/P.\n");
  }
  return 0;
}
