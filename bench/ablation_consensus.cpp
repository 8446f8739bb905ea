// Ablation (§2.2 claim): the asynchronous checkpoint consensus causes
// minimal application interference. Measures, on live Jacobi3D runs with
// increasing network jitter (progress skew between tasks), the time from
// checkpoint request to pack command — the window during which some tasks
// are paused — and relates it to the application iteration time.
#include <cstdio>
#include <vector>

#include "acr/scenario.h"
#include "common/stats.h"
#include "common/table.h"

using namespace acr;

int main() {
  std::printf("Consensus-interference ablation (Fig. 3 protocol)\n\n");
  TablePrinter table({"app jitter", "checkpoints", "mean consensus (ms)",
                      "max consensus (ms)", "iteration time (ms)",
                      "consensus / iteration"});

  for (double jitter : {0.0, 0.1, 0.3, 0.6}) {
    apps::Jacobi3DConfig j;
    j.tasks_x = j.tasks_y = 2;
    j.tasks_z = 4;
    j.block_x = j.block_y = j.block_z = 6;
    j.iterations = 120;
    j.slots_per_node = 2;
    j.seconds_per_point = 5e-6;  // ~1.1 ms per iteration

    Scenario job;
    job.app = j;
    job.cluster.spare_nodes = 0;
    job.cluster.app_jitter = jitter;
    job.acr.checkpoint_interval = 0.012;
    job.acr.heartbeat_period = 0.002;
    job.acr.heartbeat_timeout = 0.01;
    job.max_virtual_time = 60.0;

    JobResult r = run(job);
    const RunSummary& s = r.summary;
    if (!s.complete) {
      std::printf("run with jitter %.2f did not complete!\n", jitter);
      return 1;
    }

    // Pair each CheckpointRequested with the following CheckpointPacked.
    RunningStats consensus;
    double request_time = -1.0;
    for (const auto& e : r.runtime->trace().events()) {
      if (e.kind == rt::TraceKind::CheckpointRequested) request_time = e.time;
      if (e.kind == rt::TraceKind::CheckpointPacked && request_time >= 0.0) {
        consensus.add(e.time - request_time);
        request_time = -1.0;
      }
    }
    double iter_time = s.finish_time / static_cast<double>(j.iterations);
    table.add_row({TablePrinter::fmt(jitter, 2),
                   std::to_string(consensus.count()),
                   TablePrinter::fmt(consensus.mean() * 1e3, 3),
                   TablePrinter::fmt(consensus.max() * 1e3, 3),
                   TablePrinter::fmt(iter_time * 1e3, 3),
                   TablePrinter::fmt(consensus.mean() / iter_time, 3)});
  }
  table.print();
  std::printf(
      "\nClaim check: the consensus window stays on the order of one "
      "application iteration even as progress skew grows —\ntasks only ever "
      "wait for the slowest task to reach the agreed iteration, not for a "
      "global barrier.\n");
  return 0;
}
