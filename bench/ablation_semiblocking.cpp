// Ablation (§4.2 future work, implemented): semi-blocking checkpointing.
//
// "Another way to reduce network congestion is to use asynchronous
// checkpointing that overlaps the checkpoint transmission with application
// execution. We leave implementation and analysis of this aspect for
// future work." — this bench provides that analysis on the virtual
// cluster: identical jobs with blocking vs semi-blocking checkpoints,
// sweeping the modelled transfer/compare cost.
#include <cstdio>

#include "acr/scenario.h"
#include "acr/stats.h"
#include "common/table.h"

using namespace acr;

namespace {

struct Result {
  double total_time = 0.0;
  double ckpt_fraction = 0.0;
  std::uint64_t checkpoints = 0;
  bool ok = false;
};

Result run_case(bool semi_blocking, double compare_bw, double link_bw) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = j.tasks_z = 2;
  j.block_x = j.block_y = j.block_z = 8;
  j.iterations = 60;
  j.slots_per_node = 2;
  j.seconds_per_point = 2e-6;

  Scenario job;
  job.app = j;
  job.acr.checkpoint_interval = 0.002;
  job.acr.heartbeat_period = 0.0005;
  job.acr.heartbeat_timeout = 0.002;
  job.acr.semi_blocking = semi_blocking;
  job.cluster.spare_nodes = 1;
  job.cluster.net.compare_bandwidth = compare_bw;
  job.cluster.net.link_bandwidth = link_bw;
  job.max_virtual_time = 100.0;

  JobResult done = run(job);
  const RunSummary& s = done.summary;
  Result r;
  r.ok = s.complete;
  r.total_time = s.finish_time;
  r.checkpoints = s.checkpoints;
  r.ckpt_fraction =
      summarize_trace(done.runtime->trace()).checkpoint_time_fraction();
  return r;
}

}  // namespace

int main() {
  std::printf("Semi-blocking checkpointing ablation (§4.2 future work)\n\n");
  // Note: "req->commit" measures the checkpoint pipeline duration; in
  // semi-blocking mode the application executes *under* most of it, so it
  // no longer represents a stall.
  TablePrinter table({"compare/link BW (MB/s)", "blocking (s)",
                      "semi-blocking (s)", "speedup", "req->commit (blk)",
                      "req->commit (semi)"});
  struct Case {
    double compare_bw, link_bw;
  };
  for (Case c : {Case{250e6, 425e6}, Case{25e6, 80e6}, Case{5e6, 20e6}}) {
    Result blocking = run_case(false, c.compare_bw, c.link_bw);
    Result semi = run_case(true, c.compare_bw, c.link_bw);
    if (!blocking.ok || !semi.ok) {
      std::printf("a configuration did not complete!\n");
      return 1;
    }
    table.add_row({TablePrinter::fmt(c.compare_bw / 1e6, 3) + "/" +
                       TablePrinter::fmt(c.link_bw / 1e6, 3),
                   TablePrinter::fmt(blocking.total_time, 4),
                   TablePrinter::fmt(semi.total_time, 4),
                   TablePrinter::fmt(blocking.total_time / semi.total_time, 3),
                   TablePrinter::fmt(blocking.ckpt_fraction * 100, 3) + "%",
                   TablePrinter::fmt(semi.ckpt_fraction * 100, 3) + "%"});
  }
  table.print();
  std::printf(
      "\nClaim check: the slower the transfer/compare path, the more the "
      "overlap buys; with BG/P-like rates the\ncheckpoint stall is already "
      "small, which is why the paper could defer this optimization.\n");
  return 0;
}
