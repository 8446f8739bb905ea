// Reed–Solomon survivability sweep (fig8-style, simulator-backed): a
// deterministic burst killing f members of one parity group mid-run,
// across Reed–Solomon parity count (rs(1) is --ckpt-scheme=xor), group
// size, and burst severity f. No durable tier anywhere: every loss the
// scheme cannot rebuild in place is a visible scratch restart. Reports
// completion time, the recovery path taken, and the encode/rebuild wire
// traffic split, and writes the table to BENCH_rs.json for trajectory
// comparison across commits.
#include <cstdio>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "ckpt/group.h"
#include "common/table.h"

using namespace acr;

namespace {

struct SweepPoint {
  std::string scheme;  ///< "rs(m)"
  int group_size = 0;
  int parity = 0;
  int kills = 0;   ///< burst severity: dead members of group 0
  RunSummary summary;
  double fault_free_time = 0.0;
};

apps::Jacobi3DConfig sweep_app() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = j.block_z = 8;
  j.iterations = 60;
  j.slots_per_node = 2;  // 8 nodes per replica
  j.seconds_per_point = 1e-5;
  return j;
}

AcrConfig sweep_acr(int group_size, int parity) {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Rs;
  ac.xor_group_size = group_size;
  ac.rs_parity = parity;
  ac.checkpoint_interval = 0.01;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  return ac;
}

RunSummary run_point(int group_size, int parity, int kills, double kill_at) {
  apps::Jacobi3DConfig j = sweep_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 42;
  AcrRuntime runtime(sweep_acr(group_size, parity), cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  // Near-simultaneous deaths inside group 0 of replica 0: the second and
  // later victims fall while the first rebuild is still in flight.
  for (int i = 0; i < kills; ++i)
    runtime.inject(failure::Fault::kill_role(kill_at + 1e-5 * i, 0, i));
  return runtime.run(120.0);
}

}  // namespace

int main() {
  std::printf(
      "Reed-Solomon survivability sweep: f near-simultaneous deaths in one "
      "parity group,\nno durable tier (every non-rebuildable loss is a "
      "scratch restart)\n\n");

  struct SchemeSpec {
    const char* name;
    int parity;
  };
  const SchemeSpec schemes[] = {{"rs(1)", 1}, {"rs(2)", 2}, {"rs(3)", 3}};
  std::vector<SweepPoint> points;
  for (int group_size : {4, 8}) {
    for (const SchemeSpec& sp : schemes) {
      if (sp.parity >= group_size) continue;
      double fault_free =
          run_point(group_size, sp.parity, 0, 0.0).finish_time;
      for (int kills : {1, 2, 3}) {
        SweepPoint p;
        p.scheme = sp.name;
        p.group_size = group_size;
        p.parity = sp.parity;
        p.kills = kills;
        p.fault_free_time = fault_free;
        p.summary = run_point(group_size, sp.parity, kills,
                              fault_free * 0.5);
        points.push_back(p);
      }
    }
  }

  TablePrinter table({"scheme", "group", "f", "status", "time s",
                      "overhead s", "rebuilds", "scratch", "encode MB",
                      "rebuild MB", "rejected"});
  for (const SweepPoint& p : points) {
    const RunSummary& s = p.summary;
    table.add_row(
        {p.scheme, std::to_string(p.group_size), std::to_string(p.kills),
         s.complete ? "complete" : "DID NOT FINISH",
         TablePrinter::fmt(s.finish_time),
         TablePrinter::fmt(s.finish_time - p.fault_free_time),
         std::to_string(s.xor_rebuilds), std::to_string(s.scratch_restarts),
         TablePrinter::fmt(static_cast<double>(s.parity_bytes_sent) / 1e6, 3),
         TablePrinter::fmt(static_cast<double>(s.parity_rebuild_bytes) / 1e6,
                           3),
         std::to_string(s.parity_rebuilds_rejected)});
  }
  table.print();

  std::FILE* out = std::fopen("BENCH_rs.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      const RunSummary& s = p.summary;
      std::fprintf(
          out,
          "  {\"scheme\": \"%s\", \"group_size\": %d, \"parity\": %d, "
          "\"kills\": %d, \"complete\": %s, \"finish_time\": %.9f, "
          "\"fault_free_time\": %.9f, \"rebuilds\": %llu, "
          "\"scratch_restarts\": %llu, \"encode_bytes\": %llu, "
          "\"rebuild_pieces\": %llu, \"rebuild_bytes\": %llu, "
          "\"rebuilds_rejected\": %llu}%s\n",
          p.scheme.c_str(), p.group_size, p.parity, p.kills,
          s.complete ? "true" : "false", s.finish_time, p.fault_free_time,
          static_cast<unsigned long long>(s.xor_rebuilds),
          static_cast<unsigned long long>(s.scratch_restarts),
          static_cast<unsigned long long>(s.parity_bytes_sent),
          static_cast<unsigned long long>(s.parity_rebuild_pieces),
          static_cast<unsigned long long>(s.parity_rebuild_bytes),
          static_cast<unsigned long long>(s.parity_rebuilds_rejected),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, " ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_rs.json\n");
  }
  return 0;
}
