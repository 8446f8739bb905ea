// Durable-tier sweep (fig8-style, simulator-backed): a deterministic
// buddy-pair loss — unrecoverable at L1 under partner redundancy — served
// either by a scratch restart (tier off) or by an L2 fetch, across L2
// bandwidths and flush intervals. Reports completion time, the recovery
// path taken, and flush traffic, and writes the table to BENCH_tiers.json
// for trajectory comparison across commits. The analytic tier model's
// prediction (model::evaluate_tiered) is printed alongside the simulated
// speedup.
#include <cstdio>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "common/table.h"
#include "model/acr_model.h"

using namespace acr;

namespace {

struct SweepPoint {
  std::string label;
  double bandwidth = 0.0;
  std::uint64_t flush_interval = 1;
  RunSummary summary;
  double fault_free_time = 0.0;
};

apps::Jacobi3DConfig sweep_app() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = j.block_z = 8;
  j.iterations = 60;
  j.slots_per_node = 2;
  j.seconds_per_point = 1e-5;
  return j;
}

AcrConfig sweep_acr(double bandwidth, std::uint64_t flush_interval) {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Partner;
  ac.checkpoint_interval = 0.01;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  ac.tier.bandwidth = bandwidth;
  ac.tier.flush_interval = flush_interval;
  return ac;
}

RunSummary run_point(double bandwidth, std::uint64_t flush_interval,
                     bool kill_pair, double kill_at) {
  apps::Jacobi3DConfig j = sweep_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 4;
  cc.seed = 42;
  AcrRuntime runtime(sweep_acr(bandwidth, flush_interval), cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  if (kill_pair) {
    runtime.inject(failure::Fault::kill_role(kill_at, 0, 4));
    runtime.inject(failure::Fault::kill_role(kill_at, 1, 4));
  }
  return runtime.run(120.0);
}

}  // namespace

int main() {
  std::printf(
      "Durable-tier sweep: buddy-pair loss mid-run (L1-unrecoverable "
      "under partner redundancy)\nscratch restart vs L2 fetch across "
      "bandwidth and flush interval\n\n");

  double fault_free = run_point(0.0, 1, false, 0.0).finish_time;
  double kill_at = fault_free * 0.5;

  std::vector<SweepPoint> points;
  {
    SweepPoint p;
    p.label = "scratch (no tier)";
    p.summary = run_point(0.0, 1, true, kill_at);
    p.fault_free_time = fault_free;
    points.push_back(p);
  }
  for (double bw : {1e8, 1e9}) {
    for (std::uint64_t fi : {std::uint64_t{1}, std::uint64_t{4}}) {
      SweepPoint p;
      char buf[64];
      std::snprintf(buf, sizeof buf, "bw=%.0e ival=%llu", bw,
                    static_cast<unsigned long long>(fi));
      p.label = buf;
      p.bandwidth = bw;
      p.flush_interval = fi;
      p.summary = run_point(bw, fi, true, kill_at);
      p.fault_free_time = fault_free;
      points.push_back(p);
    }
  }

  TablePrinter table({"config", "status", "time s", "overhead s", "waves",
                      "fetches", "scratch", "flush MB", "durable epoch"});
  for (const SweepPoint& p : points) {
    const RunSummary& s = p.summary;
    table.add_row(
        {p.label, s.complete ? "complete" : "DID NOT FINISH",
         TablePrinter::fmt(s.finish_time),
         TablePrinter::fmt(s.finish_time - fault_free),
         std::to_string(s.l2_fetch_waves), std::to_string(s.l2_fetches),
         std::to_string(s.scratch_restarts),
         TablePrinter::fmt(static_cast<double>(s.l2_flush_bytes) / 1e6, 3),
         std::to_string(s.l2_newest_durable)});
  }
  table.print();

  // Analytic cross-check: the tiered model's predicted speedup for one
  // catastrophic event per run at these settings.
  model::SystemParams mp;
  mp.work = fault_free;
  mp.checkpoint_cost = 0.01 / 20.0;
  mp.restart_hard = 0.001;
  mp.restart_sdc = 0.001;
  mp.sockets_per_replica = 8;
  model::AcrModel model(mp);
  model::TierParams tp;
  tp.flush_interval = 1;
  tp.fetch_cost = 0.001;
  tp.catastrophic_mtbf = fault_free;  // ~one event per run
  model::TieredEvaluation ev =
      model.evaluate_tiered(model::Scheme::Strong, tp, 0.01);
  std::printf(
      "\nmodel: flush lag %.4f s, per-event tier rework %.4f s, "
      "fetch-vs-scratch speedup %.2fx\n",
      ev.flush_lag, ev.rework_catastrophic, ev.speedup);

  std::FILE* out = std::fopen("BENCH_tiers.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n \"fault_free_time\": %.9f,\n \"points\": [\n",
                 fault_free);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      const RunSummary& s = p.summary;
      std::fprintf(
          out,
          "  {\"config\": \"%s\", \"bandwidth\": %.1f, "
          "\"flush_interval\": %llu, \"complete\": %s, "
          "\"finish_time\": %.9f, \"fetch_waves\": %llu, "
          "\"fetches\": %llu, \"scratch_restarts\": %llu, "
          "\"flush_bytes\": %llu, \"newest_durable\": %llu}%s\n",
          p.label.c_str(), p.bandwidth,
          static_cast<unsigned long long>(p.flush_interval),
          s.complete ? "true" : "false", s.finish_time,
          static_cast<unsigned long long>(s.l2_fetch_waves),
          static_cast<unsigned long long>(s.l2_fetches),
          static_cast<unsigned long long>(s.scratch_restarts),
          static_cast<unsigned long long>(s.l2_flush_bytes),
          static_cast<unsigned long long>(s.l2_newest_durable),
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, " ],\n \"model_speedup\": %.6f\n}\n", ev.speedup);
    std::fclose(out);
    std::printf("wrote BENCH_tiers.json\n");
  }
  return 0;
}
