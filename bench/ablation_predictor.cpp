// Ablation (§2.2): value of online failure prediction.
//
// The paper cites Lan et al.'s meta-learning predictor and argues that
// "checkpointing right before a potential failure occurs can help increase
// the mean time between failures visible to applications". This bench
// quantifies that claim two ways:
//   1. the analytic model — expected overhead change per unit time as a
//      function of recall and precision;
//   2. a live end-to-end run on the virtual cluster, measuring total time
//      with the predictor off vs on.
#include <cstdio>

#include "acr/scenario.h"
#include "common/table.h"
#include "failure/distributions.h"

using namespace acr;

namespace {

RunSummary live_run(bool with_predictor, double recall, std::uint64_t seed) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 120;
  j.slots_per_node = 2;
  j.seconds_per_point = 1e-5;
  Scenario job;
  job.app = j;
  job.acr.scheme = ResilienceScheme::Strong;
  job.acr.checkpoint_interval = 0.02;  // sparse: rework dominates
  job.acr.heartbeat_period = 0.0005;
  job.acr.heartbeat_timeout = 0.002;
  job.cluster.spare_nodes = 24;
  job.cluster.seed = seed;
  if (with_predictor) {
    PredictorConfig pred;
    pred.recall = recall;
    pred.precision = 0.8;
    pred.lead_time = 0.001;
    job.predictor = pred;
  }
  job.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.02));
  job.faults.sdc_fraction = 0.0;
  job.max_virtual_time = 60.0;
  return run(job).summary;
}

}  // namespace

int main() {
  std::printf("Failure-prediction ablation (§2.2)\n\n");

  std::printf("Analytic model: overhead delta per hour (negative = win), "
              "tau = 120 s, MTBF = 1200 s, delta_ckpt = 1 s\n");
  TablePrinter model({"recall", "precision 0.95", "precision 0.5",
                      "precision 0.1"});
  for (double recall : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    std::vector<std::string> row{TablePrinter::fmt(recall, 2)};
    for (double precision : {0.95, 0.5, 0.1}) {
      PredictorConfig cfg;
      cfg.recall = recall;
      cfg.precision = precision;
      double delta =
          prediction_overhead_delta(cfg, 120.0, 1200.0, 1.0) * 3600.0;
      row.push_back(TablePrinter::fmt(delta, 3));
    }
    model.add_row(row);
  }
  model.print();

  std::printf("\nLive runs (virtual cluster, Jacobi3D, mean over 5 seeds):\n");
  TablePrinter live({"configuration", "mean total time (s)",
                     "mean failures", "completed"});
  for (int mode = 0; mode < 3; ++mode) {
    double total = 0.0, failures = 0.0;
    int completed = 0;
    const int kSeeds = 5;
    for (int s = 0; s < kSeeds; ++s) {
      RunSummary r =
          live_run(mode > 0, mode == 1 ? 0.5 : 1.0, 900 + s * 13);
      if (r.complete) {
        ++completed;
        total += r.finish_time;
        failures += static_cast<double>(r.hard_failures);
      }
    }
    const char* name = mode == 0   ? "no predictor"
                       : mode == 1 ? "predictor recall=0.5"
                                   : "predictor recall=1.0";
    live.add_row({name,
                  completed ? TablePrinter::fmt(total / completed, 4) : "-",
                  completed ? TablePrinter::fmt(failures / completed, 3) : "-",
                  std::to_string(completed) + "/" + std::to_string(kSeeds)});
  }
  live.print();
  std::printf(
      "\nClaim check: with cheap checkpoints the win scales with recall; "
      "low precision erodes it through false-alarm checkpoints.\n");
  return 0;
}
