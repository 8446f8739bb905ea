// Adaptive checkpointing for molecular dynamics (§2.2 / Fig. 12).
//
// Runs LeanMD under a decreasing-hazard (Weibull, shape 0.6) failure
// process with ACR's adaptive interval controller enabled, and prints how
// the checkpoint interval tracks the observed failure rate: tight while
// the machine is flaky, relaxed once it settles.
//
// Build & run:  ./build/examples/adaptive_md
#include <cstdio>

#include "acr/scenario.h"
#include "failure/distributions.h"

using namespace acr;

int main() {
  apps::LeanMdConfig md;
  md.atoms_per_task = 48;
  md.num_tasks = 8;
  md.slots_per_node = 2;
  md.iterations = 600;
  md.seconds_per_pair = 2e-6;

  Scenario job;
  job.app = md;
  job.cluster.spare_nodes = 16;

  AcrConfig& ac = job.acr;
  ac.scheme = ResilienceScheme::Strong;
  ac.adaptive = true;
  ac.adaptive_config.checkpoint_cost = 2e-3;
  ac.adaptive_config.min_interval = 0.01;
  ac.adaptive_config.max_interval = 0.5;
  ac.adaptive_config.window = 6;
  ac.heartbeat_period = 0.001;
  ac.heartbeat_timeout = 0.004;

  job.faults.arrivals = std::make_shared<failure::WeibullProcess>(0.6, 0.05);
  job.faults.sdc_fraction = 0.25;  // a quarter of the injected faults are flips
  job.faults.horizon = 0.6;        // the machine eventually settles

  std::unique_ptr<AcrRuntime> started = start(job);
  AcrRuntime& runtime = *started;

  // Sample the controller's interval throughout the run.
  std::vector<std::pair<double, double>> samples;
  std::function<void()> probe = [&] {
    samples.emplace_back(runtime.engine().now(),
                         runtime.manager().current_interval());
    if (!runtime.manager().job_complete())
      runtime.engine().schedule_after(0.25, probe);
  };
  runtime.engine().schedule_after(0.25, probe);

  RunSummary s = runtime.run(600.0);

  std::printf("adaptive_md: complete=%d  virtual time=%.2f s\n", s.complete,
              s.finish_time);
  std::printf("hard failures=%llu  SDC injected=%llu detected=%llu  "
              "checkpoints=%llu  recoveries=%llu\n\n",
              static_cast<unsigned long long>(s.hard_failures),
              static_cast<unsigned long long>(s.sdc_injected),
              static_cast<unsigned long long>(s.sdc_detected),
              static_cast<unsigned long long>(s.checkpoints),
              static_cast<unsigned long long>(s.recoveries));

  std::printf("checkpoint interval over time (controller view):\n");
  for (const auto& [t, interval] : samples)
    std::printf("  t=%6.2f s   interval=%.4f s\n", t, interval);

  if (samples.size() >= 2) {
    double first = samples.front().second;
    double last = samples.back().second;
    std::printf("\ninterval stretched %.2fx as the failure rate decayed "
                "(Weibull shape 0.6, as in Fig. 12)\n",
                last / first);
  }
  return s.complete ? 0 : 1;
}
