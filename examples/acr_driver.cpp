// acr_driver — configurable command-line front end for the framework.
//
// Runs any of the five mini-apps under any recovery scheme with optional
// fault injection, adaptivity, and prediction, then prints the run summary
// and the trace analytics. This is the "just try it" binary:
//
//   ./build/examples/acr_driver --app=jacobi --scheme=strong --nodes=8
//       --interval=0.004 --fault-mtbf=0.02 --sdc-fraction=0.3
//
//   ./build/examples/acr_driver --app=leanmd --adaptive --weibull-shape=0.6
//
//   ./build/examples/acr_driver --help
#include <cmath>
#include <cstdio>
#include <utility>

#include "acr/runtime.h"
#include "acr/stats.h"
#include "apps/hpccg.h"
#include "checksum/kernels.h"
#include "apps/jacobi3d.h"
#include "apps/leanmd.h"
#include "apps/minilulesh.h"
#include "apps/minimd.h"
#include "common/cli.h"
#include "failure/distributions.h"

using namespace acr;

int main(int argc, char** argv) {
  std::string app = "jacobi";
  std::string scheme = "strong";
  std::string detection = "full";
  std::string ckpt_scheme = "partner";
  std::string ckpt_delta = "off";
  std::string ckpt_compress = "none";
  int xor_group_size = -1;  // sentinel: unset; defaults to 4 under xor/rs
  int rs_parity = -1;       // sentinel: unset; defaults to 2 under rs
  int nodes = 8;
  int spares = 4;
  int iterations = 60;
  double interval = 0.004;
  bool adaptive = false;
  double fault_mtbf = 0.0;
  double sdc_fraction = 0.3;
  double weibull_shape = 0.0;
  double burst_mtbf = 0.0;
  double burst_shape = 0.0;
  double burst_follow = 0.5;
  double burst_window = 0.002;
  int burst_domain = 4;
  double spare_repair_time = 0.0;
  std::string degrade = "abort";
  double predictor_recall = 0.0;
  double net_loss = 0.0;
  double net_dup = 0.0;
  double net_reorder = 0.0;
  double net_corrupt = 0.0;
  int net_retry_budget = 10;
  double l2_bandwidth = 0.0;
  double l2_latency = std::nan("");  // sentinel: unset, take TierConfig default
  int flush_interval = -1;   // sentinel: unset, take the TierConfig default
  double halt_after = 0.0;
  std::string kernel_impl = "auto";
  std::uint64_t seed = 1;
  bool trace = false;

  CliParser cli(
      "acr_driver — run a mini-app under ACR's replication-enhanced "
      "checkpoint/restart on the virtual cluster");
  cli.add_choice("app", &app, {"jacobi", "hpccg", "lulesh", "leanmd", "minimd"},
                 "mini-application to run");
  cli.add_choice("scheme", &scheme, {"strong", "medium", "weak", "hardonly"},
                 "recovery scheme (§2.3)");
  cli.add_choice("detection", &detection, {"full", "checksum"},
                 "SDC detection method (§4.2)");
  cli.add_choice("ckpt-scheme", &ckpt_scheme, {"local", "partner", "xor", "rs"},
                 "checkpoint redundancy: local (in-memory only), partner "
                 "(buddy copy, the paper's §2.1), rs (Reed-Solomon: any "
                 "--rs-parity losses per group), xor (RAID-5 group parity: "
                 "rs with one parity block)");
  cli.add_choice("ckpt-delta", &ckpt_delta, {"off", "on"},
                 "incremental checkpoints: ship only 256 KiB chunks whose "
                 "CRC32C changed since the base epoch (buddy transfer, "
                 "parity exchange, L2 flushes); off = legacy full images");
  cli.add_choice("ckpt-compress", &ckpt_compress, {"none", "lz"},
                 "per-chunk deterministic LZ compression of checkpoint "
                 "traffic (composes with --ckpt-delta)");
  cli.add_int("xor-group-size", &xor_group_size,
              "nodes per xor/rs parity group (>= 2; a trailing remainder of "
              "1 is merged into the previous group; default 4)");
  cli.add_int("rs-parity", &rs_parity,
              "parity blocks per Reed-Solomon stripe: the group survives "
              "that many dead members (>= 1, < the smallest group's size; "
              "default 2; requires --ckpt-scheme=rs)");
  cli.add_int("nodes", &nodes, "nodes per replica");
  cli.add_int("spares", &spares, "spare node pool size");
  cli.add_int("iterations", &iterations, "application iterations");
  cli.add_double("interval", &interval, "checkpoint interval, seconds");
  cli.add_flag("adaptive", &adaptive, "adapt the interval to failures (§2.2)");
  cli.add_double("fault-mtbf", &fault_mtbf,
                 "mean time between injected faults (0 = no injection)");
  cli.add_double("sdc-fraction", &sdc_fraction,
                 "fraction of injected faults that are bit flips");
  cli.add_double("weibull-shape", &weibull_shape,
                 "use a Weibull failure process with this shape (0 = Poisson)");
  cli.add_double("burst-mtbf", &burst_mtbf,
                 "mean time between correlated burst seed failures; seeds "
                 "strike any alive hardware node, spares included (0 = off)");
  cli.add_double("burst-shape", &burst_shape,
                 "Weibull shape of the burst seed process (0 = Poisson)");
  cli.add_double("burst-follow", &burst_follow,
                 "probability each live failure-domain peer of a burst seed "
                 "also fails");
  cli.add_double("burst-window", &burst_window,
                 "follower deaths land within this many seconds of the seed");
  cli.add_int("burst-domain", &burst_domain,
              "hardware nodes per failure domain (one blade/X-line of the "
              "derived torus)");
  cli.add_double("spare-repair-time", &spare_repair_time,
                 "mean node repair time; repaired hardware re-enters the "
                 "spare pool (0 = dead stays dead)");
  cli.add_choice("degrade", &degrade, {"abort", "shrink"},
                 "on spare-pool exhaustion: abort the job, or shrink — "
                 "double the dead role up onto a surviving node and "
                 "un-double when a repair refills the pool");
  cli.add_double("predictor-recall", &predictor_recall,
                 "enable the failure predictor with this recall (0 = off)");
  cli.add_double("net-loss", &net_loss,
                 "per-frame network drop probability [0,1]");
  cli.add_double("net-dup", &net_dup,
                 "per-frame network duplication probability [0,1]");
  cli.add_double("net-reorder", &net_reorder,
                 "per-frame extra-latency (reordering) probability [0,1]");
  cli.add_double("net-corrupt", &net_corrupt,
                 "per-frame in-flight bit-flip probability [0,1]");
  cli.add_int("net-retry-budget", &net_retry_budget,
              "retransmits per frame before a link is declared failed");
  cli.add_double("l2-bandwidth", &l2_bandwidth,
                 "simulated durable-tier (burst buffer) write bandwidth in "
                 "bytes/second; 0 disables the tier entirely");
  cli.add_double("l2-latency", &l2_latency,
                 "per-chunk durable-tier access latency, seconds "
                 "(default 1e-4; requires --l2-bandwidth > 0)");
  cli.add_int("flush-interval", &flush_interval,
              "flush every Nth committed checkpoint epoch to the durable "
              "tier (default 1; requires --l2-bandwidth > 0)");
  cli.add_double("halt-after", &halt_after,
                 "at this virtual time, stop checkpointing, drain the newest "
                 "verified epoch to the durable tier, and exit cleanly "
                 "(0 = run to completion; requires --l2-bandwidth > 0)");
  cli.add_choice("kernel-impl", &kernel_impl, {"auto", "portable", "hw"},
                 "data-plane CRC32C kernel: auto (cpuid), portable "
                 "(slicing-by-8 tables), hw (SSE4.2 crc32q); digests are "
                 "bit-identical either way");
  cli.add_uint64("seed", &seed, "master random seed");
  cli.add_flag("trace", &trace, "print the full protocol event trace");
  if (!cli.parse(argc, argv)) return 2;

  const std::pair<const char*, double> net_rates[] = {
      {"net-loss", net_loss},
      {"net-dup", net_dup},
      {"net-reorder", net_reorder},
      {"net-corrupt", net_corrupt}};
  for (const auto& [name, rate] : net_rates) {
    if (rate < 0.0 || rate > 1.0) {
      std::fprintf(stderr, "error: --%s=%g outside [0, 1]\n", name, rate);
      return 2;
    }
  }
  if (net_retry_budget < 1) {
    std::fprintf(stderr, "error: --net-retry-budget=%d must be >= 1\n",
                 net_retry_budget);
    return 2;
  }
  if (burst_follow < 0.0 || burst_follow > 1.0) {
    std::fprintf(stderr, "error: --burst-follow=%g outside [0, 1]\n",
                 burst_follow);
    return 2;
  }
  if (burst_window < 0.0) {
    std::fprintf(stderr, "error: --burst-window=%g must be >= 0\n",
                 burst_window);
    return 2;
  }
  if (burst_domain < 1) {
    std::fprintf(stderr, "error: --burst-domain=%d must be >= 1\n",
                 burst_domain);
    return 2;
  }
  if (spare_repair_time < 0.0) {
    std::fprintf(stderr, "error: --spare-repair-time=%g must be >= 0\n",
                 spare_repair_time);
    return 2;
  }
  if (kernel_impl == "hw" && !checksum::hw_kernels_available()) {
    std::fprintf(stderr,
                 "error: --kernel-impl=hw but this CPU has no SSE4.2; use "
                 "auto or portable\n");
    return 2;
  }
  if (l2_bandwidth < 0.0) {
    std::fprintf(stderr, "error: --l2-bandwidth=%g must be >= 0 (0 disables)\n",
                 l2_bandwidth);
    return 2;
  }
  if (l2_bandwidth == 0.0) {
    // The tier is off; reject flags that silently depend on it.
    if (!std::isnan(l2_latency)) {
      std::fprintf(stderr,
                   "error: --l2-latency requires --l2-bandwidth > 0 (the "
                   "durable tier is disabled)\n");
      return 2;
    }
    if (flush_interval != -1) {
      std::fprintf(stderr,
                   "error: --flush-interval requires --l2-bandwidth > 0 (the "
                   "durable tier is disabled)\n");
      return 2;
    }
    if (halt_after > 0.0) {
      std::fprintf(stderr,
                   "error: --halt-after drains to the durable tier; it "
                   "requires --l2-bandwidth > 0\n");
      return 2;
    }
  } else {
    if (!std::isnan(l2_latency) && l2_latency < 0.0) {
      std::fprintf(stderr, "error: --l2-latency=%g must be >= 0\n", l2_latency);
      return 2;
    }
    if (flush_interval != -1 && flush_interval < 1) {
      // An explicit 0 used to be swallowed as "unset"; a flush interval of
      // zero epochs is meaningless, so reject it loudly.
      std::fprintf(stderr, "error: --flush-interval=%d must be >= 1\n",
                   flush_interval);
      return 2;
    }
    if (halt_after < 0.0) {
      std::fprintf(stderr, "error: --halt-after=%g must be >= 0\n",
                   halt_after);
      return 2;
    }
  }
  checksum::set_kernel_impl(kernel_impl == "portable"
                                ? checksum::KernelImpl::Portable
                            : kernel_impl == "hw" ? checksum::KernelImpl::Hw
                                                  : checksum::KernelImpl::Auto);
  if (xor_group_size != -1 && ckpt_scheme != "xor" && ckpt_scheme != "rs") {
    std::fprintf(stderr,
                 "error: --xor-group-size only applies to --ckpt-scheme=xor "
                 "or rs (got --ckpt-scheme=%s)\n",
                 ckpt_scheme.c_str());
    return 2;
  }
  if (rs_parity != -1 && ckpt_scheme != "rs") {
    std::fprintf(stderr,
                 "error: --rs-parity only applies to --ckpt-scheme=rs "
                 "(got --ckpt-scheme=%s)\n",
                 ckpt_scheme.c_str());
    return 2;
  }
  // xor is the single-parity spelling of rs: the same RAID-5 rotation.
  if (ckpt_scheme == "xor") {
    ckpt_scheme = "rs";
    rs_parity = 1;
  }
  if (ckpt_scheme == "rs") {
    if (xor_group_size == -1) xor_group_size = 4;
    if (xor_group_size < 2) {
      // An explicit 0 used to be swallowed as "unset" and silently became
      // the default; it now fails like every other undersized group.
      std::fprintf(stderr,
                   "error: --xor-group-size=%d must be >= 2 (a one-node "
                   "group has no parity peers)\n",
                   xor_group_size);
      return 2;
    }
    if (xor_group_size > nodes) {
      std::fprintf(stderr,
                   "error: --xor-group-size=%d exceeds --nodes=%d (a group "
                   "cannot span more nodes than the replica has)\n",
                   xor_group_size, nodes);
      return 2;
    }
    if (rs_parity == -1) rs_parity = 2;
    if (rs_parity < 1) {
      std::fprintf(stderr, "error: --rs-parity=%d must be >= 1\n", rs_parity);
      return 2;
    }
  }

  // --- assemble the configuration -------------------------------------------
  AcrConfig ac;
  ac.scheme = scheme == "strong"   ? ResilienceScheme::Strong
              : scheme == "medium" ? ResilienceScheme::Medium
              : scheme == "weak"   ? ResilienceScheme::Weak
                                   : ResilienceScheme::HardOnly;
  ac.detection = detection == "checksum" ? SdcDetection::Checksum
                                         : SdcDetection::FullCompare;
  ac.checkpoint_interval = interval;
  ac.adaptive = adaptive;
  ac.adaptive_config.checkpoint_cost = interval / 20.0;
  ac.adaptive_config.min_interval = interval / 4.0;
  ac.adaptive_config.max_interval = interval * 8.0;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  ac.redundancy = ckpt_scheme == "local"   ? ckpt::Scheme::Local
                  : ckpt_scheme == "rs"    ? ckpt::Scheme::Rs
                                           : ckpt::Scheme::Partner;
  ac.degrade = degrade == "shrink" ? DegradeMode::Shrink : DegradeMode::Abort;
  ac.codec.delta =
      ckpt_delta == "on" ? ckpt::DeltaMode::On : ckpt::DeltaMode::Off;
  ac.codec.compress =
      ckpt_compress == "lz" ? ckpt::CompressMode::Lz : ckpt::CompressMode::None;
  if (xor_group_size > 0) ac.xor_group_size = xor_group_size;
  if (rs_parity > 0) ac.rs_parity = rs_parity;
  ac.tier.bandwidth = l2_bandwidth;
  if (!std::isnan(l2_latency)) ac.tier.latency = l2_latency;
  if (flush_interval > 0)
    ac.tier.flush_interval = static_cast<std::uint64_t>(flush_interval);
  ac.halt_after = halt_after;
  if (const char* err = validate_tier_config(ac)) {
    std::fprintf(stderr, "error: %s\n", err);
    return 2;
  }
  // Scheme/flag combinations the manager would reject (e.g. rs under a
  // non-strong resilience scheme) become CLI errors instead of aborts.
  if (const char* err = validate_redundancy_config(ac, nodes)) {
    std::fprintf(stderr, "error: %s\n", err);
    return 2;
  }

  rt::ClusterConfig cc;
  cc.nodes_per_replica = nodes;
  cc.spare_nodes = spares;
  cc.seed = seed;
  cc.net_faults.drop_rate = net_loss;
  cc.net_faults.dup_rate = net_dup;
  cc.net_faults.reorder_rate = net_reorder;
  cc.net_faults.corrupt_rate = net_corrupt;
  cc.reliable.retry_budget = net_retry_budget;

  AcrRuntime runtime(ac, cc);

  auto iters = static_cast<std::uint64_t>(iterations);
  if (app == "jacobi") {
    apps::Jacobi3DConfig cfg;
    cfg.tasks_x = cfg.tasks_y = 2;
    cfg.tasks_z = nodes;  // 2 tasks per node, slabs along z
    cfg.block_x = cfg.block_y = cfg.block_z = 4;
    cfg.slots_per_node = 4;
    cfg.iterations = iters;
    cfg.seconds_per_point = 1e-5;
    runtime.set_task_factory(cfg.factory());
  } else if (app == "hpccg") {
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 6;
    cfg.num_tasks = nodes;  // must be a power of two
    cfg.iterations = iters;
    cfg.seconds_per_flop = 1e-7;
    runtime.set_task_factory(cfg.factory());
  } else if (app == "lulesh") {
    apps::MiniLuleshConfig cfg;
    cfg.ex = cfg.ey = cfg.ez = 5;
    cfg.num_tasks = nodes;
    cfg.iterations = iters;
    cfg.seconds_per_element = 2e-5;
    runtime.set_task_factory(cfg.factory());
  } else if (app == "leanmd") {
    apps::LeanMdConfig cfg;
    cfg.atoms_per_task = 32;
    cfg.num_tasks = 2 * nodes;
    cfg.slots_per_node = 2;
    cfg.iterations = iters;
    cfg.seconds_per_pair = 1e-5;
    runtime.set_task_factory(cfg.factory());
  } else {
    apps::MiniMdConfig cfg;
    cfg.atoms_per_task = 32;
    cfg.num_tasks = nodes;
    cfg.iterations = iters;
    cfg.seconds_per_pair = 1e-5;
    runtime.set_task_factory(cfg.factory());
  }

  runtime.setup();

  if (predictor_recall > 0.0) {
    PredictorConfig pred;
    pred.recall = predictor_recall;
    pred.precision = 0.8;
    pred.lead_time = interval / 4.0;
    runtime.set_predictor(pred);
  }
  if (fault_mtbf > 0.0) {
    FaultPlan plan;
    if (weibull_shape > 0.0) {
      plan.arrivals = std::make_shared<failure::WeibullProcess>(
          weibull_shape, fault_mtbf);
    } else {
      plan.arrivals = std::make_shared<failure::RenewalProcess>(
          std::make_shared<failure::Exponential>(fault_mtbf));
    }
    plan.sdc_fraction = sdc_fraction;
    runtime.set_fault_plan(plan);
  }
  if (burst_mtbf > 0.0) {
    failure::BurstConfig bc;
    bc.seed_mtbf = burst_mtbf;
    bc.weibull_shape = burst_shape;
    bc.follow_prob = burst_follow;
    bc.window = burst_window;
    bc.domain_size = burst_domain;
    bc.repair_mean = spare_repair_time;
    runtime.set_burst_plan(bc);
  }

  RunSummary s = runtime.run(/*max_virtual_time=*/600.0);

  // --- report -----------------------------------------------------------------
  std::printf("app=%s scheme=%s detection=%s nodes/replica=%d\n", app.c_str(),
              scheme.c_str(), detection.c_str(), nodes);
  std::printf("outcome: %s at t=%.4f s (virtual)\n",
              s.complete ? "COMPLETE"
              : s.failed ? "FAILED"
              : s.drained ? "DRAINED"
                          : "TIMED OUT",
              s.finish_time);
  std::printf(
      "checkpoints=%llu  hard failures=%llu  recoveries=%llu  "
      "SDC injected/detected=%llu/%llu  scratch restarts=%llu\n",
      static_cast<unsigned long long>(s.checkpoints),
      static_cast<unsigned long long>(s.hard_failures),
      static_cast<unsigned long long>(s.recoveries),
      static_cast<unsigned long long>(s.sdc_injected),
      static_cast<unsigned long long>(s.sdc_detected),
      static_cast<unsigned long long>(s.scratch_restarts));
  // Only printed when network fault injection is on: keeps the clean-network
  // output byte-identical to builds that predate the reliable transport.
  if (runtime.cluster().net_faults_enabled())
    std::printf(
        "network: frames=%llu dropped=%llu duplicated=%llu corrupted=%llu  "
        "retransmits=%llu crc drops=%llu stale-epoch drops=%llu  "
        "link failures=%llu\n",
        static_cast<unsigned long long>(s.net_frames),
        static_cast<unsigned long long>(s.net_drops),
        static_cast<unsigned long long>(s.net_duplicates),
        static_cast<unsigned long long>(s.net_corruptions),
        static_cast<unsigned long long>(s.net_retransmits),
        static_cast<unsigned long long>(s.net_crc_drops),
        static_cast<unsigned long long>(s.net_stale_epoch_drops),
        static_cast<unsigned long long>(s.net_link_failures));
  // Only printed when the burst/spare lifecycle is exercised: keeps output
  // from runs without it byte-identical to builds that predate the feature.
  if (burst_mtbf > 0.0 || ac.degrade == DegradeMode::Shrink)
    std::printf(
        "spare pool: bursts=%llu killed=%llu  promotions=%llu failures=%llu "
        "repairs=%llu low-water=%d  doubled=%llu undoubled=%llu\n",
        static_cast<unsigned long long>(s.burst_seeds),
        static_cast<unsigned long long>(s.burst_node_kills),
        static_cast<unsigned long long>(s.spare_promotions),
        static_cast<unsigned long long>(s.spare_failures),
        static_cast<unsigned long long>(s.spare_repairs), s.spare_low_water,
        static_cast<unsigned long long>(s.roles_doubled),
        static_cast<unsigned long long>(s.roles_undoubled));
  // Only printed when the durable tier is enabled: keeps single-tier output
  // byte-identical to builds that predate the tier.
  if (ac.tier.enabled())
    std::printf(
        "durable tier: flushes=%llu bytes=%llu fetches=%llu waves=%llu "
        "scavenges=%llu newest-durable=%llu\n",
        static_cast<unsigned long long>(s.l2_flushes),
        static_cast<unsigned long long>(s.l2_flush_bytes),
        static_cast<unsigned long long>(s.l2_fetches),
        static_cast<unsigned long long>(s.l2_fetch_waves),
        static_cast<unsigned long long>(s.l2_scavenges),
        static_cast<unsigned long long>(s.l2_newest_durable));
  // Only printed for non-default redundancy: keeps partner output
  // byte-identical to builds that predate the pluggable ckpt layer.
  if (ac.redundancy != ckpt::Scheme::Partner) {
    std::printf("redundancy: scheme=%s", s.ckpt_scheme);
    if (ac.redundancy == ckpt::Scheme::Rs)
      std::printf(
          " group-size=%d parity=%d  encode chunks=%llu bytes=%llu  "
          "rebuild pieces=%llu bytes=%llu  rebuilds=%llu rejected=%llu",
          ac.xor_group_size, ac.rs_parity,
          static_cast<unsigned long long>(s.parity_chunks_sent),
          static_cast<unsigned long long>(s.parity_bytes_sent),
          static_cast<unsigned long long>(s.parity_rebuild_pieces),
          static_cast<unsigned long long>(s.parity_rebuild_bytes),
          static_cast<unsigned long long>(s.xor_rebuilds),
          static_cast<unsigned long long>(s.parity_rebuilds_rejected));
    std::printf("\n");
  }
  // Only printed when a codec stage is on: keeps codec-off output
  // byte-identical to builds that predate the staged pipeline.
  if (ac.codec.enabled()) {
    std::printf(
        "codec: delta=%s compress=%s  frames=%llu full=%llu  "
        "chunks=%llu/%llu  bytes wire/raw=%llu/%llu  need-full=%llu\n",
        ckpt::delta_mode_name(ac.codec.delta),
        ckpt::compress_mode_name(ac.codec.compress),
        static_cast<unsigned long long>(s.codec_frames),
        static_cast<unsigned long long>(s.codec_full_frames),
        static_cast<unsigned long long>(s.codec_chunks_shipped),
        static_cast<unsigned long long>(s.codec_chunks_total),
        static_cast<unsigned long long>(s.codec_wire_bytes),
        static_cast<unsigned long long>(s.codec_raw_bytes),
        static_cast<unsigned long long>(s.codec_need_full));
    if (ac.redundancy == ckpt::Scheme::Rs)
      std::printf("codec rs: delta chunks=%llu bytes=%llu poisoned=%llu\n",
                  static_cast<unsigned long long>(s.parity_delta_chunks),
                  static_cast<unsigned long long>(s.parity_delta_bytes),
                  static_cast<unsigned long long>(s.parity_rounds_poisoned));
    if (ac.tier.enabled())
      std::printf("codec l2: delta blobs=%llu\n",
                  static_cast<unsigned long long>(s.l2_delta_blobs));
  }

  TraceSummary ts = summarize_trace(runtime.trace());
  RunningStats consensus = ts.consensus_latency_stats();
  RunningStats commit = ts.commit_latency_stats();
  RunningStats recovery = ts.recovery_duration_stats();
  if (consensus.count() > 0)
    std::printf("checkpoint consensus latency: mean %.4f ms, max %.4f ms\n",
                consensus.mean() * 1e3, consensus.max() * 1e3);
  if (commit.count() > 0)
    std::printf("checkpoint request->commit:   mean %.4f ms  (%.2f%% of run)\n",
                commit.mean() * 1e3, ts.checkpoint_time_fraction() * 100.0);
  if (recovery.count() > 0)
    std::printf("recovery duration:            mean %.4f ms, max %.4f ms\n",
                recovery.mean() * 1e3, recovery.max() * 1e3);
  if (ts.failures_detected > 0)
    std::printf("failure detection latency:    mean %.4f ms\n",
                ts.mean_detection_latency * 1e3);

  if (trace) {
    std::printf("\nprotocol trace:\n");
    for (const auto& e : runtime.trace().events())
      std::printf("  %9.4f  %-24s r=%d n=%d %s\n", e.time,
                  rt::trace_kind_name(e.kind), e.replica, e.node_index,
                  e.detail.c_str());
  }
  return (s.complete || s.drained) ? 0 : 1;
}
