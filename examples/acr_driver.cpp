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
#include <cstdio>
#include <string>

#include "acr/scenario.h"
#include "acr/stats.h"

using namespace acr;

int main(int argc, char** argv) {
  std::string error;
  std::optional<DriverFlags> flags = parse_driver_flags(argc, argv, &error);
  if (!flags) {
    if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const Scenario& scenario = flags->scenario;
  const AcrConfig& ac = scenario.acr;
  // The report describes the run as of its end, so the job is not settled
  // the way run(Scenario) settles it for the verified digest.
  std::unique_ptr<AcrRuntime> job = start(scenario);
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(scenario.max_virtual_time);

  // --- report -----------------------------------------------------------------
  std::printf("app=%s scheme=%s detection=%s nodes/replica=%d\n",
              app_flag_name(scenario.app), scheme_flag_name(ac.scheme),
              detection_flag_name(ac.detection), scenario.nodes_per_replica());
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
  if (scenario.bursts.enabled() || ac.degrade == DegradeMode::Shrink)
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

  if (flags->trace) {
    std::printf("\nprotocol trace:\n");
    for (const auto& e : runtime.trace().events())
      std::printf("  %9.4f  %-24s r=%d n=%d %s\n", e.time,
                  rt::trace_kind_name(e.kind), e.replica, e.node_index,
                  e.detail.c_str());
  }
  return (s.complete || s.drained) ? 0 : 1;
}
