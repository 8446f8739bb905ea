// Staged-codec sweep: bytes on the wire with the checkpoint codec off vs
// delta-only vs compress-only vs delta+compress, fault-free, on two apps
// with opposite dirty-chunk behaviour:
//
//  - Jacobi3D with a localized initial impulse (init_fill_fraction):
//    blocks ahead of the update front stay exactly zero, so their 256 KiB
//    chunks are bit-identical across epochs — the delta stage skips them
//    entirely — and the zero runs that do ship compress away. This is the
//    headline ≥30% wire reduction.
//  - LeanMD: every atom moves every step, so every chunk of the packed
//    stream changes between epochs and the delta hit rate collapses to
//    ~0; only compression helps. The codec must degrade gracefully, not
//    pessimize.
//
// Reports buddy wire traffic (codec_wire_bytes vs codec_raw_bytes, hit
// rate = skipped/total chunks), parity-delta traffic of the xor scheme (rs
// with one parity block), and durable-tier flush bytes (encoded vs raw).
// Writes BENCH_delta.json (with the host's core count) for trajectory
// comparison across commits; every byte count in it is deterministic, so
// two builds that encode identically write identical counts. Also prints
// the analytic model's predicted checkpoint-cost scale
// (model::delta_cost_scale) fed with the measured hit rate and compression
// ratio.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "acr/scenario.h"
#include "common/table.h"
#include "model/acr_model.h"

using namespace acr;

namespace {

struct SweepPoint {
  std::string app;
  std::string mode;    // off | delta | lz | delta+lz
  std::string scheme;  // partner | xor (= rs with one parity block)
  RunSummary summary;
  double l2_written = 0.0;
  double l2_raw = 0.0;
};

apps::Jacobi3DConfig jacobi_app() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 1;
  j.tasks_z = 4;
  // One 64^3 task per node: ~2.3 MiB images spanning ~9 digest chunks.
  // A single task per node matters — every task's pup stream leads with
  // its iteration counter, which dirties the chunk it lands in, so tasks
  // must be large enough that one metadata chunk amortizes over many
  // clean lattice chunks.
  j.block_x = j.block_y = j.block_z = 64;
  j.iterations = 40;
  j.slots_per_node = 1;
  j.seconds_per_point = 2e-8;
  // Seed only the first task's layer: the impulse moves one plane per
  // iteration, so it is still 24 planes short of node 2 when the run
  // ends — nodes 2 and 3 stay bitwise clean throughout.
  j.init_fill_fraction = 0.25;
  return j;
}

apps::LeanMdConfig leanmd_app() {
  apps::LeanMdConfig m;
  m.atoms_per_task = 2500;  // ~140 KB/task, 2 tasks/node => multi-chunk
  m.num_tasks = 4;
  m.slots_per_node = 2;
  m.iterations = 6;
  m.seconds_per_pair = 2e-9;
  return m;
}

ckpt::CodecConfig codec_mode(const std::string& mode) {
  ckpt::CodecConfig c;
  if (mode == "delta" || mode == "delta+lz") c.delta = ckpt::DeltaMode::On;
  if (mode == "lz" || mode == "delta+lz") c.compress = ckpt::CompressMode::Lz;
  return c;
}

AcrConfig sweep_acr(const std::string& mode, const std::string& scheme,
                    double checkpoint_interval) {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  if (scheme == "xor") {
    ac.redundancy = ckpt::Scheme::Rs;
    ac.rs_parity = 1;
  }
  ac.checkpoint_interval = checkpoint_interval;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  ac.tier.bandwidth = 1e9;  // L2 on so flush traffic shows codec savings
  ac.tier.flush_interval = 2;
  ac.codec = codec_mode(mode);
  return ac;
}

SweepPoint run_point(const std::string& app_name, const AppConfig& app,
                     const std::string& mode, const std::string& scheme,
                     double checkpoint_interval) {
  Scenario job;
  job.app = app;
  job.acr = sweep_acr(mode, scheme, checkpoint_interval);
  job.cluster.spare_nodes = 0;
  job.cluster.seed = 42;
  job.max_virtual_time = 120.0;
  JobResult r = run(job);
  SweepPoint p;
  p.app = app_name;
  p.mode = mode;
  p.scheme = scheme;
  p.summary = r.summary;
  p.l2_written = r.runtime->tier()->bytes_written();
  p.l2_raw = r.runtime->tier()->bytes_raw_written();
  return p;
}

double hit_rate(const RunSummary& s) {
  if (s.codec_chunks_total == 0) return 0.0;
  return 1.0 - static_cast<double>(s.codec_chunks_shipped) /
                   static_cast<double>(s.codec_chunks_total);
}

double wire_reduction(const RunSummary& s) {
  if (s.codec_raw_bytes == 0) return 0.0;
  return 1.0 - static_cast<double>(s.codec_wire_bytes) /
                   static_cast<double>(s.codec_raw_bytes);
}

}  // namespace

int main() {
  std::printf(
      "Staged-codec sweep: fault-free wire traffic, codec off vs delta "
      "vs lz vs delta+lz\n(hit = fraction of chunks skipped as clean; "
      "red = 1 - wire/raw bytes on the buddy path)\n\n");

  std::vector<SweepPoint> points;
  const double jacobi_ival = 0.002;  // ~12 epochs: deltas amortize the
                                     // mandatory first full frame
  for (const char* mode : {"off", "delta", "lz", "delta+lz"})
    points.push_back(
        run_point("jacobi3d", jacobi_app(), mode, "partner", jacobi_ival));
  for (const char* mode : {"off", "delta+lz"})
    points.push_back(
        run_point("jacobi3d", jacobi_app(), mode, "xor", jacobi_ival));
  points.push_back(
      run_point("leanmd", leanmd_app(), "delta+lz", "partner", 0.002));

  TablePrinter table({"app", "scheme", "mode", "status", "frames", "full",
                      "hit %", "wire MB", "raw MB", "red %", "parity MB",
                      "l2 MB (raw)"});
  for (const SweepPoint& p : points) {
    const RunSummary& s = p.summary;
    char l2buf[64];
    std::snprintf(l2buf, sizeof l2buf, "%.2f (%.2f)", p.l2_written / 1e6,
                  p.l2_raw / 1e6);
    table.add_row(
        {p.app, p.scheme, p.mode, s.complete ? "complete" : "DID NOT FINISH",
         std::to_string(s.codec_frames), std::to_string(s.codec_full_frames),
         TablePrinter::fmt(100.0 * hit_rate(s), 1),
         TablePrinter::fmt(static_cast<double>(s.codec_wire_bytes) / 1e6, 3),
         TablePrinter::fmt(static_cast<double>(s.codec_raw_bytes) / 1e6, 3),
         TablePrinter::fmt(100.0 * wire_reduction(s), 1),
         TablePrinter::fmt(static_cast<double>(s.parity_delta_bytes) / 1e6,
                           3),
         l2buf});
  }
  table.print();

  // Analytic cross-check: feed the measured jacobi delta+lz hit rate and
  // compression ratio into the model's checkpoint-cost scale d' and the
  // re-optimized delta evaluation.
  const SweepPoint& head = points[3];  // jacobi partner delta+lz
  model::DeltaParams dp;
  dp.hit_rate = hit_rate(head.summary);
  dp.compress_ratio =
      head.summary.codec_raw_bytes == 0
          ? 1.0
          : static_cast<double>(head.summary.codec_wire_bytes) /
                static_cast<double>(head.summary.codec_raw_bytes) /
                std::max(1e-9, 1.0 - dp.hit_rate);
  model::SystemParams mp;
  mp.work = points[0].summary.finish_time;
  mp.checkpoint_cost = jacobi_ival / 20.0;
  mp.restart_hard = 0.001;
  mp.restart_sdc = 0.001;
  mp.sockets_per_replica = 8;
  model::AcrModel model(mp);
  model::DeltaEvaluation ev =
      model.evaluate_delta(model::Scheme::Strong, dp);
  std::printf(
      "\nmodel: measured hit %.1f%%, per-shipped-chunk compress ratio "
      "%.3f -> checkpoint-cost scale d'=%.3f, overhead speedup %.3fx\n",
      100.0 * dp.hit_rate, dp.compress_ratio, ev.cost_scale, ev.speedup);

  std::FILE* out = std::fopen("BENCH_delta.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n \"host_cores\": %u,\n \"points\": [\n",
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      const RunSummary& s = p.summary;
      std::fprintf(
          out,
          "  {\"app\": \"%s\", \"scheme\": \"%s\", \"mode\": \"%s\", "
          "\"complete\": %s, \"finish_time\": %.9f, "
          "\"codec_frames\": %llu, \"full_frames\": %llu, "
          "\"chunks_total\": %llu, \"chunks_shipped\": %llu, "
          "\"hit_rate\": %.6f, \"wire_bytes\": %llu, \"raw_bytes\": %llu, "
          "\"wire_reduction\": %.6f, \"need_full\": %llu, "
          "\"parity_delta_bytes\": %llu, \"l2_delta_blobs\": %llu, "
          "\"l2_bytes_written\": %.1f, \"l2_bytes_raw\": %.1f}%s\n",
          p.app.c_str(), p.scheme.c_str(), p.mode.c_str(),
          s.complete ? "true" : "false", s.finish_time,
          static_cast<unsigned long long>(s.codec_frames),
          static_cast<unsigned long long>(s.codec_full_frames),
          static_cast<unsigned long long>(s.codec_chunks_total),
          static_cast<unsigned long long>(s.codec_chunks_shipped),
          hit_rate(s),
          static_cast<unsigned long long>(s.codec_wire_bytes),
          static_cast<unsigned long long>(s.codec_raw_bytes),
          wire_reduction(s),
          static_cast<unsigned long long>(s.codec_need_full),
          static_cast<unsigned long long>(s.parity_delta_bytes),
          static_cast<unsigned long long>(s.l2_delta_blobs), p.l2_written,
          p.l2_raw, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, " ],\n \"model_cost_scale\": %.6f\n}\n",
                 ev.cost_scale);
    std::fclose(out);
    std::printf("wrote BENCH_delta.json\n");
  }

  // The headline acceptance number: delta+lz must cut jacobi buddy wire
  // traffic by at least 30% vs the raw images those frames stand for.
  if (wire_reduction(head.summary) < 0.30) {
    std::printf("\nFAIL: jacobi delta+lz wire reduction %.1f%% < 30%%\n",
                100.0 * wire_reduction(head.summary));
    return 1;
  }
  return 0;
}
