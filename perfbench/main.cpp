// acr_perfbench — one simulated ACR job per invocation, measured end to end.
//
//   acr_perfbench job --workload halo-1k --seed 3 [--traced] [--fault-free]
//       Set up and run one job, check its answer, print one JSON line.
//   acr_perfbench smoke
//       Miniatures of every workload: digest check, caps, and traced vs
//       untraced equality, in well under a second. Exit 1 on any failure.
//   acr_perfbench calibrate [--seed 1]
//       Print each workload's fault-free finish time and digest, the
//       constants workloads.cpp pins.
//
// perfbench/run.py builds this binary and turns its job lines into the
// benchmark's metrics. The load is closed-loop: one job at a time, one
// thread. Engine lanes (1) and kernel threads (0) are pinned and the CRC
// kernel is dispatched by cpuid, so ACR_ENGINE_LANES / ACR_KERNEL_* on the
// host cannot change the program being measured.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "acr/runtime.h"
#include "checksum/fletcher.h"
#include "checksum/kernels.h"
#include "parallel/pool.h"
#include "tracing.h"
#include "workloads.h"

#ifndef ACR_PERFBENCH_BUILD_TYPE
#define ACR_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace acr;
using perfbench::Layer;
using perfbench::Tracer;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Caps {
  /// Virtual-time cap as a multiple of the nominal fault-free finish.
  double virtual_multiple = 4.0;
  /// Wall-clock cap on the run itself, seconds.
  double wall_s = 60.0;
};

struct JobResult {
  RunSummary summary;
  bool wedged = false;  ///< stopped by the wall-clock cap
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t trace_events = 0;
  Tracer tracer;
  /// Declared after the tracer, which its compute continuations hold.
  std::unique_ptr<AcrRuntime> runtime;

  bool complete() const { return summary.complete && !wedged; }
};

/// Fletcher-64 over the newest verified image of every node index, taken
/// from whichever replica holds the higher epoch: the job's answer.
std::uint64_t verified_digest(AcrRuntime& runtime) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    f.append((a.verified_epoch() >= b.verified_epoch() ? a : b).verified_image());
  }
  return f.digest();
}

bool done(AcrRuntime& runtime) {
  Manager& m = runtime.manager();
  return m.job_complete() || m.job_failed() || m.job_drained();
}

/// Untraced: AcrRuntime::run in virtual-time slices, so the wall cap can be
/// checked between them. The slices execute exactly the events one run()
/// call would.
RunSummary run_sliced(AcrRuntime& runtime, double vcap, double slice,
                      double wall_cap, JobResult& r) {
  Clock::time_point t0 = Clock::now();
  RunSummary s;
  for (double t = slice;; t += slice) {
    s = runtime.run(std::min(t, vcap));
    if (done(runtime) || runtime.engine().now() >= vcap || t >= vcap) break;
    if (seconds_since(t0) > wall_cap) {
      r.wedged = true;
      break;
    }
  }
  r.wall_s = seconds_since(t0);
  return s;
}

/// Traced: step the engine in the benchmark's own loop under run()'s stop
/// condition, then let run() (which finds nothing left to do) collect the
/// summary.
RunSummary run_stepped(AcrRuntime& runtime, double vcap, double wall_cap,
                       JobResult& r) {
  rt::Engine& engine = runtime.engine();
  Clock::time_point t0 = Clock::now();
  std::uint64_t steps = 0;
  while (engine.now() < vcap && !done(runtime)) {
    if (!engine.step()) break;
    r.pending_peak = std::max<std::uint64_t>(r.pending_peak, engine.pending());
    if ((steps++ & 0xFFF) == 0 && seconds_since(t0) > wall_cap) {
      r.wedged = true;
      break;
    }
  }
  RunSummary s = runtime.run(engine.now());
  r.wall_s = seconds_since(t0);
  return s;
}

void run_job(const Workload& w, std::uint64_t seed, bool traced,
             const Caps& caps, JobResult& r) {
  rt::ClusterConfig cc = w.cluster;
  cc.seed = seed;

  Clock::time_point t0 = Clock::now();
  r.runtime = std::make_unique<AcrRuntime>(w.acr, cc);
  AcrRuntime* runtime = r.runtime.get();
  runtime->set_task_factory(traced ? perfbench::traced_factory(w.app.factory(), r.tracer)
                                   : w.app.factory());
  runtime->setup();
  r.setup_s = seconds_since(t0);
  if (w.faults) perfbench::schedule_faults(*runtime, w, seed);

  const bool capped = w.nominal_finish > 0.0;
  const double vcap = capped ? caps.virtual_multiple * w.nominal_finish : 1e3;
  const double slice = capped ? w.nominal_finish / 32.0 : vcap;
  r.summary = traced ? run_stepped(*runtime, vcap, caps.wall_s, r)
                     : run_sliced(*runtime, vcap, slice, caps.wall_s, r);
  r.events = runtime->engine().events_processed();
  r.trace_events = runtime->trace().events().size();
  if (r.complete()) {
    // Let the final commit's messages land before reading the answer.
    runtime->engine().run_until(r.summary.finish_time + 0.002);
    r.digest = verified_digest(*runtime);
  }
}

std::string fingerprint(const JobResult& r) {
  const RunSummary& s = r.summary;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "finish=%.17g ckpt=%" PRIu64 " rec=%" PRIu64 " hard=%" PRIu64
                " sdc=%" PRIu64 " scratch=%" PRIu64 " events=%" PRIu64
                " wire=%" PRIu64 " parity=%" PRIu64 " rebuild=%" PRIu64
                " flush=%" PRIu64 " frames=%" PRIu64 " retx=%" PRIu64,
                s.finish_time, s.checkpoints, s.recoveries, s.hard_failures,
                s.sdc_detected, s.scratch_restarts, r.events, s.codec_wire_bytes,
                s.parity_bytes_sent, s.parity_rebuild_bytes, s.l2_flush_bytes,
                s.net_frames, s.net_retransmits);
  return buf;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void print_job(const Workload& w, std::uint64_t seed, bool traced,
               const JobResult& r) {
  const RunSummary& s = r.summary;
  bool digest_ok = r.complete() && (w.digest == 0 || r.digest == w.digest);
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s",
              w.name.c_str(), seed, traced ? "true" : "false");
  std::printf(", \"complete\": %s, \"wedged\": %s, \"digest_ok\": %s",
              r.complete() ? "true" : "false", r.wedged ? "true" : "false",
              digest_ok ? "true" : "false");
  std::printf(", \"digest\": \"%016" PRIx64 "\", \"fingerprint\": \"%s\"",
              r.digest, fingerprint(r).c_str());
  std::printf(", \"fault_free\": %s, \"nodes_per_replica\": %d"
              ", \"iterations\": %" PRIu64,
              !w.faults && !w.cluster.net_faults.enabled() ? "true" : "false",
              w.nodes_per_replica(), w.iterations());
  std::printf(", \"setup_s\": %.9f, \"wall_s\": %.9f, \"peak_rss_kb\": %ld",
              r.setup_s, r.wall_s, peak_rss_kb());

  double chunks = static_cast<double>(s.codec_chunks_total);
  double frames = static_cast<double>(s.net_frames);
  std::printf(", \"counts\": {");
  std::printf("\"rt.events\": %" PRIu64 ", \"rt.trace_events\": %" PRIu64,
              r.events, r.trace_events);
  std::printf(", \"sim.virtual_s\": %.17g", s.finish_time);
  std::printf(", \"acr.checkpoints\": %" PRIu64 ", \"acr.recoveries\": %" PRIu64
              ", \"acr.hard_failures\": %" PRIu64 ", \"acr.sdc_detected\": %" PRIu64
              ", \"acr.scratch_restarts\": %" PRIu64
              ", \"acr.l2_fetch_waves\": %" PRIu64,
              s.checkpoints, s.recoveries, s.hard_failures, s.sdc_detected,
              s.scratch_restarts, s.l2_fetch_waves);
  std::printf(", \"ckpt.parity.encode_bytes\": %" PRIu64
              ", \"ckpt.parity.rebuild_bytes\": %" PRIu64
              ", \"ckpt.parity.rebuilds\": %" PRIu64
              ", \"ckpt.codec.wire_bytes\": %" PRIu64
              ", \"ckpt.codec.raw_bytes\": %" PRIu64
              ", \"ckpt.codec.hit_ratio\": %.17g"
              ", \"ckpt.tier.flush_bytes\": %" PRIu64
              ", \"ckpt.tier.fetches\": %" PRIu64,
              s.parity_bytes_sent, s.parity_rebuild_bytes, s.xor_rebuilds,
              s.codec_wire_bytes, s.codec_raw_bytes,
              chunks > 0.0 ? 1.0 - static_cast<double>(s.codec_chunks_shipped) / chunks
                           : 0.0,
              s.l2_flush_bytes, s.l2_fetches);
  std::printf(", \"net.frames\": %" PRIu64 ", \"net.retransmits\": %" PRIu64
              ", \"net.crc_drops\": %" PRIu64 ", \"net.first_try_ratio\": %.17g",
              s.net_frames, s.net_retransmits, s.net_crc_drops,
              frames > 0.0 ? frames / (frames + static_cast<double>(s.net_retransmits))
                           : 1.0);
  if (traced) {
    const Tracer& t = r.tracer;
    std::printf(", \"rt.pending_peak\": %" PRIu64
                ", \"apps.handler.calls\": %" PRIu64 ", \"rt.send.calls\": %" PRIu64
                ", \"rt.send.bytes\": %" PRIu64 ", \"acr.progress.calls\": %" PRIu64
                ", \"pup.pack.calls\": %" PRIu64 ", \"pup.unpack.calls\": %" PRIu64
                ", \"ckpt.image_bytes\": %" PRIu64,
                r.pending_peak, t.stats(Layer::Handler).calls,
                t.stats(Layer::Send).calls, t.send_bytes,
                t.stats(Layer::Progress).calls, t.stats(Layer::Pack).calls,
                t.stats(Layer::Unpack).calls, t.pack_bytes);
  }
  std::printf("}");

  if (traced) {
    const Tracer& t = r.tracer;
    std::printf(", \"times\": {\"apps.handler.self_s\": %.9f"
                ", \"rt.send.self_s\": %.9f, \"acr.progress.self_s\": %.9f"
                ", \"pup.pack.self_s\": %.9f, \"pup.unpack.self_s\": %.9f"
                ", \"runtime.other_s\": %.9f}",
                t.stats(Layer::Handler).self_s, t.stats(Layer::Send).self_s,
                t.stats(Layer::Progress).self_s, t.stats(Layer::Pack).self_s,
                t.stats(Layer::Unpack).self_s, r.wall_s - t.total_self_s());
  }
  std::printf(", \"env\": {\"host_cores\": %u, \"build_type\": \"%s\""
              ", \"crc32c_kernel\": \"%s\", \"engine_lanes\": %d"
              ", \"kernel_threads\": %d}}\n",
              std::thread::hardware_concurrency(), ACR_PERFBENCH_BUILD_TYPE,
              checksum::active_crc32c_kernel(), w.cluster.engine_lanes,
              parallel::global().threads());
}

/// Pin everything the host environment could otherwise change.
void pin_environment() {
  parallel::set_global_threads(0);
  checksum::set_kernel_impl(checksum::KernelImpl::Auto);
}

// --- smoke ------------------------------------------------------------------

int smoke_failures = 0;

void expect(bool ok, const std::string& workload, const char* what) {
  if (ok) return;
  ++smoke_failures;
  std::printf("FAIL %s: %s\n", workload.c_str(), what);
}

void smoke_workload(const std::string& name) {
  Workload mini = perfbench::make_workload(name, perfbench::Scale::Mini);
  expect(mini.nodes_per_replica() <= 8, name, "miniature exceeds 8 nodes/replica");

  JobResult ref;
  run_job(perfbench::fault_free(mini), 1, false, Caps{}, ref);
  expect(ref.complete(), name, "fault-free reference did not complete");
  mini.nominal_finish = ref.summary.finish_time;
  mini.digest = ref.digest;

  const std::uint64_t seed = 7;
  JobResult plain;
  JobResult traced;
  run_job(mini, seed, false, Caps{}, plain);
  run_job(mini, seed, true, Caps{}, traced);
  expect(plain.complete(), name, "untraced job did not complete");
  expect(plain.digest == mini.digest, name, "digest differs from fault-free answer");
  expect(traced.digest == plain.digest, name, "traced digest differs");
  expect(fingerprint(traced) == fingerprint(plain), name,
         "traced fingerprint differs");
  const Tracer& t = traced.tracer;
  expect(t.stats(Layer::Handler).calls > 0 && t.stats(Layer::Pack).calls > 0,
         name, "traced job recorded no handler or pack spans");
  expect(t.total_self_s() <= traced.wall_s, name, "self times exceed wall time");

  const bool lossy = mini.cluster.net_faults.drop_rate > 0.0;
  expect((plain.summary.net_retransmits > 0) == lossy, name,
         "retransmits present exactly on the lossy network");
  expect((plain.summary.recoveries > 0) == mini.faults, name,
         "recoveries present exactly under faults");

  // Caps: a job stopped early must come back as incomplete, fast.
  JobResult vcapped;
  run_job(mini, seed, false, Caps{0.25, 60.0}, vcapped);
  expect(!vcapped.complete() && !vcapped.wedged, name,
         "virtual-time cap did not stop the job");
  JobResult wcapped;
  run_job(mini, seed, true, Caps{4.0, 0.0}, wcapped);
  expect(wcapped.wedged && !wcapped.complete(), name,
         "wall-clock cap did not stop the traced job");
  JobResult wcapped_plain;
  run_job(mini, seed, false, Caps{4.0, 0.0}, wcapped_plain);
  expect(wcapped_plain.wedged && !wcapped_plain.complete(), name,
         "wall-clock cap did not stop the untraced job");
}

int smoke() {
  Clock::time_point t0 = Clock::now();
  for (const std::string& name : perfbench::workload_names()) smoke_workload(name);
  double s = seconds_since(t0);
  std::printf("%s perfbench smoke: %zu workloads in %.3f s\n",
              smoke_failures == 0 ? "PASS" : "FAIL",
              perfbench::workload_names().size(), s);
  return smoke_failures == 0 ? 0 : 1;
}

int calibrate(std::uint64_t seed) {
  for (const std::string& name : perfbench::workload_names()) {
    Workload w = perfbench::fault_free(
        perfbench::make_workload(name, perfbench::Scale::Full));
    w.nominal_finish = 0.0;  // uncapped
    JobResult r;
    run_job(w, seed, false, Caps{}, r);
    std::printf("%-12s complete=%d finish=%.17g digest=0x%016" PRIx64
                " wall=%.3fs %s\n",
                name.c_str(), r.complete() ? 1 : 0, r.summary.finish_time,
                r.digest, r.wall_s, fingerprint(r).c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: acr_perfbench job --workload NAME --seed N [--traced] "
               "[--fault-free]\n"
               "       acr_perfbench smoke\n"
               "       acr_perfbench calibrate [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool no_faults = false;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--traced") {
      traced = true;
    } else if (a == "--fault-free") {
      no_faults = true;
    } else {
      return usage();
    }
  }
  pin_environment();
  if (cmd == "smoke") return smoke();
  if (cmd == "calibrate") return calibrate(seed);
  if (cmd != "job") return usage();

  Workload w;
  try {
    w = perfbench::make_workload(workload, perfbench::Scale::Full);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (no_faults) w = perfbench::fault_free(w);
  JobResult r;
  run_job(w, seed, traced, Caps{}, r);
  print_job(w, seed, traced, r);
  // Skip tearing down a cluster of thousands of nodes: the process ends
  // here, and no other thread is running.
  std::fflush(stdout);
  std::_Exit(0);
}
