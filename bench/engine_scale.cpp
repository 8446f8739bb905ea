// Event-engine scaling sweep, in two parts.
//
// PHOLD: a synthetic workload (ring of logical nodes, each bouncing
// timestamped messages to itself and its neighbors, plus watchdog
// cancel/rearm churn) on the bare engine at 1k/16k/131k nodes. A running
// digest folds every dispatch (node, sequence, time bits).
//
// Live halo: acr_driver's fault-free jacobi (2x2xN tasks of 4^3 points, 4
// per node, strong scheme, full compare) through AcrRuntime at 1k/4k/16k
// nodes per replica — the whole message path: queue, delivery, app
// handlers, heartbeats and two checkpoints. Its digest is the job's verified
// answer. The 1k point is perfbench's halo-1k job at seed 1.
//
// Per point: wall time and events/s (the perf trajectory, written to
// BENCH_engine.json), plus the process's peak RSS for the live points. That
// is a running maximum: the live points run first, smallest first, so each
// figure is its own job's peak unless an earlier, smaller job left more.
// Event counts and digests are pinned: a change to either means the
// (time, id) dispatch order or the simulated answer moved. Each live point
// also has a peak-RSS ceiling, about 10% over what it needs, so a
// footprint regression fails the bench too.
//
// Wall time is honest wall clock on whatever host runs the bench; host_cores
// is recorded in the JSON so trajectories from different machines are not
// compared blindly.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "common/rng.h"
#include "rt/engine.h"

using namespace acr;

namespace {

constexpr int kEventsPerNode = 16;
constexpr double kMinDelay = 5e-6;
constexpr double kDelaySpread = 45e-6;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

struct PholdResult {
  std::uint64_t digest = 0;
  std::size_t events = 0;
  double wall_seconds = 0.0;
};

/// One PHOLD run: every node seeds one message; each dispatch folds
/// (node, seq, time) into the digest, rearms the node's watchdog (cancel +
/// reschedule, so the cancelled-set churns exactly as the cluster's
/// heartbeat timers do), and forwards the message to itself or a ring
/// neighbor with a node-local PCG delay. Event count, times, and digest
/// depend only on the per-node RNG streams.
PholdResult run_phold(int nodes) {
  rt::Engine engine;

  struct NodeState {
    Pcg32 rng;
    int remaining = kEventsPerNode;
    std::uint64_t seq = 0;
    rt::Engine::EventId watchdog = 0;
  };
  std::vector<NodeState> state(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    state[static_cast<std::size_t>(n)].rng =
        Pcg32(0xEC5CA1E0ULL + static_cast<std::uint64_t>(n),
              static_cast<std::uint64_t>(n) * 2 + 1);

  std::uint64_t digest = 0;
  std::function<void(int)> bounce = [&](int node) {
    NodeState& s = state[static_cast<std::size_t>(node)];
    std::uint64_t tbits;
    double now = engine.now();
    std::memcpy(&tbits, &now, sizeof tbits);
    digest = mix(digest, static_cast<std::uint64_t>(node));
    digest = mix(digest, ++s.seq);
    digest = mix(digest, tbits);
    // Watchdog churn: cancel the previous (pending or long-fired) timer and
    // arm a fresh one past the end of the run.
    engine.cancel(s.watchdog);
    s.watchdog = engine.schedule_after(
        10.0, [&digest, node] { digest = mix(digest, ~static_cast<std::uint64_t>(node)); });
    if (--s.remaining <= 0) {
      engine.cancel(s.watchdog);
      s.watchdog = 0;
      return;
    }
    double delay = kMinDelay + kDelaySpread * (s.rng.next() * 0x1p-32);
    int dst = node;
    std::uint32_t pick = s.rng.bounded(10);
    if (pick < 2) dst = (node + 1) % nodes;                  // ring right
    else if (pick < 3) dst = (node + nodes - 1) % nodes;     // ring left
    engine.schedule_after(delay, [&bounce, dst] { bounce(dst); });
  };

  auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n < nodes; ++n) {
    NodeState& s = state[static_cast<std::size_t>(n)];
    double start = kMinDelay + kDelaySpread * (s.rng.next() * 0x1p-32);
    engine.schedule_after(start, [&bounce, n] { bounce(n); });
  }
  engine.run();
  auto t1 = std::chrono::steady_clock::now();

  PholdResult r;
  r.digest = digest;
  r.events = engine.events_processed();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

struct LiveResult {
  bool complete = false;
  std::size_t events = 0;
  std::uint64_t digest = 0;
  double wall_seconds = 0.0;
  double peak_rss_mb = 0.0;
};

/// One fault-free driver-shaped jacobi job (perfbench's halo workload, seed
/// 1) at `nodes` nodes per replica; wall time covers setup and the run.
LiveResult run_live_halo(int nodes) {
  apps::Jacobi3DConfig app;
  app.tasks_x = app.tasks_y = 2;
  app.tasks_z = nodes;
  app.block_x = app.block_y = app.block_z = 4;
  app.slots_per_node = 4;
  app.iterations = 8;
  app.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::FullCompare;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = 4;
  cc.seed = 1;

  LiveResult r;
  auto t0 = std::chrono::steady_clock::now();
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(app.factory());
  runtime.setup();
  RunSummary s = runtime.run(1.0);
  auto t1 = std::chrono::steady_clock::now();
  r.complete = s.complete;
  r.events = runtime.engine().events_processed();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  // Let the final commit's messages land, then digest the verified answer:
  // the newest verified image of every node index.
  runtime.engine().run_until(s.finish_time + 0.002);
  checksum::Fletcher64 f;
  for (int i = 0; i < cc.nodes_per_replica; ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    f.append((a.verified_epoch() >= b.verified_epoch() ? a : b).verified_image());
  }
  r.digest = f.digest();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

}  // namespace

int main() {
  // Event count and digest per size: PHOLD's dispatch digest is pinned from
  // the engine's (time, id) order, a live job's from its verified answer.
  struct Expected {
    int nodes;
    std::size_t events;
    std::uint64_t digest;
    double rss_ceiling_mb = 0.0;  ///< live points only
  };
  const Expected phold[] = {
      {1024, 14001, 0x23372c34b404eda9ULL},
      {16384, 223997, 0xed96b71be977a2b8ULL},
      {131072, 1791370, 0x6ba04d537e784412ULL},
  };
  const Expected live[] = {
      {1024, 509777, 0x42e957d39530ecf4ULL, 70.0},
      {4096, 2039633, 0x8d290bc397e96db6ULL, 250.0},
      {16384, 8290125, 0x10316c9215db6cc6ULL, 1000.0},
  };
  unsigned cores = std::thread::hardware_concurrency();

  struct Point {
    int nodes;
    std::size_t events;
    std::uint64_t digest;
    double wall, events_per_s, peak_rss_mb;
  };
  bool deterministic = true;
  bool footprint_ok = true;
  auto record = [&](const Expected& e, std::vector<Point>& points,
                    std::size_t events, std::uint64_t digest, double wall,
                    double rss) {
    if (events != e.events || digest != e.digest) {
      deterministic = false;
      std::printf("DETERMINISM VIOLATION at nodes=%d: events %zu digest "
                  "%016llx, expected %zu %016llx\n",
                  e.nodes, events, static_cast<unsigned long long>(digest),
                  e.events, static_cast<unsigned long long>(e.digest));
    }
    double rate = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
    std::printf("%8d %12zu %12.4f %14.0f   %016llx\n", e.nodes, events, wall,
                rate, static_cast<unsigned long long>(digest));
    points.push_back({e.nodes, events, digest, wall, rate, rss});
  };

  std::printf("engine scaling sweep, host cores=%u\n\nlive halo — fault-free "
              "driver jacobi through AcrRuntime, 8 iterations\n\n",
              cores);
  std::printf("%8s %12s %12s %14s %18s\n", "nodes", "events", "wall (s)",
              "events/s", "verified digest");
  std::vector<Point> live_points;
  for (const Expected& e : live) {
    LiveResult r = run_live_halo(e.nodes);
    if (!r.complete) {
      deterministic = false;
      std::printf("live job at nodes=%d did not complete\n", e.nodes);
    }
    record(e, live_points, r.events, r.digest, r.wall_seconds, r.peak_rss_mb);
    if (r.peak_rss_mb > e.rss_ceiling_mb) {
      footprint_ok = false;
      std::printf("FOOTPRINT REGRESSION at nodes=%d: peak RSS %.1f MB, "
                  "ceiling %.1f MB\n",
                  e.nodes, r.peak_rss_mb, e.rss_ceiling_mb);
    }
  }

  std::printf("\nPHOLD ring, %d events/node\n\n", kEventsPerNode);
  std::printf("%8s %12s %12s %14s %18s\n", "nodes", "events", "wall (s)",
              "events/s", "digest");
  std::vector<Point> phold_points;
  for (const Expected& e : phold) {
    PholdResult r = run_phold(e.nodes);
    record(e, phold_points, r.events, r.digest, r.wall_seconds, 0.0);
  }

  std::FILE* out = std::fopen("BENCH_engine.json", "w");
  if (out != nullptr) {
    auto write_points = [out](const std::vector<Point>& points, bool rss) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        std::fprintf(out,
                     "  {\"nodes\": %d, \"events_processed\": %zu, "
                     "\"digest\": \"%016llx\", \"wall_seconds\": %.6f, "
                     "\"events_per_s\": %.0f",
                     p.nodes, p.events,
                     static_cast<unsigned long long>(p.digest), p.wall,
                     p.events_per_s);
        if (rss) std::fprintf(out, ", \"peak_rss_mb\": %.1f", p.peak_rss_mb);
        std::fprintf(out, "}%s\n", i + 1 < points.size() ? "," : "");
      }
    };
    std::fprintf(out,
                 "{\n \"config\": \"phold-ring events_per_node=%d "
                 "min_delay=%g spread=%g\",\n \"host_cores\": %u,\n"
                 " \"deterministic\": %s,\n \"points\": [\n",
                 kEventsPerNode, kMinDelay, kDelaySpread, cores,
                 deterministic ? "true" : "false");
    write_points(phold_points, false);
    std::fprintf(out,
                 " ],\n \"live_config\": \"driver jacobi 2x2xN tasks of 4^3, "
                 "4 per node, 8 iterations, strong + full compare, seed 1; "
                 "peak_rss_mb is the process's running maximum\",\n"
                 " \"live_points\": [\n");
    write_points(live_points, true);
    std::fprintf(out, " ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_engine.json\n");
  }
  return deterministic && footprint_ok ? 0 : 1;
}
