// Event-engine queue-scaling sweep: a PHOLD-style synthetic workload (ring
// of logical nodes, each bouncing timestamped messages to itself and its
// neighbors, plus watchdog cancel/rearm churn) run on the serial binary-heap
// engine at 1k/16k/131k nodes. Two things are measured per point: wall time
// and events/s (the perf trajectory, written to BENCH_engine.json) and a
// running digest of every dispatch (node, sequence, time bits). The event
// count and digest are pinned: a change to either means the engine's
// (time, id) dispatch order moved, which is the determinism contract at the
// scale the soak suites never reach.
//
// Wall time is honest wall clock on whatever host runs the bench; host_cores
// is recorded in the JSON so trajectories from different machines are not
// compared blindly.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

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

}  // namespace

int main() {
  // Event count and dispatch digest per size, pinned from the engine's
  // (time, id) order.
  struct Expected {
    int nodes;
    std::size_t events;
    std::uint64_t digest;
  };
  const Expected expected[] = {
      {1024, 14001, 0x23372c34b404eda9ULL},
      {16384, 223997, 0xed96b71be977a2b8ULL},
      {131072, 1791370, 0x6ba04d537e784412ULL},
  };
  unsigned cores = std::thread::hardware_concurrency();

  std::printf("engine scaling sweep — PHOLD ring, %d events/node, host cores=%u\n\n",
              kEventsPerNode, cores);
  std::printf("%8s %12s %12s %14s %18s\n", "nodes", "events", "wall (s)",
              "events/s", "digest");

  struct Point {
    int nodes;
    std::size_t events;
    std::uint64_t digest;
    double wall, events_per_s;
  };
  std::vector<Point> points;
  bool deterministic = true;

  for (const Expected& e : expected) {
    PholdResult r = run_phold(e.nodes);
    if (r.events != e.events || r.digest != e.digest) {
      deterministic = false;
      std::printf("DETERMINISM VIOLATION at nodes=%d: events %zu digest "
                  "%016llx, expected %zu %016llx\n",
                  e.nodes, r.events, static_cast<unsigned long long>(r.digest),
                  e.events, static_cast<unsigned long long>(e.digest));
    }
    double rate = r.wall_seconds > 0.0
                      ? static_cast<double>(r.events) / r.wall_seconds
                      : 0.0;
    std::printf("%8d %12zu %12.4f %14.0f   %016llx\n", e.nodes, r.events,
                r.wall_seconds, rate, static_cast<unsigned long long>(r.digest));
    points.push_back({e.nodes, r.events, r.digest, r.wall_seconds, rate});
  }

  std::FILE* out = std::fopen("BENCH_engine.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n \"config\": \"phold-ring events_per_node=%d "
                 "min_delay=%g spread=%g\",\n \"host_cores\": %u,\n"
                 " \"deterministic\": %s,\n \"points\": [\n",
                 kEventsPerNode, kMinDelay, kDelaySpread, cores,
                 deterministic ? "true" : "false");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(out,
                   "  {\"nodes\": %d, \"events_processed\": %zu, "
                   "\"digest\": \"%016llx\", \"wall_seconds\": %.6f, "
                   "\"events_per_s\": %.0f}%s\n",
                   p.nodes, p.events, static_cast<unsigned long long>(p.digest),
                   p.wall, p.events_per_s, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, " ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_engine.json\n");
  }
  return deterministic ? 0 : 1;
}
