// Trace analytics: turns the runtime's TraceLog into the quantities the
// paper reports — per-checkpoint protocol latencies, recovery durations,
// failure counts, and the forward-path overhead estimate.
#pragma once

#include <vector>

#include "common/stats.h"
#include "rt/cluster.h"

namespace acr {

struct CheckpointTiming {
  double requested = 0.0;
  double iteration_decided = 0.0;  ///< 0 when the checkpoint was aborted
  double packed = 0.0;
  double committed = 0.0;          ///< 0 when aborted / rolled back
  bool committed_ok = false;

  double consensus_latency() const {
    return (packed > 0.0 ? packed : 0.0) - requested;
  }
  double total_latency() const {
    return committed_ok ? committed - requested : 0.0;
  }
};

struct RecoveryTiming {
  double started = 0.0;
  double completed = 0.0;
  double duration() const { return completed - started; }
};

struct TraceSummary {
  std::vector<CheckpointTiming> checkpoints;
  std::vector<RecoveryTiming> recoveries;
  std::size_t failures_injected = 0;
  std::size_t failures_detected = 0;
  double job_start = 0.0;
  double job_complete = 0.0;  ///< 0 when the job did not complete

  /// Mean heartbeat-to-detection latency over the failures that were both
  /// injected and detected (paired in order).
  double mean_detection_latency = 0.0;

  RunningStats consensus_latency_stats() const;
  RunningStats commit_latency_stats() const;
  RunningStats recovery_duration_stats() const;

  /// Fraction of wall time spent between checkpoint request and commit —
  /// the forward-path protocol overhead visible in the trace.
  double checkpoint_time_fraction() const;
};

/// Build the summary from a trace. Robust to aborted checkpoints and
/// incomplete runs (open intervals are dropped).
TraceSummary summarize_trace(const rt::TraceLog& trace);

}  // namespace acr
