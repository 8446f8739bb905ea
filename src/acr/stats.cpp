#include "acr/stats.h"

#include <algorithm>

namespace acr {

RunningStats TraceSummary::consensus_latency_stats() const {
  RunningStats s;
  for (const auto& c : checkpoints)
    if (c.packed > 0.0) s.add(c.consensus_latency());
  return s;
}

RunningStats TraceSummary::commit_latency_stats() const {
  RunningStats s;
  for (const auto& c : checkpoints)
    if (c.committed_ok) s.add(c.total_latency());
  return s;
}

RunningStats TraceSummary::recovery_duration_stats() const {
  RunningStats s;
  for (const auto& r : recoveries) s.add(r.duration());
  return s;
}

double TraceSummary::checkpoint_time_fraction() const {
  double span = (job_complete > 0.0 ? job_complete : 0.0) - job_start;
  if (span <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& c : checkpoints)
    if (c.committed_ok) busy += c.total_latency();
  return busy / span;
}

TraceSummary summarize_trace(const rt::TraceLog& trace) {
  TraceSummary out;
  CheckpointTiming current{};
  bool open = false;
  std::vector<double> inject_times;
  std::vector<double> detect_times;
  std::vector<double> recovery_starts;

  for (const auto& e : trace.events()) {
    switch (e.kind) {
      case rt::TraceKind::JobStart:
        out.job_start = e.time;
        break;
      case rt::TraceKind::JobComplete:
        if (out.job_complete == 0.0) out.job_complete = e.time;
        break;
      case rt::TraceKind::CheckpointRequested:
        if (open) out.checkpoints.push_back(current);  // aborted predecessor
        current = CheckpointTiming{};
        current.requested = e.time;
        open = true;
        break;
      case rt::TraceKind::CheckpointIterationDecided:
        if (open) current.iteration_decided = e.time;
        break;
      case rt::TraceKind::CheckpointPacked:
        if (open) current.packed = e.time;
        break;
      case rt::TraceKind::CheckpointCommitted:
        if (open) {
          current.committed = e.time;
          current.committed_ok = true;
          out.checkpoints.push_back(current);
          open = false;
        }
        break;
      case rt::TraceKind::HardFailureInjected:
        ++out.failures_injected;
        inject_times.push_back(e.time);
        break;
      case rt::TraceKind::HardFailureDetected:
        ++out.failures_detected;
        detect_times.push_back(e.time);
        break;
      case rt::TraceKind::RecoveryStarted:
        recovery_starts.push_back(e.time);
        break;
      case rt::TraceKind::RecoveryCompleted:
        if (!recovery_starts.empty()) {
          out.recoveries.push_back(
              RecoveryTiming{recovery_starts.back(), e.time});
          recovery_starts.pop_back();
        }
        break;
      default:
        break;
    }
  }
  if (open) out.checkpoints.push_back(current);

  // Pair injections with the first detection at or after them.
  RunningStats det;
  std::size_t d = 0;
  for (double t : inject_times) {
    while (d < detect_times.size() && detect_times[d] < t) ++d;
    if (d == detect_times.size()) break;
    det.add(detect_times[d] - t);
    ++d;
  }
  out.mean_detection_latency = det.count() ? det.mean() : 0.0;
  return out;
}

}  // namespace acr
