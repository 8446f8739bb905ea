// Observation-only per-layer timing for the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own files, around calls into the
// simulator's public entry points: a task decorator times the app handlers
// and the checkpoint pack/unpack, and a TaskContext proxy times the sends
// and progress reports the app makes into the runtime. Nothing under src/
// is changed, and nothing here feeds virtual time, so a traced job must
// reproduce the untraced job's fingerprint and digest exactly.
//
// Self time: a span's wall time minus the time of the spans nested in it
// (a handler that sends counts the send under rt.send, not under the
// handler). Time outside every span is the caller's to attribute.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rt/cluster.h"
#include "rt/task.h"

namespace perfbench {

enum class Layer : std::size_t {
  Handler,   ///< apps: on_start / on_resume / on_message / continuations
  Send,      ///< rt: TaskContext::send
  Progress,  ///< acr: TaskContext::report_progress (checkpoint consensus)
  Pack,      ///< pup: Task::pup under a Packer (incl. the digest tee)
  Unpack,    ///< pup: Task::pup under an Unpacker (restores)
  Count,
};

struct LayerStats {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span: times one call into `layer`.
  class Span {
   public:
    Span(Tracer& t, Layer layer) : t_(t) { t_.enter(layer); }
    ~Span() { t_.exit(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
  };

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  /// Sum of every layer's self time.
  double total_self_s() const;

  std::uint64_t send_bytes = 0;  ///< payload bytes handed to send()
  std::uint64_t pack_bytes = 0;  ///< bytes Task::pup wrote into Packers

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  void enter(Layer layer);
  void exit();

  std::vector<Frame> stack_;
  std::array<LayerStats, static_cast<std::size_t>(Layer::Count)> stats_{};
};

/// Wrap every task `inner` builds in a timing decorator reporting to
/// `tracer`, which must outlive the cluster using the factory.
acr::rt::Cluster::TaskFactory traced_factory(acr::rt::Cluster::TaskFactory inner,
                                             Tracer& tracer);

/// The task a traced_factory decorator wraps, or `task` itself.
acr::rt::Task& unwrap(acr::rt::Task& task);

}  // namespace perfbench
