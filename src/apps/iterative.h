// Base class for bulk-synchronous iterative mini-app tasks.
//
// Encapsulates the interaction contract with ACR's coordinated
// checkpointing (rt/task.h): per-iteration progress reports, pausing at the
// consensus iteration, early-arrival buffering that is part of the
// checkpoint, idempotent handling of duplicate messages after rollbacks,
// and exact re-entry via on_resume().
//
// An iteration consists of `num_phases()` sub-phases (e.g. HPCCG: halo
// exchange + matvec, then the butterfly allreduce stages of the dot
// products). In each phase the task sends messages, waits for the expected
// incoming set, computes, and moves on; completing the last phase completes
// the iteration.
//
// A phase message's payload is the pup record stream of
//   U64 iter, I32 phase, I32 sender, Size n, then F64 x n when n > 0
// (iter is 1-based; the sender key is app-defined and unique per phase).
// It is written and read directly, without a pup traversal.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "buf/buffer.h"
#include "rt/task.h"

namespace acr::apps {

/// One received phase message, as compute_phase sees it.
struct InboxMsg {
  std::int32_t sender = 0;
  std::span<const double> data;
};

/// The messages of one (iteration, phase), sorted by sender key. The data
/// lives in scratch storage that is valid until compute_phase returns.
using Inbox = std::span<const InboxMsg>;

class IterativeTask : public rt::Task {
 public:
  explicit IterativeTask(std::uint64_t total_iterations)
      : total_iters_(total_iterations) {}

  // --- rt::Task ---------------------------------------------------------------
  void on_start() final;
  void on_resume() final;
  /// Decodes the payload and buffers it. A malformed payload throws
  /// pup::StreamError, stale or not.
  void on_message(const rt::Message& m) final;
  void pup(pup::Puper& p) final;
  std::uint64_t progress() const final { return iter_; }

 protected:
  /// Allocate and initialise application state. Called exactly once, from
  /// the first on_start (never after restores).
  virtual void init() = 0;

  /// Send this task's messages for (iter, phase) via send_phase_msg().
  virtual void send_phase(std::uint64_t iter, int phase) = 0;

  /// How many messages (distinct sender keys) phase `phase` of iteration
  /// `iter` expects. May be zero (compute-only phase).
  virtual int expected_in_phase(std::uint64_t iter, int phase) const = 0;

  /// Perform the real computation for the phase using the received
  /// messages. Returns the *virtual* compute cost in seconds charged to
  /// the clock. Must be deterministic.
  virtual double compute_phase(std::uint64_t iter, int phase, Inbox msgs) = 0;

  virtual int num_phases() const { return 1; }

  /// Serialize the application state (everything init() set up and
  /// compute_phase mutates).
  virtual void pup_state(pup::Puper& p) = 0;

  /// Send helper for subclasses: encodes the message into a payload slice
  /// and hands it to ctx->send.
  void send_phase_msg(rt::TaskAddr dst, std::uint64_t iter, int phase,
                      int sender_key, std::span<const double> data);

 private:
  /// A buffered message. `data` is the payload's F64 bytes, shared with
  /// the payload rather than copied.
  struct Held {
    std::uint64_t iter = 0;
    std::int32_t phase = 0;
    std::int32_t sender = 0;
    buf::Buffer data;

    auto key() const { return std::tie(iter, phase, sender); }
  };

  void begin_phase();
  void try_compute();
  void finish_phase();
  /// Buffer a message in key order; it replaces one with the same key.
  void hold(Held h);
  void pup_buffer(pup::Puper& p);

  std::uint64_t total_iters_;
  std::uint64_t iter_ = 0;  ///< completed iterations
  std::int32_t phase_ = 0;  ///< current sub-phase of iteration iter_+1
  /// Highest (iter, phase) whose sends already went out (survives pup so a
  /// restore knows it must resend, and a plain unpause knows it must not).
  std::uint64_t sent_iter_ = 0;
  std::int32_t sent_phase_ = -1;
  bool initialized_ = false;
  bool computing_ = false;  ///< transient; always false at iteration ends

  /// Early-arrival buffer, sorted by (iter, phase, sender); its capacity is
  /// freed whenever it empties. Part of the checkpoint (empty at
  /// consistent cuts for lock-step apps, but the framework does not rely on
  /// that), pupped as the stream of a
  /// map<(iter, phase), map<sender, vector<double>>>.
  std::vector<Held> buffer_;
};

}  // namespace acr::apps
