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
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "rt/task.h"

namespace acr::apps {

/// Payload of every app message. Receivers unpack a PhaseMsg; senders pack
/// a PhaseMsgView, which writes the same stream straight from their data.
template <typename Data>
struct BasicPhaseMsg {
  std::uint64_t iter = 0;   ///< iteration the data belongs to (1-based)
  std::int32_t phase = 0;   ///< sub-phase within the iteration
  std::int32_t sender = 0;  ///< app-defined sender key (unique per phase)
  Data data;

  void pup(pup::Puper& p) {
    p | iter;
    p | phase;
    p | sender;
    p | data;
  }
};
using PhaseMsg = BasicPhaseMsg<std::vector<double>>;
using PhaseMsgView = BasicPhaseMsg<std::span<const double>>;

class IterativeTask : public rt::Task {
 public:
  explicit IterativeTask(std::uint64_t total_iterations)
      : total_iters_(total_iterations) {}

  // --- rt::Task ---------------------------------------------------------------
  void on_start() final;
  void on_resume() final;
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
  /// messages (keyed by sender). Returns the *virtual* compute cost in
  /// seconds charged to the clock. Must be deterministic.
  virtual double compute_phase(std::uint64_t iter, int phase,
                               const std::map<int, std::vector<double>>& msgs) = 0;

  virtual int num_phases() const { return 1; }

  /// Serialize the application state (everything init() set up and
  /// compute_phase mutates).
  virtual void pup_state(pup::Puper& p) = 0;

  /// Send helper for subclasses (packs a PhaseMsgView + ctx->send).
  void send_phase_msg(rt::TaskAddr dst, std::uint64_t iter, int phase,
                      int sender_key, std::span<const double> data);

 private:
  void begin_phase();
  void try_compute();
  void finish_phase();

  std::uint64_t total_iters_;
  std::uint64_t iter_ = 0;  ///< completed iterations
  std::int32_t phase_ = 0;  ///< current sub-phase of iteration iter_+1
  /// Highest (iter, phase) whose sends already went out (survives pup so a
  /// restore knows it must resend, and a plain unpause knows it must not).
  std::uint64_t sent_iter_ = 0;
  std::int32_t sent_phase_ = -1;
  bool initialized_ = false;
  bool computing_ = false;  ///< transient; always false at iteration ends

  /// Early-arrival buffer: (iter, phase) -> sender -> payload. Part of the
  /// checkpoint (empty at consistent cuts for lock-step apps, but the
  /// framework does not rely on that).
  std::map<std::pair<std::uint64_t, std::int32_t>,
           std::map<std::int32_t, std::vector<double>>>
      buffer_;
};

}  // namespace acr::apps
