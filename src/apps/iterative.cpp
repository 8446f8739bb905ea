#include "apps/iterative.h"

namespace acr::apps {

void IterativeTask::on_start() {
  if (!initialized_) {
    init();
    initialized_ = true;
  }
  begin_phase();
}

void IterativeTask::on_resume() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  begin_phase();
}

void IterativeTask::begin_phase() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  std::uint64_t iter = iter_ + 1;
  // Resend protection: a pause/unpause cycle must not duplicate sends, but
  // a rollback (which rewinds sent_iter_/sent_phase_ via pup) must resend.
  bool already_sent =
      sent_iter_ > iter ||
      (sent_iter_ == iter && sent_phase_ >= phase_);
  if (!already_sent) {
    sent_iter_ = iter;
    sent_phase_ = phase_;
    send_phase(iter, phase_);
  }
  try_compute();
}

void IterativeTask::on_message(const rt::Message& m) {
  PhaseMsg pm = rt::unpack_payload<PhaseMsg>(m);
  // Stale data for an already-completed iteration (duplicates after a
  // rollback in the *other* direction) is dropped; identical duplicates for
  // a pending phase overwrite idempotently.
  if (pm.iter <= iter_) return;
  buffer_[{pm.iter, pm.phase}][pm.sender] = std::move(pm.data);
  try_compute();
}

void IterativeTask::try_compute() {
  if (computing_ || ctx->paused()) return;
  if (iter_ >= total_iters_) return;
  std::uint64_t iter = iter_ + 1;
  auto key = std::make_pair(iter, phase_);
  int expected = expected_in_phase(iter, phase_);
  auto it = buffer_.find(key);
  int have = it == buffer_.end() ? 0 : static_cast<int>(it->second.size());
  if (have < expected) return;

  static const std::map<std::int32_t, std::vector<double>> kEmpty;
  const auto& msgs = it == buffer_.end() ? kEmpty : it->second;
  computing_ = true;
  double cost = compute_phase(iter, phase_, msgs);
  if (it != buffer_.end()) buffer_.erase(it);
  ctx->after_compute(cost, [this]() { finish_phase(); });
}

void IterativeTask::finish_phase() {
  computing_ = false;
  ++phase_;
  if (phase_ < num_phases()) {
    begin_phase();
    return;
  }
  // Iteration complete.
  phase_ = 0;
  ++iter_;
  rt::ProgressDecision d = ctx->report_progress(iter_);
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  if (d == rt::ProgressDecision::Pause) return;
  begin_phase();
}

void IterativeTask::pup(pup::Puper& p) {
  p | total_iters_;
  p | iter_;
  p | phase_;
  p | sent_iter_;
  p | sent_phase_;
  p | initialized_;
  p | buffer_;
  pup_state(p);
  // A restore can land while this object was mid-compute (the node was
  // running when the rollback arrived); the stale transient would wedge
  // try_compute forever. Checkpoints are only cut at iteration boundaries,
  // where computing_ is false by construction.
  if (p.is_unpacking()) computing_ = false;
}

void IterativeTask::send_phase_msg(rt::TaskAddr dst, std::uint64_t iter,
                                   int phase, int sender_key,
                                   std::span<const double> data) {
  PhaseMsgView pm;
  pm.iter = iter;
  pm.phase = phase;
  pm.sender = sender_key;
  pm.data = data;
  ctx->send(dst, /*tag=*/1, rt::pack_payload(pm));
}

}  // namespace acr::apps
