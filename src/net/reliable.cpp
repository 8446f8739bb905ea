#include "net/reliable.h"

#include <algorithm>

#include "common/require.h"

namespace acr::net {

namespace {

/// The timeout is floored at this multiple of the frame's one-way latency
/// so that bulk frames (checkpoint images) in flight for several
/// milliseconds are not spuriously retransmitted.
constexpr double kMinTimeoutRttFactor = 3.0;

}  // namespace

std::uint64_t ReliableTransport::generation(LinkKey link) const {
  auto it = generations_.find(link);
  return it == generations_.end() ? 0 : it->second;
}

ReliableTransport::Seq ReliableTransport::window_base(LinkKey link) const {
  auto it = senders_.find(link);
  if (it == senders_.end()) return 1;
  if (it->second.pending.empty()) return it->second.next_seq;
  return it->second.pending.begin()->first;
}

ReliableTransport::Seq ReliableTransport::send(LinkKey link,
                                               double one_way_latency) {
  SenderState& s = senders_[link];
  Seq seq = s.next_seq++;
  Pending& p = s.pending[seq];
  p.latency = one_way_latency;
  p.timeout =
      std::max(cfg_.base_timeout, kMinTimeoutRttFactor * one_way_latency);
  ++stats_.data_frames;
  hooks_.transmit(link, seq, /*attempt=*/0);
  arm_timer(link, seq);
  return seq;
}

void ReliableTransport::arm_timer(LinkKey link, Seq seq) {
  auto sit = senders_.find(link);
  ACR_REQUIRE(sit != senders_.end(), "arm_timer on unknown link");
  auto pit = sit->second.pending.find(seq);
  ACR_REQUIRE(pit != sit->second.pending.end(), "arm_timer on unknown seq");
  pit->second.timer =
      hooks_.schedule(pit->second.timeout, [this, link, seq] {
        on_timeout(link, seq);
      });
}

void ReliableTransport::on_timeout(LinkKey link, Seq seq) {
  auto sit = senders_.find(link);
  if (sit == senders_.end()) return;  // endpoint reset raced the timer
  auto pit = sit->second.pending.find(seq);
  if (pit == sit->second.pending.end()) return;  // acked meanwhile
  Pending& p = pit->second;
  ++p.attempts;
  if (p.attempts > cfg_.retry_budget) {
    ++stats_.gave_up;
    sit->second.pending.erase(pit);
    // give_up may synthesize a link-failure escalation; release afterwards
    // so the payload is still inspectable from the give_up hook if needed.
    hooks_.give_up(link, seq);
    hooks_.release(link, seq);
    return;
  }
  ++stats_.retransmits;
  // Exponential backoff, capped — but never below the frame's flight-time
  // floor (bulk frames legitimately take several base_timeouts to arrive).
  double floor =
      std::max(cfg_.base_timeout, kMinTimeoutRttFactor * p.latency);
  p.timeout = std::min(std::max(cfg_.max_timeout, floor),
                       p.timeout * cfg_.backoff);
  hooks_.transmit(link, seq, p.attempts);
  arm_timer(link, seq);
}

void ReliableTransport::on_data_frame(LinkKey link, Seq seq, Seq sender_base,
                                      std::uint64_t gen) {
  if (gen != generation(link)) {
    ++stats_.stale_generation;
    return;  // frame from a dead incarnation of this link: no ack
  }
  ReceiverState& r = receivers_[link];
  // Heal abandoned holes: the sender's base has moved past sequences it gave
  // up on; anything below it will never arrive, so skip forward, delivering
  // any frames we had buffered along the way.
  while (r.base < sender_base || r.buffered.count(r.base)) {
    if (r.buffered.count(r.base)) {
      r.buffered.erase(r.base);
      ++stats_.delivered;
      hooks_.deliver(link, r.base);
    }
    ++r.base;
  }
  if (seq >= r.base + cfg_.window) return;  // beyond window: drop, no ack
  // Ack every acceptable data frame, duplicates included — the original ack
  // may have been lost, and the sender needs one to stop retransmitting.
  hooks_.send_ack(link, seq);
  if (seq < r.base || r.buffered.count(seq)) {
    ++stats_.dup_frames;
    return;
  }
  r.buffered.insert(seq);
  // Deliver the in-order run starting at base.
  while (r.buffered.count(r.base)) {
    r.buffered.erase(r.base);
    ++stats_.delivered;
    hooks_.deliver(link, r.base);
    ++r.base;
  }
}

void ReliableTransport::on_ack_frame(LinkKey link, Seq seq,
                                     std::uint64_t gen) {
  if (gen != generation(link)) {
    ++stats_.stale_generation;
    return;
  }
  auto sit = senders_.find(link);
  if (sit == senders_.end()) return;
  auto pit = sit->second.pending.find(seq);
  if (pit == sit->second.pending.end()) return;  // duplicate ack
  hooks_.cancel(pit->second.timer);
  sit->second.pending.erase(pit);
  ++stats_.acks_delivered;
  hooks_.release(link, seq);
}

void ReliableTransport::reset_endpoint(int endpoint) {
  for (auto& [link, s] : senders_) {
    if (link.src != endpoint && link.dst != endpoint) continue;
    for (auto& [seq, p] : s.pending) {
      hooks_.cancel(p.timer);
      hooks_.release(link, seq);
    }
    s.pending.clear();
    s.next_seq = 1;
    ++generations_[link];
  }
  for (auto& [link, r] : receivers_) {
    if (link.src != endpoint && link.dst != endpoint) continue;
    r.base = 1;
    r.buffered.clear();
    ++generations_[link];
  }
}

std::size_t ReliableTransport::in_flight() const {
  std::size_t n = 0;
  for (const auto& [link, s] : senders_) n += s.pending.size();
  return n;
}

}  // namespace acr::net
