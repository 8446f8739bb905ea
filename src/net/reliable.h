// Per-link reliable delivery: acks, timeouts, retransmits, dedup.
//
// The ACR control protocols (consensus phases, buddy checksum exchange,
// spare promotion) assume the transport loses nothing, duplicates nothing,
// and preserves per-link order. `ReliableTransport` provides exactly that
// over a lossy wire, TCP-style:
//
//   sender                                   receiver
//   ------                                   --------
//   seq = next_seq++; hold frame             on data(seq, frame):
//   transmit(seq); arm timer                   ack(seq) always
//   on timeout: attempts++                     if seq below window base or
//     attempts > budget -> give_up, drop          already buffered: dup, done
//     else retransmit, backoff*=2 (capped)     else buffer a copy; hand up
//   on ack(seq): cancel timer, drop frame        the in-order run from base
//
// The transport is the one owner of every frame in flight: the sender's
// pending entry holds the frame from `send` until its ack, give-up or
// `reset_endpoint`, and the receiver's out-of-order buffer holds a copy
// from arrival until it is handed up in order. It is a template on the
// frame type and calls back through `Hooks` for everything
// environment-specific (the wire, timer scheduling, hand-up). That keeps
// `net` free of a dependency on `rt` — the cluster supplies its message as
// the frame and wires in the event engine and the lossy wire.
//
// Two robustness details shaped the design:
//   - Link generations. When an endpoint dies and a spare is promoted,
//     the promoted node must not be confused by in-flight frames or acks from
//     its predecessor's conversations. `reset_endpoint` bumps a per-link
//     generation; stale-generation frames are discarded on arrival.
//   - Window-base healing. A sender that gives up on frame N abandons it,
//     but the receiver is still waiting at base N. Every data frame carries
//     the sender's current window base so the receiver can skip abandoned
//     holes instead of wedging.
//
// All state lives in ordered containers: iteration order (and therefore the
// virtual-time event schedule) is identical across platforms and runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/require.h"

namespace acr::net {

/// A directed link between two endpoints. Endpoint ids are assigned by the
/// owner (the cluster uses -1 for the manager and a dense role index for
/// compute nodes).
struct LinkKey {
  int src = 0;
  int dst = 0;
  friend auto operator<=>(const LinkKey&, const LinkKey&) = default;
};

struct ReliableConfig {
  /// Retransmit attempts before declaring the link failed. The first
  /// transmission does not count: budget 10 means up to 10 retransmits.
  int retry_budget = 10;
  /// Initial retransmit timeout floor (seconds).
  double base_timeout = 5e-4;
  /// Timeout multiplier per retransmit.
  double backoff = 2.0;
  /// Backoff cap (seconds). Every timeout is also floored at three times
  /// the frame's one-way latency, which can raise it past this cap.
  double max_timeout = 8e-3;
  /// Receive window: frames more than this far ahead of the window base are
  /// dropped unacked (sender retransmits them once the base catches up).
  std::uint64_t window = 1024;
};

/// Aggregate delivery statistics across all links.
struct LinkStats {
  std::uint64_t data_frames = 0;     ///< first transmissions
  std::uint64_t retransmits = 0;     ///< timer-driven re-sends
  std::uint64_t acks_delivered = 0;  ///< acks that reached the sender
  std::uint64_t dup_frames = 0;      ///< duplicates suppressed at receiver
  std::uint64_t stale_generation = 0;  ///< frames/acks from a dead incarnation
  std::uint64_t delivered = 0;       ///< frames handed up in order
  std::uint64_t gave_up = 0;         ///< frames abandoned after retry budget
};

template <class Frame>
class ReliableTransport {
 public:
  using TimerId = std::uint64_t;
  using Seq = std::uint64_t;

  /// Environment callbacks. All are required.
  struct Hooks {
    /// Schedule `fn` after `delay` seconds; returns a cancellable id.
    std::function<TimerId(double delay, std::function<void()> fn)> schedule;
    /// Cancel a previously scheduled timer (no-op if already fired).
    std::function<void(TimerId)> cancel;
    /// Put one copy of the held `frame` on the wire (attempt 0 = first
    /// transmission); `latency` is the one-way flight time given to send().
    std::function<void(LinkKey, Seq, const Frame& frame, double latency,
                       int attempt)>
        transmit;
    /// Put an ack for `seq` on the (reverse) wire.
    std::function<void(LinkKey, Seq)> send_ack;
    /// Frame `seq` is next in order: hand it up to the application.
    std::function<void(LinkKey, Seq, Frame frame)> deliver;
    /// The retry budget for `seq` is exhausted and its frame dropped; the
    /// link is declared failed.
    std::function<void(LinkKey, Seq)> give_up;
  };

  ReliableTransport(const ReliableConfig& cfg, Hooks hooks)
      : cfg_(cfg), hooks_(std::move(hooks)) {}

  const ReliableConfig& config() const { return cfg_; }
  const LinkStats& stats() const { return stats_; }

  /// Current link generation (stamped into frames by the owner and checked
  /// on arrival against the receiving end's view).
  std::uint64_t generation(LinkKey link) const {
    auto it = generations_.find(link);
    return it == generations_.end() ? 0 : it->second;
  }

  /// The sender's lowest unacked sequence (frames below it were delivered or
  /// abandoned). Stamped into data frames so the receiver can heal holes.
  Seq window_base(LinkKey link) const {
    auto it = senders_.find(link);
    if (it == senders_.end()) return 1;
    if (it->second.pending.empty()) return it->second.next_seq;
    return it->second.pending.begin()->first;
  }

  /// Begin reliable transmission of `frame`, which the sender holds until
  /// it is acked, given up or its endpoint reset; returns its sequence
  /// number. `one_way_latency` is the frame's nominal flight time and
  /// floors the retransmit timeout.
  Seq send(LinkKey link, Frame frame, double one_way_latency) {
    SenderState& s = senders_[link];
    Seq seq = s.next_seq++;
    Pending& p = s.pending[seq];
    p.frame = std::move(frame);
    p.latency = one_way_latency;
    p.timeout = timeout_floor(one_way_latency);
    ++stats_.data_frames;
    hooks_.transmit(link, seq, p.frame, p.latency, /*attempt=*/0);
    arm_timer(link, seq);
    return seq;
  }

  /// The frame the sender of `link` still holds under `seq`, or nullptr
  /// once it was acked, given up or reset.
  const Frame* pending_frame(LinkKey link, Seq seq) const {
    auto sit = senders_.find(link);
    if (sit == senders_.end()) return nullptr;
    auto pit = sit->second.pending.find(seq);
    return pit == sit->second.pending.end() ? nullptr : &pit->second.frame;
  }

  /// A copy of data frame `seq` arrived at `link.dst`. `sender_base` is the
  /// window base it carried; `gen` the link generation it was stamped with.
  /// The frame is taken by value: the caller's copy may be the sender's
  /// held frame, which a hand-up during the hole healing below may reset.
  void on_data_frame(LinkKey link, Seq seq, Seq sender_base,
                     std::uint64_t gen, Frame frame) {
    if (gen != generation(link)) {
      ++stats_.stale_generation;
      return;  // frame from a dead incarnation of this link: no ack
    }
    ReceiverState& r = receivers_[link];
    // Heal abandoned holes: the sender's base has moved past sequences it
    // gave up on; anything below it will never arrive, so skip forward,
    // delivering any frames we had buffered along the way.
    advance(link, r, sender_base);
    if (seq >= r.base + cfg_.window) return;  // beyond window: drop, no ack
    // Ack every acceptable data frame, duplicates included — the original
    // ack may have been lost, and the sender needs one to stop
    // retransmitting.
    hooks_.send_ack(link, seq);
    if (seq < r.base || r.buffered.contains(seq)) {
      ++stats_.dup_frames;
      return;
    }
    r.buffered.emplace(seq, std::move(frame));
    advance(link, r);  // deliver the in-order run starting at base
  }

  /// An ack arrived back at `link.src`.
  void on_ack_frame(LinkKey link, Seq seq, std::uint64_t gen) {
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
  }

  /// The endpoint died (or a spare took over its role): abandon all
  /// conversations touching it, dropping the frames held for them without
  /// escalation, and bump generations so stragglers from the old
  /// incarnation are inert.
  void reset_endpoint(int endpoint) {
    for (auto& [link, s] : senders_) {
      if (link.src != endpoint && link.dst != endpoint) continue;
      for (auto& [seq, p] : s.pending) hooks_.cancel(p.timer);
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

  /// Frames the senders hold, unacked, across all links.
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const auto& [link, s] : senders_) n += s.pending.size();
    return n;
  }

  /// Frames the receivers hold out of order, not yet handed up.
  std::size_t buffered() const {
    std::size_t n = 0;
    for (const auto& [link, r] : receivers_) n += r.buffered.size();
    return n;
  }

 private:
  /// The timeout is floored at this multiple of the frame's one-way latency
  /// so that bulk frames (checkpoint images) in flight for several
  /// milliseconds are not spuriously retransmitted.
  static constexpr double kMinTimeoutRttFactor = 3.0;

  struct Pending {
    Frame frame;
    int attempts = 0;       ///< retransmits performed so far
    double timeout = 0.0;   ///< current retransmit timeout
    double latency = 0.0;   ///< nominal one-way flight time
    TimerId timer = 0;
  };
  struct SenderState {
    Seq next_seq = 1;
    std::map<Seq, Pending> pending;
  };
  struct ReceiverState {
    Seq base = 1;  ///< next in-order sequence expected
    std::map<Seq, Frame> buffered;  ///< received out of order, not handed up
  };

  double timeout_floor(double latency) const {
    return std::max(cfg_.base_timeout, kMinTimeoutRttFactor * latency);
  }

  void arm_timer(LinkKey link, Seq seq) {
    auto sit = senders_.find(link);
    ACR_REQUIRE(sit != senders_.end(), "arm_timer on unknown link");
    auto pit = sit->second.pending.find(seq);
    ACR_REQUIRE(pit != sit->second.pending.end(), "arm_timer on unknown seq");
    pit->second.timer =
        hooks_.schedule(pit->second.timeout, [this, link, seq] {
          on_timeout(link, seq);
        });
  }

  void on_timeout(LinkKey link, Seq seq) {
    auto sit = senders_.find(link);
    if (sit == senders_.end()) return;  // endpoint reset raced the timer
    auto pit = sit->second.pending.find(seq);
    if (pit == sit->second.pending.end()) return;  // acked meanwhile
    Pending& p = pit->second;
    ++p.attempts;
    if (p.attempts > cfg_.retry_budget) {
      ++stats_.gave_up;
      sit->second.pending.erase(pit);
      hooks_.give_up(link, seq);
      return;
    }
    ++stats_.retransmits;
    // Exponential backoff, capped — but never below the frame's flight-time
    // floor (bulk frames legitimately take several base_timeouts to arrive).
    double floor = timeout_floor(p.latency);
    p.timeout = std::min(std::max(cfg_.max_timeout, floor),
                         p.timeout * cfg_.backoff);
    hooks_.transmit(link, seq, p.frame, p.latency, p.attempts);
    arm_timer(link, seq);
  }

  /// Move the receive base up to `upto` and on past every buffered frame,
  /// handing the buffered frames up in sequence order. A hand-up may reset
  /// this link's endpoint; the loop then goes on from the reset base.
  void advance(LinkKey link, ReceiverState& r, Seq upto = 0) {
    while (r.base < upto || r.buffered.contains(r.base)) {
      auto it = r.buffered.find(r.base);
      if (it != r.buffered.end()) {
        Frame frame = std::move(it->second);
        r.buffered.erase(it);
        ++stats_.delivered;
        hooks_.deliver(link, r.base, std::move(frame));
      }
      ++r.base;
    }
  }

  ReliableConfig cfg_;
  Hooks hooks_;
  LinkStats stats_;
  std::map<LinkKey, SenderState> senders_;
  std::map<LinkKey, ReceiverState> receivers_;
  std::map<LinkKey, std::uint64_t> generations_;
};

}  // namespace acr::net
