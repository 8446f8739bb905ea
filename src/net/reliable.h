// Per-link reliable delivery: acks, timeouts, retransmits, dedup.
//
// The ACR control protocols (consensus phases, buddy checksum exchange,
// spare promotion) assume the transport loses nothing, duplicates nothing,
// and preserves per-link order. `ReliableTransport` provides exactly that
// over a lossy wire, TCP-style:
//
//   sender                                   receiver
//   ------                                   --------
//   seq = next_seq++                         on data(seq):
//   transmit(seq); arm timer                   ack(seq) always
//   on timeout: attempts++                     if seq below window base or
//     attempts > budget -> give_up                already buffered: dup, done
//     else retransmit, backoff*=2 (capped)     else buffer; deliver the
//   on ack(seq): cancel timer, release           in-order run from base
//
// The class is message-agnostic: it tracks sequence numbers and timers and
// calls back through `Hooks` for everything environment-specific (actual
// transmission, timer scheduling, delivery, payload storage). That keeps
// `net` free of a dependency on `rt` — the cluster owns the payload store
// and the event engine and wires them in.
//
// Two robustness details shaped the design:
//   - Link generations. When an endpoint dies and a spare is promoted, the
//     promoted node must not be confused by in-flight frames or acks from
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

#include <cstdint>
#include <functional>
#include <map>
#include <set>

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
    /// Put frame `seq` on the wire (attempt 0 = first transmission).
    std::function<void(LinkKey, Seq, int attempt)> transmit;
    /// Put an ack for `seq` on the (reverse) wire.
    std::function<void(LinkKey, Seq)> send_ack;
    /// Frame `seq` is next in order: hand it up to the application.
    std::function<void(LinkKey, Seq)> deliver;
    /// The retry budget for `seq` is exhausted; the link is declared failed.
    std::function<void(LinkKey, Seq)> give_up;
    /// The payload for `seq` is no longer needed (acked, given up, or the
    /// endpoint was reset); the owner may free its stored copy.
    std::function<void(LinkKey, Seq)> release;
  };

  ReliableTransport(const ReliableConfig& cfg, Hooks hooks)
      : cfg_(cfg), hooks_(std::move(hooks)) {}

  const ReliableConfig& config() const { return cfg_; }
  const LinkStats& stats() const { return stats_; }

  /// Current link generation (stamped into frames by the owner and checked
  /// on arrival against the receiving end's view).
  std::uint64_t generation(LinkKey link) const;

  /// The sender's lowest unacked sequence (frames below it were delivered or
  /// abandoned). Stamped into data frames so the receiver can heal holes.
  Seq window_base(LinkKey link) const;

  /// Begin reliable transmission of a new frame; returns its sequence
  /// number. `one_way_latency` is the frame's nominal flight time and floors
  /// the retransmit timeout.
  Seq send(LinkKey link, double one_way_latency);

  /// A data frame arrived at `link.dst`. `sender_base` is the window base it
  /// carried; `generation` the link generation it was stamped with.
  void on_data_frame(LinkKey link, Seq seq, Seq sender_base,
                     std::uint64_t generation);

  /// An ack arrived back at `link.src`.
  void on_ack_frame(LinkKey link, Seq seq, std::uint64_t generation);

  /// The endpoint died (or a spare took over its role): abandon all
  /// conversations touching it, release their payloads without escalation,
  /// and bump generations so stragglers from the old incarnation are inert.
  void reset_endpoint(int endpoint);

  /// Outstanding unacked frames across all links (test/debug aid).
  std::size_t in_flight() const;

 private:
  struct Pending {
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
    Seq base = 1;             ///< next in-order sequence expected
    std::set<Seq> buffered;   ///< received out of order, not yet delivered
  };

  void arm_timer(LinkKey link, Seq seq);
  void on_timeout(LinkKey link, Seq seq);

  ReliableConfig cfg_;
  Hooks hooks_;
  LinkStats stats_;
  std::map<LinkKey, SenderState> senders_;
  std::map<LinkKey, ReceiverState> receivers_;
  std::map<LinkKey, std::uint64_t> generations_;
};

}  // namespace acr::net
