// ReliableTransport and NetFaultInjector unit tests.
//
// The transport is exercised against a scripted wire built on the real
// rt::Engine: the harness's hooks decide per-frame whether a transmission
// reaches the far end, with what extra latency, and whether acks survive
// the return trip. This mirrors how rt::Cluster wires the transport in,
// with a plain integer as the frame instead of a message: each send()
// numbers its frame, so every hand-up can be checked against what was sent
// under that sequence.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "failure/net_faults.h"
#include "net/reliable.h"
#include "rt/engine.h"

namespace acr::net {
namespace {

using Transport = ReliableTransport<int>;
using Seq = Transport::Seq;

/// Single-link scripted wire. Frames flow src=0 -> dst=1.
struct Harness {
  rt::Engine engine;
  ReliableConfig cfg;
  LinkKey link{0, 1};
  double latency = 1e-4;

  /// Scripted loss: return true to eat this (re)transmission.
  std::function<bool(Seq, int attempt)> lose_frame = [](Seq, int) {
    return false;
  };
  /// Scripted extra flight time per (seq, attempt).
  std::function<double(Seq, int attempt)> extra_delay = [](Seq, int) {
    return 0.0;
  };
  bool lose_acks = false;
  /// Deliver every arriving frame twice (wire-level duplication).
  bool duplicate_arrivals = false;

  std::vector<Seq> delivered;
  std::vector<Seq> gave_up;
  std::vector<double> transmit_times;  ///< every (re)transmission instant
  std::map<Seq, int> attempts_seen;

  Transport transport;

  Harness() : transport(cfg, hooks()) {}
  explicit Harness(const ReliableConfig& c) : cfg(c), transport(cfg, hooks()) {}

  int next_frame = 1000;
  std::map<Seq, int> frames_sent;  ///< the frame last sent under each seq

  /// Reliably send a freshly numbered frame.
  Seq send(double one_way_latency) {
    int frame = next_frame++;
    Seq seq = transport.send(link, frame, one_way_latency);
    frames_sent[seq] = frame;
    EXPECT_EQ(*transport.pending_frame(link, seq), frame);
    return seq;
  }
  Seq send() { return send(latency); }

  /// Whether the sender still holds frame `seq`.
  bool held(Seq seq) const {
    return transport.pending_frame(link, seq) != nullptr;
  }

  Transport::Hooks hooks() {
    Transport::Hooks h;
    h.schedule = [this](double delay, std::function<void()> fn) {
      return engine.schedule_after(delay, std::move(fn));
    };
    h.cancel = [this](Transport::TimerId id) { engine.cancel(id); };
    h.transmit = [this](LinkKey l, Seq seq, const int& frame, double,
                        int attempt) {
      transmit_times.push_back(engine.now());
      attempts_seen[seq] = attempt;
      if (lose_frame(seq, attempt)) return;
      // Generation and window base are stamped at transmit time, exactly as
      // the cluster does.
      std::uint64_t gen = transport.generation(l);
      Seq base = transport.window_base(l);
      double flight = latency + extra_delay(seq, attempt);
      int copies = duplicate_arrivals ? 2 : 1;
      for (int c = 0; c < copies; ++c)
        engine.schedule_after(flight + c * latency,
                              [this, l, seq, base, gen, frame] {
                                transport.on_data_frame(l, seq, base, gen,
                                                        frame);
                              });
    };
    h.send_ack = [this](LinkKey l, Seq seq) {
      if (lose_acks) return;
      std::uint64_t gen = transport.generation(l);
      engine.schedule_after(latency, [this, l, seq, gen] {
        transport.on_ack_frame(l, seq, gen);
      });
    };
    h.deliver = [this](LinkKey, Seq seq, int frame) {
      delivered.push_back(seq);
      EXPECT_EQ(frame, frames_sent.at(seq)) << "seq " << seq;
    };
    h.give_up = [this](LinkKey l, Seq seq) {
      gave_up.push_back(seq);
      // The frame is dropped before the link is declared failed.
      EXPECT_EQ(transport.pending_frame(l, seq), nullptr);
    };
    return h;
  }
};

TEST(ReliableTransport, CleanWireDeliversInOrder) {
  Harness h;
  for (int i = 0; i < 10; ++i) h.send();
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 10u);
  for (Seq s = 1; s <= 10; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_EQ(h.transport.in_flight(), 0u);
  // Every frame was dropped by its ack, and none is left at the receiver.
  for (Seq s = 1; s <= 10; ++s) EXPECT_FALSE(h.held(s)) << "seq " << s;
  EXPECT_EQ(h.transport.buffered(), 0u);
  EXPECT_TRUE(h.gave_up.empty());
  EXPECT_EQ(h.transport.stats().retransmits, 0u);
}

TEST(ReliableTransport, RetransmitsRecoverLostFrames) {
  Harness h;
  // First attempt of every third frame is eaten; retransmits survive.
  h.lose_frame = [](Seq seq, int attempt) {
    return attempt == 0 && seq % 3 == 0;
  };
  for (int i = 0; i < 12; ++i) h.send();
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 12u);
  for (Seq s = 1; s <= 12; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_EQ(h.transport.stats().retransmits, 4u);  // seqs 3, 6, 9, 12
  EXPECT_EQ(h.transport.in_flight(), 0u);
}

TEST(ReliableTransport, ReorderedFramesDeliverInOrder) {
  Harness h;
  // Odd frames take a scenic route: they arrive after later even frames.
  h.extra_delay = [&](Seq seq, int) {
    return (seq % 2 == 1) ? 20 * h.latency : 0.0;
  };
  for (int i = 0; i < 10; ++i) h.send();
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 10u);
  for (Seq s = 1; s <= 10; ++s) EXPECT_EQ(h.delivered[s - 1], s);
}

TEST(ReliableTransport, DuplicatesSuppressedDeliveredOnce) {
  Harness h;
  h.duplicate_arrivals = true;
  for (int i = 0; i < 8; ++i) h.send();
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 8u);
  for (Seq s = 1; s <= 8; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_GT(h.transport.stats().dup_frames, 0u);
}

TEST(ReliableTransport, LostAcksCauseDupFramesNotDupDelivery) {
  Harness h;
  h.lose_acks = true;
  h.send();
  // Let a few retransmit rounds fire, then let acks through.
  h.engine.run_until(3 * h.cfg.base_timeout);
  h.lose_acks = false;
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_GT(h.transport.stats().dup_frames, 0u);
  EXPECT_EQ(h.transport.in_flight(), 0u);
}

TEST(ReliableTransport, GiveUpAfterRetryBudgetReleasesPayload) {
  ReliableConfig cfg;
  cfg.retry_budget = 4;
  Harness h(cfg);
  h.lose_frame = [](Seq, int) { return true; };  // black-hole link
  h.send();
  h.engine.run_until(h.cfg.base_timeout / 2);
  EXPECT_TRUE(h.held(1));
  h.engine.run();
  ASSERT_EQ(h.gave_up.size(), 1u);
  EXPECT_EQ(h.gave_up[0], 1u);
  EXPECT_FALSE(h.held(1));  // the give-up dropped the frame
  // First transmission + retry_budget retransmits.
  EXPECT_EQ(h.transmit_times.size(), 1u + 4u);
  EXPECT_EQ(h.transport.in_flight(), 0u);
  EXPECT_TRUE(h.delivered.empty());
}

TEST(ReliableTransport, BackoffGrowsGeometricallyAndCaps) {
  ReliableConfig cfg;
  cfg.retry_budget = 8;
  cfg.base_timeout = 1e-3;
  cfg.backoff = 2.0;
  cfg.max_timeout = 4e-3;
  Harness h(cfg);
  h.lose_frame = [](Seq, int) { return true; };
  h.send();
  h.engine.run();
  ASSERT_EQ(h.transmit_times.size(), 9u);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < h.transmit_times.size(); ++i)
    gaps.push_back(h.transmit_times[i] - h.transmit_times[i - 1]);
  // Non-decreasing, doubling early, clamped at max_timeout late.
  EXPECT_NEAR(gaps[0], 1e-3, 1e-9);
  EXPECT_NEAR(gaps[1], 2e-3, 1e-9);
  EXPECT_NEAR(gaps[2], 4e-3, 1e-9);
  for (std::size_t i = 3; i < gaps.size(); ++i)
    EXPECT_NEAR(gaps[i], cfg.max_timeout, 1e-9) << "gap " << i;
}

TEST(ReliableTransport, TimeoutFlooredByFrameLatency) {
  Harness h;
  // A bulk frame in flight for 10x base_timeout must not be retransmitted
  // before it can possibly have been acked.
  double slow = 10 * h.cfg.base_timeout;
  h.send(slow);
  h.engine.run();
  EXPECT_EQ(h.transport.stats().retransmits, 0u);
  ASSERT_EQ(h.delivered.size(), 1u);
}

TEST(ReliableTransport, WindowBaseHealsAbandonedHole) {
  ReliableConfig cfg;
  cfg.retry_budget = 2;
  Harness h(cfg);
  // Frame 1 is black-holed; 2 and 3 arrive and are buffered behind it.
  h.lose_frame = [](Seq seq, int) { return seq == 1; };
  h.send();
  h.send();
  h.send();
  h.engine.run();
  // Sender gave up on 1; 2 and 3 were acked while buffered.
  ASSERT_EQ(h.gave_up.size(), 1u);
  EXPECT_EQ(h.gave_up[0], 1u);
  EXPECT_TRUE(h.delivered.empty());  // still holed at the receiver
  EXPECT_EQ(h.transport.buffered(), 2u);
  // The next frame carries an advanced window base; the receiver skips the
  // abandoned hole and flushes the buffered run.
  h.lose_frame = [](Seq, int) { return false; };
  h.send();
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.delivered[0], 2u);
  EXPECT_EQ(h.delivered[1], 3u);
  EXPECT_EQ(h.delivered[2], 4u);
  EXPECT_EQ(h.transport.in_flight(), 0u);
  EXPECT_EQ(h.transport.buffered(), 0u);
}

TEST(ReliableTransport, FarAheadFramesDroppedUnacked) {
  ReliableConfig cfg;
  cfg.window = 4;
  Harness h(cfg);
  // Hold frame 1 hostage long enough that 2..8 arrive first.
  h.extra_delay = [&](Seq seq, int attempt) {
    return (seq == 1 && attempt == 0) ? 50 * h.latency : 0.0;
  };
  for (int i = 0; i < 8; ++i) h.send();
  h.engine.run();
  // Everything is eventually delivered in order (frames beyond the window
  // were dropped unacked, then retransmitted once the base advanced).
  ASSERT_EQ(h.delivered.size(), 8u);
  for (Seq s = 1; s <= 8; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_GT(h.transport.stats().retransmits, 0u);
}

TEST(ReliableTransport, ResetEndpointReleasesWithoutEscalation) {
  Harness h;
  h.lose_frame = [](Seq, int) { return true; };  // receiver is dead
  h.send();
  h.send();
  h.engine.run_until(h.cfg.base_timeout / 2);
  EXPECT_EQ(h.transport.in_flight(), 2u);
  EXPECT_TRUE(h.held(1));
  EXPECT_TRUE(h.held(2));
  h.transport.reset_endpoint(1);
  EXPECT_EQ(h.transport.in_flight(), 0u);
  EXPECT_FALSE(h.held(1));
  EXPECT_FALSE(h.held(2));
  EXPECT_TRUE(h.gave_up.empty());  // endpoint death is not a link failure
  h.engine.run();                  // pending retransmit timers must be inert
  EXPECT_TRUE(h.gave_up.empty());
}

TEST(ReliableTransport, ResetEndpointDropsFramesBufferedAtReceiver) {
  Harness h;
  // Frame 1 is black-holed, so 2 and 3 wait at the receiver behind it.
  h.lose_frame = [](Seq seq, int) { return seq == 1; };
  h.send();
  h.send();
  h.send();
  h.engine.run_until(h.cfg.base_timeout / 2);
  EXPECT_EQ(h.transport.buffered(), 2u);
  EXPECT_TRUE(h.held(1));
  h.transport.reset_endpoint(0);  // the sending end dies
  EXPECT_EQ(h.transport.buffered(), 0u);
  EXPECT_EQ(h.transport.in_flight(), 0u);
  h.engine.run();
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_TRUE(h.gave_up.empty());
}

TEST(ReliableTransport, StaleGenerationFramesAreIgnored) {
  Harness h;
  // Frame 1 is in flight when the receiving endpoint is reset (spare
  // promotion): its stamped generation is now stale.
  h.extra_delay = [&](Seq, int attempt) {
    return attempt == 0 ? 5 * h.latency : 0.0;
  };
  h.send();
  h.engine.run_until(h.latency);  // frame is on the wire
  h.transport.reset_endpoint(1);
  std::uint64_t stale_before = h.transport.stats().stale_generation;
  h.engine.run_until(10 * h.latency);
  EXPECT_GT(h.transport.stats().stale_generation, stale_before);
  EXPECT_TRUE(h.delivered.empty());
  // The new incarnation's seq 1 is a fresh conversation.
  h.extra_delay = [](Seq, int) { return 0.0; };
  Seq s = h.send();
  EXPECT_EQ(s, 1u);
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0], 1u);
}

// --- NetFaultInjector -------------------------------------------------------

TEST(NetFaultInjector, DisabledInjectorPassesEverything) {
  failure::NetFaultConfig cfg;  // all rates zero
  failure::NetFaultInjector inj(cfg, 42);
  for (int i = 0; i < 100; ++i) {
    failure::NetFaultDecision d = inj.decide(0, 1, 64);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_FALSE(d.corrupt);
    EXPECT_EQ(d.extra_delay, 0.0);
  }
  EXPECT_EQ(inj.counters().frames, 100u);
  EXPECT_EQ(inj.counters().drops, 0u);
}

TEST(NetFaultInjector, SameSeedSameSchedule) {
  failure::NetFaultConfig cfg;
  cfg.drop_rate = 0.2;
  cfg.dup_rate = 0.1;
  cfg.reorder_rate = 0.3;
  cfg.corrupt_rate = 0.1;
  failure::NetFaultInjector a(cfg, 7), b(cfg, 7);
  for (int i = 0; i < 500; ++i) {
    int src = i % 5, dst = (i * 3) % 7;
    failure::NetFaultDecision da = a.decide(src, dst, 128);
    failure::NetFaultDecision db = b.decide(src, dst, 128);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.corrupt_byte, db.corrupt_byte);
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
  }
}

TEST(NetFaultInjector, PerLinkStreamsAreIndependent) {
  failure::NetFaultConfig cfg;
  cfg.drop_rate = 0.5;
  failure::NetFaultInjector a(cfg, 99), b(cfg, 99);
  // Interleaving decisions for other links must not perturb link (0,1)'s
  // schedule: each link draws from its own stream.
  std::vector<bool> plain, interleaved;
  for (int i = 0; i < 200; ++i) plain.push_back(a.decide(0, 1, 64).drop);
  for (int i = 0; i < 200; ++i) {
    b.decide(2, 3, 64);
    interleaved.push_back(b.decide(0, 1, 64).drop);
    b.decide(4, 5, 64);
  }
  EXPECT_EQ(plain, interleaved);
}

TEST(NetFaultInjector, RatesApproximatelyHonored) {
  failure::NetFaultConfig cfg;
  cfg.drop_rate = 0.3;
  cfg.dup_rate = 0.2;
  failure::NetFaultInjector inj(cfg, 1234);
  const int kFrames = 20000;
  for (int i = 0; i < kFrames; ++i) inj.decide(1, 2, 64);
  double drop_frac = double(inj.counters().drops) / kFrames;
  EXPECT_NEAR(drop_frac, 0.3, 0.02);
  // Duplicates only counted for non-dropped frames.
  double dup_frac = double(inj.counters().duplicates) / kFrames;
  EXPECT_NEAR(dup_frac, 0.2 * 0.7, 0.02);
}

TEST(NetFaultInjector, CorruptionTargetsLieInsidePayload) {
  failure::NetFaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  failure::NetFaultInjector inj(cfg, 5);
  for (int i = 0; i < 200; ++i) {
    std::size_t bytes = 1 + static_cast<std::size_t>(i) % 97;
    failure::NetFaultDecision d = inj.decide(0, 1, bytes);
    ASSERT_TRUE(d.corrupt);
    EXPECT_LT(d.corrupt_byte, bytes);
    EXPECT_LT(d.corrupt_bit, 8);
  }
}

}  // namespace
}  // namespace acr::net
