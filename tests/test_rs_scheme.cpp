// RsScheme unit tests: the multi-parity encode/rebuild algebra driven
// purely through its Hooks — a miniature in-memory "group" with
// synchronous delivery, no cluster, no clock. m = 1 cases cover the
// single-parity (RAID-5, --ckpt-scheme=xor) configuration. The
// corrupted-piece tests pin the
// verify-on-rebuild contract: a reconstruction whose CRC32C disagrees
// with what the survivors recorded must degrade down the recovery ladder,
// never silently promote. The delta cases pin on_verified's gate: a round
// ships diffs only against a base that fits, and otherwise a full round.
// The AgentRs cases check which node agents hold an RsScheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/crc32c.h"
#include "ckpt/codec.h"
#include "ckpt/group.h"
#include "ckpt/rs.h"
#include "common/rng.h"

namespace acr::ckpt {
namespace {

pup::Checkpoint make_image(std::size_t size, std::uint64_t salt) {
  Pcg32 rng(salt, 0xC4u);
  std::vector<std::byte> bytes(size);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.bounded(256));
  return pup::Checkpoint(std::move(bytes));
}

Image make_stored(std::uint64_t epoch, std::uint64_t iteration,
                  std::size_t size, std::uint64_t salt) {
  Image img;
  img.valid = true;
  img.epoch = epoch;
  img.iteration = iteration;
  img.image = make_image(size, salt);
  return img;
}

/// A wired group of RsScheme instances whose hooks deliver synchronously.
struct RsMiniGroup {
  RsMiniGroup(int nodes, int group_size, int parity, CodecConfig codec = {})
      : map(nodes, group_size), parity(parity), codec(codec) {
    for (int i = 0; i < nodes; ++i) schemes.push_back(make_scheme(i));
  }

  std::unique_ptr<RsScheme> make_scheme(int index) {
    RsScheme::Hooks hooks;
    hooks.send_chunk = [this, index](int dst, const RsChunkMsg& msg,
                                     buf::Buffer chunk) {
      if (drop_chunks) return;
      schemes[static_cast<std::size_t>(dst)]->on_chunk(index, msg, chunk);
      if (duplicate_chunks)
        schemes[static_cast<std::size_t>(dst)]->on_chunk(index, msg, chunk);
    };
    hooks.send_delta_chunk = [this, index](int dst,
                                           const RsDeltaChunkMsg& msg,
                                           buf::Buffer payload) {
      if (drop_chunks) return;
      schemes[static_cast<std::size_t>(dst)]->on_delta_chunk(index, msg,
                                                             payload);
    };
    hooks.send_piece = [this, index](int dst, const RsPieceMsg& msg,
                                     buf::Buffer image) {
      RsPieceMsg m = msg;
      // In-flight parity corruption: structurally sound (lengths intact),
      // algebraically wrong — only the CRC check can catch it.
      if (corrupt_piece_from == index)
        for (auto& b : m.parity) b = static_cast<std::uint8_t>(b ^ 0xFF);
      schemes[static_cast<std::size_t>(dst)]->on_piece(index, m, image);
    };
    hooks.report_impossible = [this](std::uint64_t barrier) {
      impossible_barriers.push_back(barrier);
    };
    hooks.restore_rebuilt = [this, index](Image img, std::uint64_t barrier) {
      rebuilt[index] = std::move(img);
      rebuilt_barrier = barrier;
    };
    return std::make_unique<RsScheme>(map, index, parity, codec,
                                      std::move(hooks));
  }

  GroupMap map;
  int parity;
  CodecConfig codec;
  std::vector<std::unique_ptr<RsScheme>> schemes;
  std::map<int, Image> rebuilt;
  std::vector<std::uint64_t> impossible_barriers;
  std::uint64_t rebuilt_barrier = 0;
  bool duplicate_chunks = false;
  bool drop_chunks = false;
  int corrupt_piece_from = -1;
};

std::vector<Image> exchange_epoch(RsMiniGroup& g, std::uint64_t epoch,
                                  std::size_t base_size) {
  std::vector<Image> images;
  for (int i = 0; i < static_cast<int>(g.schemes.size()); ++i) {
    // Unequal sizes on purpose: the chunk grid must zero-extend correctly.
    images.push_back(make_stored(epoch, epoch * 10, base_size + 7u * i,
                                 epoch * 100 + i));
  }
  for (int i = 0; i < static_cast<int>(g.schemes.size()); ++i)
    g.schemes[static_cast<std::size_t>(i)]->on_verified(images[i]);
  return images;
}

/// Kill `dead` (fresh schemes take over their indices), run the rebuild
/// wave, and require every dead image back bitwise.
void expect_multi_rebuild(RsMiniGroup& g, const std::vector<Image>& images,
                          std::vector<int> dead, std::uint64_t barrier) {
  std::sort(dead.begin(), dead.end());
  for (int d : dead)
    g.schemes[static_cast<std::size_t>(d)] = g.make_scheme(d);
  for (int i = 0; i < static_cast<int>(g.schemes.size()); ++i) {
    if (std::binary_search(dead.begin(), dead.end(), i)) continue;
    g.schemes[static_cast<std::size_t>(i)]->on_rebuild_request(dead, barrier,
                                                               images[i]);
  }
  for (int d : dead) {
    ASSERT_TRUE(g.rebuilt.count(d)) << "dead=" << d;
    const Image& got = g.rebuilt[d];
    const Image& want = images[static_cast<std::size_t>(d)];
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.iteration, want.iteration);
    ASSERT_EQ(got.image.size(), want.image.size()) << "dead=" << d;
    EXPECT_TRUE(std::equal(got.image.bytes().begin(), got.image.bytes().end(),
                           want.image.bytes().begin()))
        << "rebuilt image differs bitwise (dead=" << d << ")";
  }
  EXPECT_EQ(g.rebuilt_barrier, barrier);
  g.rebuilt.clear();
}

TEST(CkptRsScheme, ParityCompletesAfterAllChunksArrive) {
  RsMiniGroup g(5, 5, 2);
  exchange_epoch(g, 1, 90);
  for (const auto& s : g.schemes) {
    EXPECT_TRUE(s->parity_complete_for(1));
    EXPECT_GT(s->redundancy_bytes(), 0u);
    // Each member ships k chunks to m holders each.
    EXPECT_EQ(s->stats().parity_chunks_sent,
              static_cast<std::uint64_t>((5 - 2) * 2));
  }
}

TEST(CkptRsScheme, SingleParityRebuildsAnySingleLoss) {
  // m = 1 is the RAID-5 rotation over GF(256); member r's chunks are
  // scaled by coeff(1, 0, r) = inv(1 + r), not folded as plain XOR.
  for (int dead = 0; dead < 4; ++dead) {
    RsMiniGroup g(4, 4, 1);
    std::vector<Image> images = exchange_epoch(g, 1, 61);
    expect_multi_rebuild(g, images, {dead}, 10);
    EXPECT_TRUE(g.impossible_barriers.empty());
  }
}

TEST(CkptRsScheme, DoubleParityRebuildsEveryPairOfLosses) {
  for (int d1 = 0; d1 < 4; ++d1) {
    for (int d2 = d1 + 1; d2 < 4; ++d2) {
      RsMiniGroup g(4, 4, 2);
      std::vector<Image> images = exchange_epoch(g, 1, 83);
      expect_multi_rebuild(g, images, {d1, d2}, 7);
      EXPECT_TRUE(g.impossible_barriers.empty())
          << "dead={" << d1 << "," << d2 << "}";
    }
  }
}

TEST(CkptRsScheme, TripleParityRebuildsEveryTripleOfLosses) {
  for (int d1 = 0; d1 < 5; ++d1)
    for (int d2 = d1 + 1; d2 < 5; ++d2)
      for (int d3 = d2 + 1; d3 < 5; ++d3) {
        RsMiniGroup g(5, 5, 3);
        std::vector<Image> images = exchange_epoch(g, 1, 47);
        expect_multi_rebuild(g, images, {d1, d2, d3}, 9);
        EXPECT_TRUE(g.impossible_barriers.empty());
      }
}

TEST(CkptRsScheme, PartialLossWithinBudgetRebuilds) {
  // f < m: one dead under double parity still rebuilds (and exercises the
  // surviving-slot selection when extra equations are available).
  RsMiniGroup g(4, 4, 2);
  std::vector<Image> images = exchange_epoch(g, 1, 120);
  expect_multi_rebuild(g, images, {2}, 3);
}

TEST(CkptRsScheme, RebuildAfterLaterEpochUsesTheLatestParity) {
  RsMiniGroup g(4, 4, 2);
  exchange_epoch(g, 1, 64);
  std::vector<Image> images = exchange_epoch(g, 2, 80);
  for (const auto& s : g.schemes) {
    EXPECT_TRUE(s->parity_complete_for(2));
    EXPECT_FALSE(s->parity_complete_for(1));
  }
  expect_multi_rebuild(g, images, {0, 3}, 11);
}

TEST(CkptRsScheme, DuplicatedChunksDoNotCorruptParity) {
  // GF fold of a duplicate would cancel the contribution (x ^ x = 0); the
  // identity set must make at-least-once delivery idempotent.
  RsMiniGroup g(4, 4, 2);
  g.duplicate_chunks = true;
  std::vector<Image> images = exchange_epoch(g, 1, 57);
  expect_multi_rebuild(g, images, {1, 2}, 6);
}

TEST(CkptRsScheme, IncompleteParityReportsImpossible) {
  for (int m : {1, 2}) {
    RsMiniGroup g(4, 4, m);
    g.drop_chunks = true;  // parity exchange never happens
    std::vector<Image> images = exchange_epoch(g, 1, 50);
    g.schemes[0] = g.make_scheme(0);
    g.schemes[1]->on_rebuild_request({0}, 9, images[1]);
    EXPECT_TRUE(g.rebuilt.empty());
    ASSERT_EQ(g.impossible_barriers.size(), 1u) << "m=" << m;
    EXPECT_EQ(g.impossible_barriers[0], 9u);
  }
}

TEST(CkptRsScheme, DeadSetBeyondParityBudgetReportsImpossible) {
  // Three dead under m = 2: undecodable no matter what arrives. The spare
  // must refuse, not solve a singular system.
  RsMiniGroup g(4, 4, 2);
  std::vector<Image> images = exchange_epoch(g, 1, 66);
  for (int d : {0, 1, 2})
    g.schemes[static_cast<std::size_t>(d)] = g.make_scheme(d);
  g.schemes[3]->on_rebuild_request({0, 1, 2}, 13, images[3]);
  EXPECT_TRUE(g.rebuilt.empty());
  EXPECT_FALSE(g.impossible_barriers.empty());
}

TEST(CkptRsScheme, CorruptedParityPieceIsRejectedNotPromoted) {
  // Satellite: verify-on-rebuild. A survivor's parity blob is flipped in
  // flight — structurally valid, algebraically wrong. The spare's
  // reconstruction fails its recorded CRC32C, is counted as rejected, and
  // falls down the ladder instead of silently installing garbage state.
  RsMiniGroup g(4, 4, 2);
  std::vector<Image> images = exchange_epoch(g, 1, 73);
  g.corrupt_piece_from = 2;  // holds slot 0 of stripe 2 (dead 0's chunk 1)
  g.schemes[0] = g.make_scheme(0);
  for (int i = 1; i < 4; ++i)
    g.schemes[static_cast<std::size_t>(i)]->on_rebuild_request({0}, 21,
                                                               images[i]);
  EXPECT_TRUE(g.rebuilt.empty()) << "corrupted rebuild was promoted";
  ASSERT_FALSE(g.impossible_barriers.empty());
  EXPECT_EQ(g.impossible_barriers[0], 21u);
  EXPECT_EQ(g.schemes[0]->stats().rebuilds_rejected, 1u);
  EXPECT_EQ(g.schemes[0]->stats().rebuilds_completed, 0u);
}

TEST(CkptRsScheme, StatsSplitEncodeFromRebuildTraffic) {
  RsMiniGroup g(4, 4, 2);
  std::vector<Image> images = exchange_epoch(g, 1, 64);
  const RsScheme::Stats& st = g.schemes[0]->stats();
  EXPECT_EQ(st.parity_chunks_sent, 4u);  // k=2 chunks x m=2 holders
  EXPECT_GT(st.parity_bytes_sent, 0u);
  EXPECT_EQ(st.rebuild_pieces_sent, 0u);
  expect_multi_rebuild(g, images, {2, 3}, 5);
  EXPECT_EQ(g.schemes[2]->stats().rebuilds_completed, 1u);
  EXPECT_EQ(g.schemes[3]->stats().rebuilds_completed, 1u);
  // Each survivor shipped one piece per dead spare.
  EXPECT_EQ(g.schemes[0]->stats().rebuild_pieces_sent, 2u);
  EXPECT_GT(g.schemes[0]->stats().rebuild_bytes_sent, 0u);
}

TEST(CkptRsScheme, ResetForgetsParity) {
  RsMiniGroup g(4, 4, 2);
  exchange_epoch(g, 1, 64);
  g.schemes[2]->reset();
  EXPECT_FALSE(g.schemes[2]->parity_complete_for(1));
  EXPECT_EQ(g.schemes[2]->redundancy_bytes(), 0u);
}

/// `base` at epoch `epoch` with a few bytes flipped (sizes unchanged).
std::vector<Image> mutate_epoch(const std::vector<Image>& base,
                                std::uint64_t epoch) {
  std::vector<Image> next;
  for (const Image& b : base) {
    Image img = b;
    img.epoch = epoch;
    img.iteration = epoch * 10;
    std::vector<std::byte> bytes(img.image.bytes().begin(),
                                 img.image.bytes().end());
    bytes[3] ^= std::byte{0x5A};
    bytes[bytes.size() / 2] ^= std::byte{0xC3};
    img.image = pup::Checkpoint(std::move(bytes));
    next.push_back(std::move(img));
  }
  return next;
}

/// One kDigestChunk-grid digest per image: the test images are smaller
/// than one chunk.
std::vector<std::uint32_t> digests_of(const Image& img) {
  return {checksum::crc32c(img.image.bytes())};
}

TEST(CkptRsScheme, DeltaRoundAdvancesParityBitwise) {
  // Epoch 1 exchanges full chunks; epoch 2 ships only the dirty diff
  // against a DeltaBase, and the holders advance their seeded parity by
  // C * diff. A double loss rebuilt from the delta-built round must still
  // be exact.
  CodecConfig codec;
  codec.delta = DeltaMode::On;
  RsMiniGroup g(4, 4, 2, codec);
  std::vector<Image> base = exchange_epoch(g, 1, 96);
  std::vector<Image> next = mutate_epoch(base, 2);
  for (int i = 0; i < 4; ++i) {
    const Image& b = base[static_cast<std::size_t>(i)];
    DeltaBase db{1, b.image.buffer(), digests_of(b)};
    g.schemes[static_cast<std::size_t>(i)]->on_verified(
        next[static_cast<std::size_t>(i)], &db,
        digests_of(next[static_cast<std::size_t>(i)]));
  }
  for (const auto& s : g.schemes) {
    EXPECT_TRUE(s->parity_complete_for(2));
    EXPECT_GT(s->stats().parity_delta_chunks_sent, 0u);
    EXPECT_EQ(s->stats().parity_rounds_poisoned, 0u);
  }
  expect_multi_rebuild(g, next, {0, 2}, 15);
}

TEST(CkptRsScheme, DeltaGateFallsBackToAFullRound) {
  // Each row breaks one condition of on_verified's delta gate; the round
  // must then ship full chunks and still rebuild bitwise. The control row
  // breaks none and must ship deltas.
  CodecConfig delta;
  delta.delta = DeltaMode::On;
  CodecConfig compress_only;
  compress_only.compress = CompressMode::Lz;
  struct Case {
    const char* what;
    CodecConfig codec;
    bool null_base;
    std::uint64_t base_epoch;
    std::uint64_t epoch;  ///< the group completed epoch - 1 before
    std::size_t base_extra_bytes;
    std::size_t extra_digests;
    bool expect_delta;
  };
  const Case cases[] = {
      {"control", delta, false, 2, 3, 0, 0, true},
      {"null base", delta, true, 2, 3, 0, 0, false},
      {"base of another size", delta, false, 2, 3, 5, 0, false},
      {"digest-count mismatch", delta, false, 2, 3, 0, 1, false},
      {"cadence epoch", delta, false, 4, 5, 0, 0, false},  // 5 % 4 == 1
      {"delta stage off", compress_only, false, 2, 3, 0, 0, false},
      {"no base epoch", delta, false, 0, 3, 0, 0, false},
      {"base not older", delta, false, 3, 3, 0, 0, false},
  };
  for (const Case& c : cases) {
    RsMiniGroup g(4, 4, 2, c.codec);
    std::vector<Image> base = exchange_epoch(g, c.epoch - 1, 96);
    std::vector<Image> next = mutate_epoch(base, c.epoch);
    for (int i = 0; i < 4; ++i) {
      const Image& b = base[static_cast<std::size_t>(i)];
      const Image& n = next[static_cast<std::size_t>(i)];
      DeltaBase db{c.base_epoch, b.image.buffer(), digests_of(b)};
      if (c.base_extra_bytes > 0) {
        std::vector<std::byte> longer(b.image.size() + c.base_extra_bytes);
        std::copy(b.image.bytes().begin(), b.image.bytes().end(),
                  longer.begin());
        db.image = buf::Buffer::wrap(std::move(longer));
      }
      std::vector<std::uint32_t> dg = digests_of(n);
      dg.resize(dg.size() + c.extra_digests);
      g.schemes[static_cast<std::size_t>(i)]->on_verified(
          n, c.null_base ? nullptr : &db, dg);
    }
    for (const auto& s : g.schemes) {
      EXPECT_TRUE(s->parity_complete_for(c.epoch)) << c.what;
      EXPECT_EQ(s->stats().parity_delta_chunks_sent > 0, c.expect_delta)
          << c.what;
      EXPECT_EQ(s->stats().parity_rounds_poisoned, 0u) << c.what;
    }
    expect_multi_rebuild(g, next, {0, 2}, 15);
  }
}

// --ckpt-scheme=xor is RsScheme with one parity block; these cases pin
// that configuration at its edges.

TEST(CkptXorScheme, MinimumGroupOfTwoDegeneratesToMirroring) {
  // n = 2: k = 1, so each chunk is a whole image and the partner's parity
  // block is a (scaled) full copy of it.
  for (int dead = 0; dead < 2; ++dead) {
    RsMiniGroup g(2, 2, 1);
    std::vector<Image> images = exchange_epoch(g, 1, 33);
    expect_multi_rebuild(g, images, {dead}, 4);
    EXPECT_TRUE(g.impossible_barriers.empty());
  }
}

TEST(CkptXorScheme, ParityEpochBehindVerifiedReportsImpossible) {
  // The member died between a commit and the parity exchange: survivors'
  // verified epoch moved ahead of their complete parity.
  RsMiniGroup g(4, 4, 1);
  exchange_epoch(g, 1, 64);
  g.drop_chunks = true;
  std::vector<Image> images = exchange_epoch(g, 2, 64);  // chunks lost
  g.schemes[0] = g.make_scheme(0);
  g.schemes[1]->on_rebuild_request({0}, 12, images[1]);
  EXPECT_TRUE(g.rebuilt.empty());
  ASSERT_EQ(g.impossible_barriers.size(), 1u);
  EXPECT_EQ(g.impossible_barriers[0], 12u);
}

}  // namespace
}  // namespace acr::ckpt

namespace acr {
namespace {

/// A job of six nodes per replica, set up but not run. Under rs, groups of
/// four leave the tail group {4, 5}; one parity block fits both.
std::unique_ptr<AcrRuntime> six_node_job(ckpt::Scheme redundancy) {
  apps::Jacobi3DConfig app;
  app.tasks_x = 2;
  app.tasks_y = 3;
  app.tasks_z = 1;
  app.slots_per_node = 1;
  app.block_x = app.block_y = app.block_z = 4;
  AcrConfig ac;
  ac.redundancy = redundancy;
  ac.rs_parity = 1;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  auto job = std::make_unique<AcrRuntime>(ac, cc);
  job->set_task_factory(app.factory());
  job->setup();
  return job;
}

TEST(AgentRs, HeldOnlyUnderRs) {
  for (ckpt::Scheme scheme :
       {ckpt::Scheme::Local, ckpt::Scheme::Partner, ckpt::Scheme::Rs}) {
    std::unique_ptr<AcrRuntime> job = six_node_job(scheme);
    for (int r = 0; r < 2; ++r)
      for (int i = 0; i < 6; ++i)
        EXPECT_EQ(job->agent_at(r, i).rs() != nullptr,
                  scheme == ckpt::Scheme::Rs)
            << ckpt::scheme_name(scheme) << " (" << r << "," << i << ")";
  }
}

TEST(AgentRs, RebindToANewIndexRebuildsForTheNewGroup) {
  // A repaired node promoted into another role keeps its agent; the agent
  // must rebuild its rs state for the new index's group.
  std::unique_ptr<AcrRuntime> job = six_node_job(ckpt::Scheme::Rs);
  NodeAgent& agent = job->agent_at(0, 1);
  ASSERT_NE(agent.rs(), nullptr);
  EXPECT_EQ(agent.rs()->group_size(), 4);
  job->cluster().node_at(0, 1).assign(0, 5);
  agent.rebind_role();
  ASSERT_NE(agent.rs(), nullptr);
  EXPECT_EQ(agent.rs()->group_size(), 2);
}

}  // namespace
}  // namespace acr
