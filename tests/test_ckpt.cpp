// Unit tests for the pluggable checkpoint layer (src/ckpt): the double
// checkpoint Store's promotion state machine (including the edge cases a
// racing verdict/rollback produces), the parity GroupMap and the
// survivability rule (ckpt::recoverable). The parity
// scheme's algebra is in test_rs_scheme.cpp; the L2 blob format is in
// test_codec.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "ckpt/group.h"
#include "ckpt/redundancy.h"
#include "ckpt/store.h"
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

// ---------------------------------------------------------------------------
// Store: candidate -> verified promotion edge cases.
// ---------------------------------------------------------------------------

TEST(CkptStore, PromoteMovesCandidateToVerified) {
  Store s;
  s.stage_candidate(5, 120, make_image(64, 1));
  EXPECT_TRUE(s.has_candidate());
  EXPECT_FALSE(s.has_verified());
  EXPECT_EQ(s.promote(5), PromoteResult::Promoted);
  EXPECT_TRUE(s.has_verified());
  EXPECT_FALSE(s.has_candidate());
  EXPECT_EQ(s.verified().epoch, 5u);
  EXPECT_EQ(s.verified().iteration, 120u);
}

TEST(CkptStore, DoublePromotionIsRejected) {
  Store s;
  s.stage_candidate(5, 120, make_image(64, 1));
  ASSERT_EQ(s.promote(5), PromoteResult::Promoted);
  // A duplicated commit (at-least-once delivery) finds the slot empty; the
  // verified image must not be disturbed.
  EXPECT_EQ(s.promote(5), PromoteResult::NoCandidate);
  EXPECT_TRUE(s.has_verified());
  EXPECT_EQ(s.verified().epoch, 5u);
}

TEST(CkptStore, PromotionDuringInFlightVerdictOfAnotherEpoch) {
  Store s;
  s.stage_candidate(7, 200, make_image(64, 2));
  // Commit for an older round arrives while epoch 7's verdict is still in
  // flight: neither slot may move.
  EXPECT_EQ(s.promote(6), PromoteResult::EpochMismatch);
  EXPECT_TRUE(s.has_candidate());
  EXPECT_EQ(s.candidate().epoch, 7u);
  EXPECT_FALSE(s.has_verified());
  // The right commit then lands normally.
  EXPECT_EQ(s.promote(7), PromoteResult::Promoted);
  EXPECT_EQ(s.verified().epoch, 7u);
}

TEST(CkptStore, PromoteWithNothingStagedReportsNoCandidate) {
  Store s;
  EXPECT_EQ(s.promote(3), PromoteResult::NoCandidate);
  EXPECT_FALSE(s.has_verified());
}

TEST(CkptStore, RestorableFromCandidateAfterRollback) {
  // A node that never promoted (its commit was lost) but holds a candidate
  // for exactly the rollback epoch: that candidate passed the comparison,
  // so it is the restore source of last resort.
  Store s;
  s.stage_candidate(4, 90, make_image(48, 3));
  const Image* img = s.restorable(4);
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->epoch, 4u);
  EXPECT_EQ(img, &s.candidate());
  // A rollback to any other epoch cannot be served.
  EXPECT_EQ(s.restorable(3), nullptr);
  EXPECT_EQ(s.restorable(5), nullptr);
}

TEST(CkptStore, RestorablePrefersVerifiedOverCandidate) {
  Store s;
  s.stage_candidate(4, 90, make_image(48, 4));
  ASSERT_EQ(s.promote(4), PromoteResult::Promoted);
  s.stage_candidate(5, 110, make_image(48, 5));
  EXPECT_EQ(s.restorable(4), &s.verified());
  EXPECT_EQ(s.restorable(5), &s.candidate());
  EXPECT_EQ(s.restorable(6), nullptr);
}

TEST(CkptStore, AdoptVerifiedDiscardsStaleCandidate) {
  Store s;
  s.stage_candidate(9, 300, make_image(32, 6));
  s.adopt_verified(make_stored(8, 250, 32, 7));
  EXPECT_TRUE(s.has_verified());
  EXPECT_EQ(s.verified().epoch, 8u);
  // The candidate predates the state jump and must not survive it.
  EXPECT_FALSE(s.has_candidate());
}

TEST(CkptStore, ResetForgetsEverything) {
  Store s;
  s.stage_candidate(2, 40, make_image(16, 8));
  ASSERT_EQ(s.promote(2), PromoteResult::Promoted);
  s.stage_candidate(3, 60, make_image(16, 9));
  s.reset();
  EXPECT_FALSE(s.has_verified());
  EXPECT_FALSE(s.has_candidate());
}

// ---------------------------------------------------------------------------
// GroupMap.
// ---------------------------------------------------------------------------

TEST(CkptGroupMap, DisabledWhenGroupSizeIsZero) {
  GroupMap g(8, 0);
  EXPECT_FALSE(g.enabled());
}

TEST(CkptGroupMap, EvenSplit) {
  GroupMap g(8, 4);
  ASSERT_TRUE(g.enabled());
  EXPECT_EQ(g.num_groups(), 2);
  EXPECT_EQ(g.group_of(0), 0);
  EXPECT_EQ(g.group_of(3), 0);
  EXPECT_EQ(g.group_of(4), 1);
  EXPECT_EQ(g.group_of(7), 1);
  EXPECT_EQ(g.group_members(5), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(g.rank_in_group(5), 1);
  EXPECT_EQ(g.group_size_of(5), 4);
}

TEST(CkptGroupMap, TrailingRemainderOfOneMergesIntoPreviousGroup) {
  // 9 nodes in groups of 4: a trailing group of one node would have no
  // parity peers, so it joins the previous group (sizes 4 + 5).
  GroupMap g(9, 4);
  EXPECT_EQ(g.num_groups(), 2);
  EXPECT_EQ(g.group_size_of(0), 4);
  EXPECT_EQ(g.group_size_of(8), 5);
  EXPECT_EQ(g.group_members(8), (std::vector<int>{4, 5, 6, 7, 8}));
  EXPECT_EQ(g.rank_in_group(8), 4);
}

TEST(CkptGroupMap, LargerRemainderStandsAlone) {
  GroupMap g(7, 3);  // groups {0,1,2}, {3,4,5,6} (remainder 1 merged)
  EXPECT_EQ(g.num_groups(), 2);
  EXPECT_EQ(g.group_size_of(0), 3);
  EXPECT_EQ(g.group_size_of(6), 4);
  GroupMap h(8, 3);  // groups {0,1,2}, {3,4,5}, {6,7}
  EXPECT_EQ(h.num_groups(), 3);
  EXPECT_EQ(h.group_size_of(7), 2);
  EXPECT_EQ(h.group_members(7), (std::vector<int>{6, 7}));
}

// ---------------------------------------------------------------------------
// Survivability rule: one table of (wave, lost roles, expected) per scheme.
// Roles are (replica, node index).
// ---------------------------------------------------------------------------

using Roles = std::vector<std::pair<int, int>>;

struct SurvivalRow {
  const char* what;
  Roles wave;
  Roles lost;
  bool recoverable;
};

void check_table(Scheme scheme, const GroupMap& groups, int rs_parity,
                 const std::vector<SurvivalRow>& table) {
  for (const SurvivalRow& row : table) {
    SCOPED_TRACE(row.what);
    auto lost = [&row](int r, int i) {
      return std::ranges::find(row.lost, std::pair{r, i}) != row.lost.end();
    };
    EXPECT_EQ(recoverable(scheme, groups, rs_parity, row.wave, lost),
              row.recoverable);
  }
}

TEST(CkptRecoverable, LocalRestoresNothing) {
  check_table(Scheme::Local, GroupMap(), 0,
              {
                  {"empty wave", {}, {}, true},
                  {"empty wave, roles lost", {}, {{0, 1}, {1, 1}}, true},
                  {"one role", {{0, 3}}, {}, false},
                  {"one role of replica 1", {{1, 0}}, {}, false},
              });
}

TEST(CkptRecoverable, PartnerNeedsTheBuddy) {
  check_table(Scheme::Partner, GroupMap(), 0,
              {
                  {"buddy alive", {{0, 3}}, {}, true},
                  {"buddy lost", {{0, 3}}, {{1, 3}}, false},
                  {"replica 1's buddy lost", {{1, 0}}, {{0, 0}}, false},
                  {"buddy pair in one wave", {{0, 3}, {1, 3}}, {}, false},
                  {"other roles lost", {{0, 3}}, {{0, 4}, {1, 2}}, true},
                  {"two pairs, one role each", {{0, 3}, {1, 5}}, {}, true},
                  {"second pair broken", {{0, 3}, {1, 5}}, {{0, 5}}, false},
              });
}

TEST(CkptRecoverable, RsCountsLostMembersPerReplicaGroup) {
  // 9 nodes in groups of 4: groups {0..3} and the merged tail {4..8}.
  GroupMap groups(9, 4);
  check_table(
      Scheme::Rs, groups, 1,
      {
          {"one member", {{0, 2}}, {}, true},
          {"second member of the group lost", {{0, 2}}, {{0, 1}}, false},
          {"loss in the other group", {{0, 2}}, {{0, 5}}, true},
          {"buddy pair lost", {{0, 2}}, {{1, 2}}, true},
          {"same index in both replicas", {{0, 2}, {1, 2}}, {}, true},
          {"two in one group, one wave", {{0, 0}, {0, 3}}, {}, false},
          {"merged tail: 8 and 4 share a group", {{0, 8}}, {{0, 4}}, false},
          {"merged tail: 8 and 3 do not", {{0, 8}}, {{0, 3}}, true},
          {"two groups in one wave", {{0, 1}, {0, 6}}, {}, true},
          {"two groups, second over", {{0, 1}, {0, 6}}, {{0, 7}}, false},
          {"untouched group over budget", {{0, 1}}, {{0, 5}, {0, 6}}, true},
      });
  check_table(
      Scheme::Rs, groups, 2,
      {
          {"two in the tail", {{0, 8}}, {{0, 4}}, true},
          {"three in the tail", {{0, 8}}, {{0, 4}, {0, 5}}, false},
          {"three via the wave", {{0, 8}, {0, 4}}, {{0, 5}}, false},
          {"two per replica", {{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}, true},
          {"three in replica 1", {{1, 0}}, {{1, 1}, {1, 2}, {0, 3}}, false},
      });
}

}  // namespace
}  // namespace acr::ckpt
