// Unit tests for the pluggable checkpoint layer (src/ckpt): the double
// checkpoint Store's promotion state machine (including the edge cases a
// racing verdict/rollback produces), the parity GroupMap, and the on-disk
// CheckpointVault. The parity scheme's algebra is in test_rs_scheme.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <vector>

#include "ckpt/group.h"
#include "ckpt/store.h"
#include "ckpt/vault.h"
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
// CheckpointVault: on-disk format, corruption skipping, pruning.
// ---------------------------------------------------------------------------

class CkptVaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("acr_vault_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoredImage stored(std::uint64_t epoch, std::uint64_t iteration,
                     std::size_t size) {
    StoredImage s;
    s.epoch = epoch;
    s.iteration = iteration;
    s.image = make_image(size, epoch * 977 + iteration);
    return s;
  }

  std::filesystem::path dir_;
};

TEST_F(CkptVaultTest, LoadLatestSkipsCorruptTrailer) {
  CheckpointVault vault(dir_, "ck");
  vault.store(stored(1, 10, 256));
  std::filesystem::path newest = vault.store(stored(2, 20, 256));
  // Flip one payload byte of the newest file; its Fletcher-64 trailer no
  // longer matches, so load_latest must fall back to epoch 1.
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);  // inside the payload, past the 32-byte header
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x1);
    f.seekp(40);
    f.write(&b, 1);
  }
  EXPECT_THROW(vault.load(2), pup::StreamError);
  std::optional<StoredImage> latest = vault.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1u);
}

TEST_F(CkptVaultTest, LoadLatestSkipsTruncatedFile) {
  CheckpointVault vault(dir_, "ck");
  vault.store(stored(4, 11, 256));
  std::filesystem::path newest = vault.store(stored(7, 12, 256));
  std::filesystem::resize_file(newest, 16);  // mid-header truncation
  EXPECT_THROW(vault.load(7), pup::StreamError);
  std::optional<StoredImage> latest = vault.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 4u);
}

TEST_F(CkptVaultTest, ConstructionCleansInterruptedWriteTmpFiles) {
  {
    CheckpointVault vault(dir_, "ck");
    vault.store(stored(1, 5, 128));
  }
  // Fake an interrupted store(): a stranded temp file next to a real one,
  // plus a foreign prefix's temp that must be left alone.
  std::filesystem::path stranded = dir_ / "ck.e2.ckpt.tmp";
  std::filesystem::path foreign = dir_ / "other.e9.ckpt.tmp";
  std::ofstream(stranded) << "partial";
  std::ofstream(foreign) << "partial";
  CheckpointVault vault(dir_, "ck");
  EXPECT_FALSE(std::filesystem::exists(stranded));
  EXPECT_TRUE(std::filesystem::exists(foreign));
  std::optional<StoredImage> latest = vault.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch, 1u);
}

TEST_F(CkptVaultTest, PruneKeepsTheBoundaryEpoch) {
  CheckpointVault vault(dir_, "ck");
  for (std::uint64_t e : {1u, 2u, 3u, 4u}) vault.store(stored(e, e * 10, 64));
  vault.prune(/*keep_from_epoch=*/3);
  EXPECT_EQ(vault.epochs_on_disk(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_TRUE(vault.load(3).has_value());
  EXPECT_FALSE(vault.load(2).has_value());
}

TEST_F(CkptVaultTest, EpochsOnDiskSortedAndIgnoresUnrelatedFiles) {
  CheckpointVault vault(dir_, "ck");
  // Store out of order; listing must come back ascending.
  for (std::uint64_t e : {12u, 2u, 100u, 7u}) vault.store(stored(e, 1, 32));
  std::ofstream(dir_ / "ck.notes.txt") << "unrelated";
  std::ofstream(dir_ / "other.e5.ckpt") << "different prefix";
  EXPECT_EQ(vault.epochs_on_disk(), (std::vector<std::uint64_t>{2, 7, 12, 100}));
}

}  // namespace
}  // namespace acr::ckpt
