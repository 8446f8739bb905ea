// Tests for the extension modules: STL pup adapters, CRC32-C, and the
// trace summarizer.
#include <gtest/gtest.h>

#include <cstring>

#include "acr/stats.h"
#include "checksum/crc32c.h"
#include "common/rng.h"
#include "pup/checker.h"
#include "pup/stl.h"

namespace acr {
namespace {

// ---------------------------------------------------------------------------
// STL adapters.
// ---------------------------------------------------------------------------

struct StlBag {
  std::deque<int> dq;
  std::set<std::string> names;
  std::optional<double> maybe;
  std::optional<double> empty;
  std::tuple<int, double, std::string> tup{0, 0.0, ""};
  std::unordered_map<std::string, std::vector<double>> table;
  std::unordered_set<std::int64_t> ids;

  void pup(pup::Puper& p) {
    p | dq;
    p | names;
    p | maybe;
    p | empty;
    p | tup;
    p | table;
    p | ids;
  }
  bool operator==(const StlBag&) const = default;
};

StlBag make_bag() {
  StlBag b;
  b.dq = {5, 4, 3};
  b.names = {"gamma", "alpha", "beta"};
  b.maybe = 2.75;
  b.tup = {7, 1.5, "seven"};
  b.table["x"] = {1.0, 2.0};
  b.table["a"] = {3.0};
  b.table["m"] = {};
  b.ids = {100, 7, 42};
  return b;
}

TEST(StlPup, RoundTripIsIdentity) {
  StlBag b = make_bag();
  pup::Checkpoint c = pup::make_checkpoint(b);
  StlBag restored;
  pup::restore_checkpoint(restored, c);
  EXPECT_EQ(b, restored);
}

TEST(StlPup, SizerAgreesWithPacker) {
  StlBag b = make_bag();
  EXPECT_EQ(pup::checkpoint_size(b), pup::make_checkpoint(b).size());
}

TEST(StlPup, UnorderedContainersSerializeCanonically) {
  // Two unordered_maps with identical content but different insertion
  // history (different bucket layouts) must produce identical streams —
  // the §2.1 replica-comparability requirement.
  std::unordered_map<std::string, int> a, b;
  a.reserve(1);
  for (int i = 0; i < 64; ++i) a["k" + std::to_string(i)] = i;
  b.reserve(4096);
  for (int i = 63; i >= 0; --i) b["k" + std::to_string(i)] = i;
  pup::Packer pa, pb;
  pup::pup_value(pa, a);
  pup::pup_value(pb, b);
  pup::Checkpoint ca = pa.take(), cb = pb.take();
  EXPECT_TRUE(pup::compare_checkpoints(ca, cb).match);
}

TEST(StlPup, OptionalDistinguishesEmptyFromDefault) {
  std::optional<double> engaged_zero = 0.0;
  std::optional<double> empty;
  pup::Packer pa, pb;
  pup::pup_value(pa, engaged_zero);
  pup::pup_value(pb, empty);
  pup::Checkpoint ca = pa.take(), cb = pb.take();
  EXPECT_FALSE(pup::compare_checkpoints(ca, cb).match);
}

// ---------------------------------------------------------------------------
// CRC32-C.
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(checksum::crc32c(zeros), 0x8A9136AAu);
  // "123456789" — the classic check value.
  EXPECT_EQ(checksum::crc32c(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShotAtAnySplit) {
  Pcg32 rng(31, 7);
  std::vector<std::byte> data(1023);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(256));
  std::uint32_t oneshot = checksum::crc32c(data);
  for (std::size_t split : {0u, 1u, 511u, 1022u, 1023u}) {
    checksum::Crc32c inc;
    inc.append(std::span<const std::byte>(data).subspan(0, split));
    inc.append(std::span<const std::byte>(data).subspan(split));
    EXPECT_EQ(inc.digest(), oneshot) << "split " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::byte> data = bytes_of("the quick brown fox");
  std::uint32_t clean = checksum::crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<std::byte>(1u << bit);
      EXPECT_NE(checksum::crc32c(data), clean);
      data[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace summary.
// ---------------------------------------------------------------------------

TEST(TraceSummary, ExtractsCheckpointAndRecoveryTimings) {
  rt::TraceLog log;
  log.record(0.0, rt::TraceKind::JobStart);
  log.record(1.0, rt::TraceKind::CheckpointRequested);
  log.record(1.2, rt::TraceKind::CheckpointIterationDecided);
  log.record(1.3, rt::TraceKind::CheckpointPacked);
  log.record(1.5, rt::TraceKind::CheckpointCommitted);
  log.record(2.0, rt::TraceKind::HardFailureInjected, 0, 3);
  log.record(2.2, rt::TraceKind::HardFailureDetected, 0, 3);
  log.record(2.2, rt::TraceKind::RecoveryStarted, 0, 3);
  log.record(2.7, rt::TraceKind::RecoveryCompleted, 0);
  log.record(3.0, rt::TraceKind::CheckpointRequested);   // aborted
  log.record(3.4, rt::TraceKind::CheckpointRequested);   // committed
  log.record(3.6, rt::TraceKind::CheckpointPacked);
  log.record(3.8, rt::TraceKind::CheckpointCommitted);
  log.record(4.0, rt::TraceKind::JobComplete);

  TraceSummary s = summarize_trace(log);
  ASSERT_EQ(s.checkpoints.size(), 3u);
  EXPECT_TRUE(s.checkpoints[0].committed_ok);
  EXPECT_FALSE(s.checkpoints[1].committed_ok);  // the aborted one
  EXPECT_TRUE(s.checkpoints[2].committed_ok);
  EXPECT_NEAR(s.checkpoints[0].total_latency(), 0.5, 1e-12);
  ASSERT_EQ(s.recoveries.size(), 1u);
  EXPECT_NEAR(s.recoveries[0].duration(), 0.5, 1e-12);
  EXPECT_EQ(s.failures_injected, 1u);
  EXPECT_EQ(s.failures_detected, 1u);
  EXPECT_NEAR(s.mean_detection_latency, 0.2, 1e-12);
  EXPECT_NEAR(s.job_complete, 4.0, 1e-12);
  EXPECT_NEAR(s.checkpoint_time_fraction(), (0.5 + 0.4) / 4.0, 1e-12);
  EXPECT_EQ(s.commit_latency_stats().count(), 2u);
}

TEST(TraceSummary, EmptyTraceIsAllZero) {
  rt::TraceLog log;
  TraceSummary s = summarize_trace(log);
  EXPECT_TRUE(s.checkpoints.empty());
  EXPECT_TRUE(s.recoveries.empty());
  EXPECT_DOUBLE_EQ(s.checkpoint_time_fraction(), 0.0);
}

}  // namespace
}  // namespace acr
