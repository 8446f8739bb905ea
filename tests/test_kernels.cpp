// Kernel-layer tests: hardware/portable CRC32C equivalence, digest combine
// algebra, the chunk-digest grid, and bitwise-identical driver scenarios
// across every ACR_KERNEL_IMPL choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acr/scenario.h"
#include "checksum/crc32c.h"
#include "checksum/kernels.h"
#include "common/rng.h"
#include "failure/distributions.h"

namespace acr {
namespace {

using checksum::KernelImpl;

/// Pin the dispatched CRC32C kernel for one test scope.
struct ScopedImpl {
  explicit ScopedImpl(KernelImpl impl) { checksum::set_kernel_impl(impl); }
  ~ScopedImpl() { checksum::set_kernel_impl(KernelImpl::Auto); }
};

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  Pcg32 rng(seed, 17);
  for (auto& b : v) b = static_cast<std::byte>(rng.bounded(256));
  return v;
}

/// Independent bit-serial CRC32C reference (no tables, no intrinsics):
/// pins both production kernels to the Castagnoli definition.
std::uint32_t ref_crc32c(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::byte b : data) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int i = 0; i < 8; ++i)
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Dispatch + kernel equivalence.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, PortableSelectable) {
  ScopedImpl pin(KernelImpl::Portable);
  EXPECT_STREQ(checksum::active_crc32c_kernel(), "portable");
  EXPECT_EQ(checksum::kernel_impl(), KernelImpl::Portable);
}

TEST(KernelDispatch, AutoPicksHwWhenAvailable) {
  ScopedImpl pin(KernelImpl::Auto);
  if (checksum::hw_kernels_available())
    EXPECT_STREQ(checksum::active_crc32c_kernel(), "hw");
  else
    EXPECT_STREQ(checksum::active_crc32c_kernel(), "portable");
}

TEST(KernelEquivalence, PortableMatchesReferenceAllSmallSizes) {
  auto buf = random_bytes(300, 1);
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    std::span<const std::byte> s(buf.data(), n);
    EXPECT_EQ(checksum::kernels::crc32c_update_portable(0xFFFFFFFFu, s) ^
                  0xFFFFFFFFu,
              ref_crc32c(s))
        << "size " << n;
  }
}

TEST(KernelEquivalence, HwMatchesPortableAllSizesAndOffsets) {
  if (!checksum::hw_kernels_available())
    GTEST_SKIP() << "no SSE4.2 on this CPU";
  // Sizes 0..N and every alignment offset 0..7 — exercises the hw kernel's
  // head/word/tail split and the portable kernel's 8-byte loop + tail,
  // including 1–7-byte tails.
  auto buf = random_bytes(300 + 8, 2);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n + off <= buf.size(); ++n) {
      std::span<const std::byte> s(buf.data() + off, n);
      EXPECT_EQ(checksum::kernels::crc32c_update_hw(0x12345678u, s),
                checksum::kernels::crc32c_update_portable(0x12345678u, s))
          << "offset " << off << " size " << n;
    }
  }
}

TEST(KernelEquivalence, HwMatchesPortableLargeBuffers) {
  if (!checksum::hw_kernels_available())
    GTEST_SKIP() << "no SSE4.2 on this CPU";
  for (std::size_t n : {std::size_t{4096}, std::size_t{65536},
                        std::size_t{1 << 20} | 5}) {
    auto buf = random_bytes(n, n);
    std::span<const std::byte> s(buf);
    std::uint32_t p, h;
    {
      ScopedImpl pin(KernelImpl::Portable);
      p = checksum::crc32c(s);
    }
    {
      ScopedImpl pin(KernelImpl::Hw);
      h = checksum::crc32c(s);
    }
    EXPECT_EQ(p, h) << "size " << n;
  }
}

TEST(KernelEquivalence, StreamingAppendComposesAtAnyGranularity) {
  auto buf = random_bytes(10000, 3);
  std::uint32_t oneshot = checksum::crc32c(buf);
  for (KernelImpl impl : {KernelImpl::Portable, KernelImpl::Hw}) {
    if (impl == KernelImpl::Hw && !checksum::hw_kernels_available()) continue;
    ScopedImpl pin(impl);
    checksum::Crc32c inc;
    Pcg32 rng(7, 7);
    std::size_t pos = 0;
    while (pos < buf.size()) {
      std::size_t chunk =
          std::min<std::size_t>(1 + rng.bounded(777), buf.size() - pos);
      inc.append(std::span<const std::byte>(buf).subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(inc.digest(), oneshot);
  }
}

// ---------------------------------------------------------------------------
// Combine operators.
// ---------------------------------------------------------------------------

TEST(Combine, Crc32cSplitAnywhere) {
  auto buf = random_bytes(257, 4);
  std::uint32_t whole = checksum::crc32c(buf);
  std::span<const std::byte> s(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    std::uint32_t a = checksum::crc32c(s.subspan(0, cut));
    std::uint32_t b = checksum::crc32c(s.subspan(cut));
    EXPECT_EQ(checksum::crc32c_combine(a, b, buf.size() - cut), whole)
        << "cut " << cut;
  }
}

TEST(Combine, Crc32cManyChunks) {
  auto buf = random_bytes(100000, 5);
  std::span<const std::byte> s(buf);
  std::uint32_t whole = checksum::crc32c(buf);
  // Uneven chunking including 1–7-byte tails.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                            std::size_t{33333}}) {
    std::uint32_t acc = checksum::crc32c(s.subspan(0, std::min(chunk, s.size())));
    for (std::size_t pos = std::min(chunk, s.size()); pos < s.size();) {
      std::size_t len = std::min(chunk, s.size() - pos);
      acc = checksum::crc32c_combine(acc, checksum::crc32c(s.subspan(pos, len)),
                                     len);
      pos += len;
    }
    EXPECT_EQ(acc, whole) << "chunk " << chunk;
  }
}

TEST(Combine, Crc32cFlipDeltaMatchesActualFlip) {
  auto buf = random_bytes(4096, 11);
  std::uint32_t clean = checksum::crc32c(buf);
  Pcg32 rng(13, 13);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t byte = rng.bounded(static_cast<std::uint32_t>(buf.size()));
    int bit = static_cast<int>(rng.bounded(8));
    buf[byte] ^= static_cast<std::byte>(1u << bit);
    std::uint32_t damaged = checksum::crc32c(buf);
    buf[byte] ^= static_cast<std::byte>(1u << bit);
    std::uint32_t delta =
        checksum::crc32c_flip_delta(buf.size(), byte, bit);
    EXPECT_EQ(clean ^ delta, damaged) << "byte " << byte << " bit " << bit;
    EXPECT_NE(delta, 0u);  // CRC32C detects every single-bit error
  }
}

// ---------------------------------------------------------------------------
// The chunk-digest grid.
// ---------------------------------------------------------------------------

TEST(Chunked, DigestsMatchOneShotAtAnyThreadCount) {
  // Sizes straddling the chunk boundary, plus unaligned base offsets: the
  // per-chunk digests merge back into the one-shot CRC32C.
  const std::size_t kC = checksum::kDigestChunk;
  auto buf = random_bytes(3 * kC + 13, 21);
  for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{100}, kC - 1, kC,
                          2 * kC + 5, 3 * kC + 1}) {
      std::span<const std::byte> s(buf.data() + off, n);
      std::vector<std::uint32_t> parts = checksum::crc32c_chunk_digests(s);
      EXPECT_EQ(checksum::crc32c_merge_chunk_digests(parts, n),
                checksum::crc32c(s))
          << "off " << off << " n " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: driver scenarios bitwise identical across kernel configs.
// ---------------------------------------------------------------------------

void expect_summaries_equal(const RunSummary& a, const RunSummary& b,
                            const char* what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.finish_time, b.finish_time) << what;  // exact, not approx
  EXPECT_EQ(a.checkpoints, b.checkpoints) << what;
  EXPECT_EQ(a.hard_failures, b.hard_failures) << what;
  EXPECT_EQ(a.sdc_injected, b.sdc_injected) << what;
  EXPECT_EQ(a.sdc_detected, b.sdc_detected) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_EQ(a.scratch_restarts, b.scratch_restarts) << what;
  EXPECT_EQ(a.net_frames, b.net_frames) << what;
  EXPECT_EQ(a.net_drops, b.net_drops) << what;
  EXPECT_EQ(a.net_duplicates, b.net_duplicates) << what;
  EXPECT_EQ(a.net_corruptions, b.net_corruptions) << what;
  EXPECT_EQ(a.net_retransmits, b.net_retransmits) << what;
  EXPECT_EQ(a.net_crc_drops, b.net_crc_drops) << what;
  EXPECT_EQ(a.net_stale_epoch_drops, b.net_stale_epoch_drops) << what;
  EXPECT_EQ(a.net_link_failures, b.net_link_failures) << what;
  EXPECT_STREQ(a.ckpt_scheme, b.ckpt_scheme) << what;
  EXPECT_EQ(a.parity_chunks_sent, b.parity_chunks_sent) << what;
  EXPECT_EQ(a.parity_bytes_sent, b.parity_bytes_sent) << what;
  EXPECT_EQ(a.xor_rebuilds, b.xor_rebuilds) << what;
}

/// Partner scenario: checksum detection (buddy digest path), SDC + hard
/// faults, lossy/corrupting network (frame CRC + flip-delta path).
JobResult run_partner_scenario() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 2;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 25;
  j.slots_per_node = 2;
  j.seconds_per_point = 1e-5;
  Scenario s;
  s.app = j;
  s.acr.detection = SdcDetection::Checksum;
  s.acr.checkpoint_interval = 0.002;
  s.acr.heartbeat_period = 0.001;
  s.acr.heartbeat_timeout = 0.005;
  s.cluster.spare_nodes = 2;
  s.cluster.net_faults.drop_rate = 0.02;
  s.cluster.net_faults.corrupt_rate = 0.02;
  s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.003));
  s.faults.sdc_fraction = 1.0;  // soft errors: exercises the digest compare
  s.max_virtual_time = 30.0;
  return run(s);
}

/// Xor scenario (--ckpt-scheme=xor: rs with one parity block): the RAID-5
/// parity build over the GF(256) row kernel, plus a hard fault to trigger a
/// rebuild.
JobResult run_xor_scenario() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 30;
  j.slots_per_node = 2;  // 8 nodes per replica -> 2 parity groups of 4
  j.seconds_per_point = 1e-5;
  Scenario s;
  s.app = j;
  s.acr.scheme = ResilienceScheme::Strong;
  s.acr.redundancy = ckpt::Scheme::Rs;
  s.acr.rs_parity = 1;
  s.acr.xor_group_size = 4;
  s.acr.checkpoint_interval = 0.003;
  s.acr.heartbeat_period = 0.0004;
  s.acr.heartbeat_timeout = 0.0016;
  s.cluster.spare_nodes = 8;
  s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.01));
  s.faults.sdc_fraction = 0.0;  // hard faults: exercises parity rebuild
  s.max_virtual_time = 30.0;
  return run(s);
}

template <typename Job>
void check_scenario_determinism(Job scenario, const char* name) {
  JobResult base;
  {
    ScopedImpl impl(KernelImpl::Portable);
    base = scenario();
  }
  if (!checksum::hw_kernels_available()) return;
  ScopedImpl impl(KernelImpl::Hw);
  JobResult got = scenario();
  std::string what = std::string(name) + " hw";
  expect_summaries_equal(base.summary, got.summary, what.c_str());
  // The verified answer's fingerprint, taken even if the job did not end.
  EXPECT_EQ(verified_digest(*base.runtime), verified_digest(*got.runtime))
      << what;
  EXPECT_EQ(base.runtime->trace().events().size(),
            got.runtime->trace().events().size())
      << what;
}

// The determinism check is only meaningful if the scenarios actually drive
// the kernel-touched paths: digests, frame CRCs, parity folds.
TEST(KernelDeterminism, ScenariosExerciseKernelPaths) {
  JobResult partner = run_partner_scenario();
  EXPECT_GT(partner.summary.checkpoints, 0u);
  EXPECT_GT(partner.summary.net_frames, 0u);       // frame CRC path
  EXPECT_GT(partner.summary.net_corruptions, 0u);  // flip-delta path
  EXPECT_GT(partner.summary.sdc_injected, 0u);     // digest-compare path
  JobResult xorr = run_xor_scenario();
  EXPECT_GT(xorr.summary.checkpoints, 0u);
  EXPECT_GT(xorr.summary.parity_chunks_sent, 0u);  // parity fold path
  EXPECT_GT(xorr.summary.hard_failures, 0u);       // rebuild/restart path
}

TEST(KernelDeterminism, PartnerScenarioBitwiseIdentical) {
  check_scenario_determinism(run_partner_scenario, "partner");
}

TEST(KernelDeterminism, XorScenarioBitwiseIdentical) {
  check_scenario_determinism(run_xor_scenario, "xor");
}

}  // namespace
}  // namespace acr
