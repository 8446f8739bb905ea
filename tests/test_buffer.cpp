// Shared-buffer layer tests: slice aliasing, copy-on-write, arena reuse
// across checkpoint epochs, streaming checksum sinks, and zero-copy message
// payload fan-out through the cluster.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "buf/buffer.h"
#include "checksum/crc32c.h"
#include "checksum/sink.h"
#include "pup/pup.h"
#include "rt/cluster.h"
#include "rt/message.h"

namespace acr {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed * 37 + i * 13) & 0xFF);
  return v;
}

TEST(Buffer, DefaultIsEmpty) {
  buf::Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.owners(), 0);
}

TEST(Buffer, CopyOfAndWrapHoldTheBytes) {
  auto src = pattern_bytes(64);
  buf::Buffer a = buf::Buffer::copy_of(src);
  buf::Buffer b = buf::Buffer::wrap(std::vector<std::byte>(src));
  ASSERT_EQ(a.size(), src.size());
  ASSERT_EQ(b.size(), src.size());
  EXPECT_EQ(std::memcmp(a.data(), src.data(), src.size()), 0);
  EXPECT_EQ(std::memcmp(b.data(), src.data(), src.size()), 0);
  EXPECT_FALSE(a.aliases(b));
}

TEST(Buffer, CopiesShareStorage) {
  buf::Buffer a = buf::Buffer::copy_of(pattern_bytes(32));
  EXPECT_EQ(a.owners(), 1);
  buf::Buffer b = a;
  EXPECT_TRUE(a.aliases(b));
  EXPECT_EQ(a.owners(), 2);
  EXPECT_EQ(a.data(), b.data());  // literally the same bytes, no copy
}

TEST(Buffer, SliceAliasesParentStorage) {
  buf::Buffer whole = buf::Buffer::copy_of(pattern_bytes(100));
  buf::Buffer mid = whole.slice(10, 20);
  EXPECT_EQ(mid.size(), 20u);
  EXPECT_TRUE(mid.aliases(whole));
  EXPECT_EQ(mid.data(), whole.data() + 10);
  EXPECT_EQ(whole.owners(), 2);
  // Slices of slices still point into the one storage.
  buf::Buffer inner = mid.slice(5, 5);
  EXPECT_TRUE(inner.aliases(whole));
  EXPECT_EQ(inner.data(), whole.data() + 15);
  EXPECT_EQ(whole.owners(), 3);
}

TEST(Buffer, SliceBoundsAreChecked) {
  buf::Buffer b = buf::Buffer::copy_of(pattern_bytes(16));
  EXPECT_THROW(b.slice(10, 10), RequireError);
  EXPECT_THROW(b.slice(17, 0), RequireError);
  EXPECT_EQ(b.slice(16, 0).size(), 0u);  // empty tail slice is fine
}

TEST(Buffer, MutableBytesOnUniqueWholeBufferWritesInPlace) {
  buf::Buffer b = buf::Buffer::copy_of(pattern_bytes(16));
  const std::byte* before = b.data();
  auto span = b.mutable_bytes();
  span[0] = std::byte{0xAB};
  EXPECT_EQ(b.data(), before);  // unique + whole view: no detach
  EXPECT_EQ(b.bytes()[0], std::byte{0xAB});
}

TEST(Buffer, MutableBytesDetachesWhenShared) {
  buf::Buffer a = buf::Buffer::copy_of(pattern_bytes(16));
  buf::Buffer b = a;
  auto span = b.mutable_bytes();  // copy-on-write
  span[0] = std::byte{0xFF};
  EXPECT_FALSE(a.aliases(b));
  EXPECT_EQ(b.bytes()[0], std::byte{0xFF});
  EXPECT_NE(a.bytes()[0], std::byte{0xFF});  // other view untouched
}

TEST(Buffer, MutableBytesDetachesSlices) {
  buf::Buffer whole = buf::Buffer::copy_of(pattern_bytes(32));
  buf::Buffer sl = whole.slice(8, 8);
  auto span = sl.mutable_bytes();
  span[0] = std::byte{0xEE};
  EXPECT_FALSE(sl.aliases(whole));  // a slice always detaches before writes
  EXPECT_NE(whole.bytes()[8], std::byte{0xEE});
}

TEST(BufferBuilder, AppendsAcrossWritesAndSeals) {
  buf::BufferBuilder bb;
  auto p1 = pattern_bytes(10, 1);
  auto p2 = pattern_bytes(7, 2);
  bb.write(p1);
  bb.append(p2.data(), p2.size());
  EXPECT_EQ(bb.size(), 17u);
  buf::Buffer out = bb.take();
  ASSERT_EQ(out.size(), 17u);
  EXPECT_EQ(std::memcmp(out.data(), p1.data(), p1.size()), 0);
  EXPECT_EQ(std::memcmp(out.data() + 10, p2.data(), p2.size()), 0);
  EXPECT_EQ(bb.size(), 0u);  // builder is empty again
}

TEST(BufferBuilder, ReusesArenaAcrossEpochsOnceBuffersDrop) {
  buf::BufferBuilder bb;
  auto payload = pattern_bytes(256);
  {
    bb.write(payload);
    buf::Buffer epoch1 = bb.take();
    EXPECT_EQ(bb.stats().arena_allocations, 1u);
  }  // epoch1 dropped -> its arena is reclaimable
  bb.write(payload);
  buf::Buffer epoch2 = bb.take();
  EXPECT_EQ(bb.stats().arena_allocations, 1u);  // no new allocation
  EXPECT_EQ(bb.stats().arena_reuses, 1u);
  ASSERT_EQ(epoch2.size(), payload.size());
  EXPECT_EQ(std::memcmp(epoch2.data(), payload.data(), payload.size()), 0);
}

TEST(BufferBuilder, DoubleBufferedEpochsGoAllocationFree) {
  // ACR's store keeps two checkpoints live (verified + candidate). Model
  // that: hold the previous two buffers while building the next. After the
  // pool warms up, every further epoch reuses a retired arena.
  buf::BufferBuilder bb;
  auto payload = pattern_bytes(512);
  buf::Buffer verified, candidate;
  for (int epoch = 0; epoch < 20; ++epoch) {
    bb.write(payload);
    verified = std::move(candidate);
    candidate = bb.take();
  }
  EXPECT_EQ(bb.stats().buffers_taken, 20u);
  EXPECT_LE(bb.stats().arena_allocations, 3u);  // pool warm-up only
  EXPECT_GE(bb.stats().arena_reuses, 17u);      // steady state recycles
}

TEST(BufferBuilder, LiveBuffersAreNeverRecycledInto) {
  buf::BufferBuilder bb;
  auto p1 = pattern_bytes(64, 1);
  bb.write(p1);
  buf::Buffer held = bb.take();  // stays alive across the next build
  auto p2 = pattern_bytes(64, 9);
  bb.write(p2);
  buf::Buffer fresh = bb.take();
  EXPECT_FALSE(held.aliases(fresh));
  EXPECT_EQ(std::memcmp(held.data(), p1.data(), p1.size()), 0);  // intact
  EXPECT_EQ(bb.stats().arena_allocations, 2u);
}

TEST(WeakBuffer, ViewsWithoutOwning) {
  buf::Buffer whole = buf::Buffer::copy_of(pattern_bytes(64));
  buf::WeakBuffer weak(whole.slice(8, 16));
  EXPECT_EQ(whole.owners(), 1);  // the weak view is not an owner
  buf::Buffer locked = weak.lock();
  EXPECT_TRUE(locked.aliases(whole));
  EXPECT_EQ(locked.data(), whole.data() + 8);
  EXPECT_EQ(locked.size(), 16u);
  locked = buf::Buffer();
  whole = buf::Buffer();
  EXPECT_TRUE(weak.expired());
  EXPECT_TRUE(weak.lock().empty());
  EXPECT_TRUE(buf::WeakBuffer().lock().empty());
}

TEST(WeakBuffer, ExpiresBeforeBytesChangeInPlace) {
  // A sole owner writes in place; a weak view of the old bytes must not
  // observe the write.
  buf::Buffer b = buf::Buffer::copy_of(pattern_bytes(16));
  buf::WeakBuffer weak(b);
  b.mutable_bytes()[0] = std::byte{0xAB};
  EXPECT_TRUE(weak.expired());
}

TEST(WeakBuffer, ExpiresWhenTheBuilderRecyclesTheArena) {
  buf::BufferBuilder bb;
  bb.write(pattern_bytes(128, 1));
  buf::WeakBuffer weak;
  {
    buf::Buffer epoch1 = bb.take();
    weak = buf::WeakBuffer(epoch1);
  }
  // Parked in the builder's pool, the bytes are still intact and viewable.
  EXPECT_FALSE(weak.expired());
  bb.write(pattern_bytes(128, 2));  // recycles the arena
  EXPECT_EQ(bb.stats().arena_reuses, 1u);
  EXPECT_TRUE(weak.expired());
}

TEST(TeeSink, ForwardsToBothSinks) {
  buf::BufferBuilder a, b;
  buf::TeeSink tee(a, b);
  auto payload = pattern_bytes(48);
  tee.write(payload);
  buf::Buffer ba = a.take(), bbuf = b.take();
  ASSERT_EQ(ba.size(), payload.size());
  ASSERT_EQ(bbuf.size(), payload.size());
  EXPECT_EQ(std::memcmp(ba.data(), bbuf.data(), payload.size()), 0);
}

TEST(ChecksumSink, StreamingFletcherMatchesOneShotForAnyGranularity) {
  auto payload = pattern_bytes(1031);  // deliberately not a multiple of 4
  std::uint64_t expect = checksum::fletcher64(payload);
  for (std::size_t chunk : {1u, 3u, 9u, 64u, 1031u}) {
    checksum::Fletcher64Sink sink;
    for (std::size_t off = 0; off < payload.size(); off += chunk) {
      std::size_t n = std::min(chunk, payload.size() - off);
      sink.write(std::span<const std::byte>(payload.data() + off, n));
    }
    EXPECT_EQ(sink.digest(), expect) << "chunk=" << chunk;
  }
}

TEST(ChecksumSink, StreamingCrc32cMatchesOneShot) {
  auto payload = pattern_bytes(777);
  checksum::Crc32cSink sink;
  sink.write(std::span<const std::byte>(payload.data(), 500));
  sink.write(std::span<const std::byte>(payload.data() + 500, 277));
  EXPECT_EQ(sink.digest(), checksum::crc32c(payload));
}

TEST(PackerTee, DigestFoldedDuringPackEqualsPostPackChecksum) {
  // The §4.2 one-pass property: the digest the sink folds while the Packer
  // streams records equals a fletcher64 over the finished image.
  struct Blob {
    std::vector<double> xs;
    std::uint64_t iter = 0;
    void pup(pup::Puper& p) {
      p | xs;
      p | iter;
    }
  };
  Blob blob;
  blob.xs.resize(100);
  std::iota(blob.xs.begin(), blob.xs.end(), 0.25);
  blob.iter = 41;

  checksum::Fletcher64Sink sink;
  pup::Packer packer;
  packer.tee(&sink);
  packer | blob;
  pup::Checkpoint ckpt = packer.take();
  EXPECT_EQ(sink.digest(), checksum::fletcher64(ckpt.bytes()));
  EXPECT_EQ(sink.bytes_consumed(), ckpt.size());
}

TEST(CheckpointBuffer, CheckpointsShareTheirBufferOnCopy) {
  pup::Packer packer;
  std::uint64_t v = 7;
  packer | v;
  pup::Checkpoint a = packer.take();
  pup::Checkpoint b = a;  // checkpoint copy = buffer refcount bump
  EXPECT_TRUE(a.buffer().aliases(b.buffer()));
}

// --- zero-copy fan-out through the runtime ---------------------------------

/// Task that keeps the payload Buffer of every message it receives.
class CaptureTask final : public rt::Task {
 public:
  void on_start() override {}
  void on_resume() override {}
  void on_message(const rt::Message& m) override {
    payloads.push_back(m.payload);
  }
  void pup(pup::Puper&) override {}
  std::uint64_t progress() const override { return 0; }

  std::vector<buf::Buffer> payloads;
};

TEST(ClusterFanOut, BroadcastPayloadIsSharedNotCopied) {
  rt::Engine engine;
  rt::ClusterConfig cfg;
  cfg.nodes_per_replica = 4;
  cfg.spare_nodes = 0;
  rt::Cluster cluster(engine, cfg);
  cluster.set_task_factory([](int, int) {
    std::vector<std::unique_ptr<rt::Task>> out;
    out.push_back(std::make_unique<CaptureTask>());
    return out;
  });
  cluster.populate();

  buf::Buffer payload = buf::Buffer::copy_of(pattern_bytes(1024));
  for (int i = 0; i < 4; ++i)
    cluster.send_task(0, rt::TaskAddr{0, 0}, rt::TaskAddr{i, 0}, 5, payload);
  engine.run();

  for (int i = 0; i < 4; ++i) {
    auto& task =
        static_cast<CaptureTask&>(cluster.node_at(0, i).task(0));
    ASSERT_EQ(task.payloads.size(), 1u) << "node " << i;
    // Every recipient sees the one allocation; nothing was copied per node.
    EXPECT_TRUE(task.payloads[0].aliases(payload));
    EXPECT_EQ(task.payloads[0].data(), payload.data());
  }
  EXPECT_EQ(payload.owners(), 1 + 4);  // ours + one per captured delivery
}

}  // namespace
}  // namespace acr
