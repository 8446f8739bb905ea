// Microbenchmark (google-benchmark): the §4.2 checksum trade-off on real
// hardware. Sending the full checkpoint costs one pass over the data
// (copy into the message buffer, beta per byte on the wire); the checksum
// costs ~4 instructions per byte of compute but ships 8 bytes. The paper's
// criterion: checksum wins iff gamma < beta / 4 — which is exactly why the
// per-byte digest cost matters: the kernel-layer benches below pin the
// portable vs SSE4.2 CRC32C rates, the streaming FoldSink rate at the
// pack-tee's real 4 KiB write granularity.
//
// Also measures the PUP pack / compare rates that calibrate the phase
// model, so the calibration is reproducible on the build machine, and the
// checkpoint codec's LZ stage per 256 KiB chunk on zeros, dense doubles
// and a real jacobi image.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "apps/jacobi3d.h"
#include "checksum/crc32c.h"
#include "checksum/fletcher.h"
#include "checksum/kernels.h"
#include "checksum/sink.h"
#include "ckpt/codec.h"
#include "common/rng.h"
#include "parallel/pool.h"
#include "pup/checker.h"
#include "pup/pup.h"
#include "rt/cluster.h"

namespace {

std::vector<std::byte> make_buffer(std::size_t size) {
  std::vector<std::byte> buf(size);
  acr::Pcg32 rng(size, 3);
  for (auto& b : buf) b = static_cast<std::byte>(rng.bounded(256));
  return buf;
}

/// Pin the CRC32C kernel for the duration of one benchmark, then restore
/// auto-dispatch so the remaining benches measure the default config.
struct ScopedKernel {
  explicit ScopedKernel(acr::checksum::KernelImpl impl) {
    acr::checksum::set_kernel_impl(impl);
  }
  ~ScopedKernel() {
    acr::checksum::set_kernel_impl(acr::checksum::KernelImpl::Auto);
  }
};

void BM_Fletcher64(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::fletcher64(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fletcher64)->Range(1 << 10, 1 << 22);

void BM_MemcpyToMessageBuffer(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> out(buf.size());
  for (auto _ : state) {
    std::memcpy(out.data(), buf.data(), buf.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MemcpyToMessageBuffer)->Range(1 << 10, 1 << 22);

void BM_Crc32c(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Range(1 << 10, 1 << 22);

// --- kernel layer: dispatch, streaming sinks --------------------------------

void BM_Crc32cPortable(benchmark::State& state) {
  ScopedKernel pin(acr::checksum::KernelImpl::Portable);
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Range(1 << 10, 1 << 22);

void BM_Crc32cHw(benchmark::State& state) {
  if (!acr::checksum::hw_kernels_available()) {
    state.SkipWithError("SSE4.2 not available on this CPU");
    return;
  }
  ScopedKernel pin(acr::checksum::KernelImpl::Hw);
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cHw)->Range(1 << 10, 1 << 22);

// Chunk-parallel digest of a large image; range(1) = kernel threads.
void BM_Crc32cChunked(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  acr::parallel::set_global_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c_chunked(buf));
  }
  acr::parallel::set_global_threads(0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cChunked)
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4});

// Streaming digest at the pack-tee's real access pattern: the PUP packer
// hands the FoldSink a run of small writes (records are 9-byte headers plus
// payload slabs), not one giant span. 4 KiB writes model the slab case;
// this is the rate the one-pass checksum epoch actually sees.
template <typename Sink>
void stream_fold(benchmark::State& state) {
  constexpr std::size_t kWrite = 4096;
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  std::span<const std::byte> all(buf);
  for (auto _ : state) {
    Sink sink;
    for (std::size_t pos = 0; pos < all.size(); pos += kWrite)
      sink.write(all.subspan(pos, std::min(kWrite, all.size() - pos)));
    benchmark::DoNotOptimize(sink.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_FoldSinkFletcher64_4KWrites(benchmark::State& state) {
  stream_fold<acr::checksum::Fletcher64Sink>(state);
}
BENCHMARK(BM_FoldSinkFletcher64_4KWrites)->Range(1 << 12, 1 << 22);

void BM_FoldSinkCrc32c_4KWrites(benchmark::State& state) {
  stream_fold<acr::checksum::Crc32cSink>(state);
}
BENCHMARK(BM_FoldSinkCrc32c_4KWrites)->Range(1 << 12, 1 << 22);

struct BigState {
  std::vector<double> a, b, c;
  void pup(acr::pup::Puper& p) {
    p | a;
    p | b;
    p | c;
  }
};

BigState make_state(std::size_t doubles) {
  BigState s;
  acr::Pcg32 rng(doubles, 5);
  s.a.resize(doubles / 3);
  s.b.resize(doubles / 3);
  s.c.resize(doubles - 2 * (doubles / 3));
  for (auto* v : {&s.a, &s.b, &s.c})
    for (auto& x : *v) x = rng.uniform();
  return s;
}

void BM_PupPack(benchmark::State& state) {
  BigState s = make_state(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    acr::pup::Packer p;
    p | s;
    benchmark::DoNotOptimize(p.bytes_written());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_PupPack)->Range(1 << 10, 1 << 20);

void BM_CheckerCompare(benchmark::State& state) {
  BigState s = make_state(static_cast<std::size_t>(state.range(0)));
  acr::pup::Checkpoint a = acr::pup::make_checkpoint(s);
  acr::pup::Checkpoint b = acr::pup::make_checkpoint(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::pup::compare_checkpoints(a, b).match);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_CheckerCompare)->Range(1 << 10, 1 << 20);

// --- checkpoint codec: the LZ stage ------------------------------------------

/// Image shapes for the LZ rows: 0 = zeros, 1 = dense doubles (every value
/// distinct), 2 = a 64^3 jacobi task's packed checkpoint with the initial
/// impulse over a quarter of the block (init_fill_fraction = 0.25), the
/// image the ckpt-rs-lz workload ships.
std::vector<std::byte> lz_image(std::int64_t shape) {
  constexpr std::size_t kBytes = 8 * acr::checksum::kDigestChunk;
  if (shape == 0) return std::vector<std::byte>(kBytes, std::byte{0});
  if (shape == 1) {
    acr::Pcg32 rng(kBytes, 7);
    std::vector<double> vals(kBytes / sizeof(double));
    for (double& v : vals) v = rng.uniform();
    std::vector<std::byte> out(kBytes);
    std::memcpy(out.data(), vals.data(), kBytes);
    return out;
  }
  // One node running one jacobi iteration, packed the way the agent packs.
  acr::apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 1;
  cfg.block_x = cfg.block_y = cfg.block_z = 64;
  cfg.slots_per_node = 1;
  cfg.iterations = 1;
  cfg.init_fill_fraction = 0.25;
  acr::rt::Engine engine;
  acr::rt::ClusterConfig cc;
  cc.nodes_per_replica = 1;
  cc.spare_nodes = 0;
  acr::rt::Cluster cluster(engine, cc);
  cluster.set_task_factory(cfg.factory());
  cluster.populate();
  cluster.start_application();
  engine.run();
  acr::pup::Checkpoint img = cluster.node_at(0, 0).pack_state();
  return std::vector<std::byte>(img.bytes().begin(), img.bytes().end());
}

const char* lz_shape_name(std::int64_t shape) {
  return shape == 0 ? "zeros" : shape == 1 ? "doubles" : "jacobi64";
}

/// Compress every digest chunk of the image, as the codec's compress stage
/// does for a full frame.
void BM_LzCompress(benchmark::State& state) {
  std::vector<std::byte> img = lz_image(state.range(0));
  std::span<const std::byte> all(img);
  for (auto _ : state) {
    for (std::size_t i = 0; i < acr::checksum::digest_chunk_count(all.size());
         ++i) {
      auto [begin, end] = acr::checksum::digest_chunk_range(all.size(), i);
      benchmark::DoNotOptimize(
          acr::ckpt::lz_compress_block(all.subspan(begin, end - begin)));
    }
  }
  state.SetLabel(lz_shape_name(state.range(0)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}
BENCHMARK(BM_LzCompress)->Arg(0)->Arg(1)->Arg(2);

void BM_LzDecompress(benchmark::State& state) {
  std::vector<std::byte> img = lz_image(state.range(0));
  std::span<const std::byte> all(img);
  std::vector<std::vector<std::byte>> blocks;
  for (std::size_t i = 0; i < acr::checksum::digest_chunk_count(all.size());
       ++i) {
    auto [begin, end] = acr::checksum::digest_chunk_range(all.size(), i);
    blocks.push_back(
        acr::ckpt::lz_compress_block(all.subspan(begin, end - begin)));
  }
  std::vector<std::byte> out(acr::checksum::kDigestChunk);
  for (auto _ : state) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      auto [begin, end] = acr::checksum::digest_chunk_range(all.size(), i);
      acr::ckpt::lz_decompress_into(
          blocks[i], std::span<std::byte>(out.data(), end - begin));
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetLabel(lz_shape_name(state.range(0)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}
BENCHMARK(BM_LzDecompress)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
