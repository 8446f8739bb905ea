// Replicas share verified checkpoint bytes.
//
// When replica 1's full compare finds its candidate byte-identical to the
// buddy's image, the candidate takes the buddy's buffer, so a verified
// epoch is held once per node index. A match under the checker's tolerance
// is not byte identity, and checksum mode never sees the buddy's bytes:
// both keep two copies.
#include <gtest/gtest.h>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"

namespace acr {
namespace {

apps::Jacobi3DConfig jacobi_cfg() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 30;
  cfg.slots_per_node = 2;  // 4 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

AcrConfig strong(SdcDetection detection) {
  AcrConfig cfg;
  cfg.scheme = ResilienceScheme::Strong;
  cfg.detection = detection;
  cfg.checkpoint_interval = 0.004;
  cfg.heartbeat_period = 0.0005;
  cfg.heartbeat_timeout = 0.002;
  return cfg;
}

struct Job {
  apps::Jacobi3DConfig app = jacobi_cfg();
  AcrRuntime runtime;

  explicit Job(const AcrConfig& ac) : runtime(ac, cluster_cfg(app)) {
    runtime.set_task_factory(app.factory());
    runtime.setup();
  }

  static rt::ClusterConfig cluster_cfg(const apps::Jacobi3DConfig& app) {
    rt::ClusterConfig cc;
    cc.nodes_per_replica = app.nodes_needed();
    cc.spare_nodes = 2;
    return cc;
  }

  int nodes() const { return app.nodes_needed(); }

  /// Run to completion, then let the final commit land everywhere.
  void finish() {
    RunSummary s = runtime.run(100.0);
    ASSERT_TRUE(s.complete);
    runtime.engine().run_until(s.finish_time + 0.01);
  }

  apps::Jacobi3DTask& task(int replica, int node, int slot) {
    return static_cast<apps::Jacobi3DTask&>(
        runtime.cluster().node_at(replica, node).task(slot));
  }

  const ckpt::Store& store(int replica, int node) {
    return runtime.agent_at(replica, node).store();
  }

  std::size_t count(rt::TraceKind kind) { return runtime.trace().count(kind); }
};

const buf::Buffer& verified(const ckpt::Store& s) {
  return s.verified().image.buffer();
}
const buf::Buffer& candidate(const ckpt::Store& s) {
  return s.candidate().image.buffer();
}

TEST(ImageSharing, FaultFreeFullCompareHoldsEachEpochOnce) {
  Job job(strong(SdcDetection::FullCompare));
  job.finish();
  ASSERT_GE(job.count(rt::TraceKind::CheckpointCommitted), 2u);
  for (int i = 0; i < job.nodes(); ++i) {
    const ckpt::Store& r0 = job.store(0, i);
    const ckpt::Store& r1 = job.store(1, i);
    ASSERT_TRUE(r0.has_verified() && r1.has_verified()) << i;
    EXPECT_EQ(r0.verified().epoch, r1.verified().epoch) << i;
    EXPECT_TRUE(verified(r1).aliases(verified(r0))) << i;
  }
}

TEST(ImageSharing, ChecksumDetectionKeepsBothCopies) {
  Job job(strong(SdcDetection::Checksum));
  job.finish();
  ASSERT_GE(job.count(rt::TraceKind::CheckpointCommitted), 2u);
  for (int i = 0; i < job.nodes(); ++i) {
    const ckpt::Store& r0 = job.store(0, i);
    const ckpt::Store& r1 = job.store(1, i);
    ASSERT_TRUE(r0.has_verified() && r1.has_verified()) << i;
    EXPECT_TRUE(verified(r1).content_equals(verified(r0))) << i;
    EXPECT_FALSE(verified(r1).aliases(verified(r0))) << i;
  }
}

TEST(ImageSharing, SdcMismatchIsNotShared) {
  Job job(strong(SdcDetection::FullCompare));
  job.runtime.engine().run_until(0.006);
  job.task(1, 2, 0).value_at(1, 1, 1) += 3.0;
  // Stop at the verdict, before the rollback discards the candidates.
  while (job.count(rt::TraceKind::SdcDetected) == 0)
    ASSERT_TRUE(job.runtime.engine().step());
  for (int i = 0; i < job.nodes(); ++i) {
    const ckpt::Store& r0 = job.store(0, i);
    const ckpt::Store& r1 = job.store(1, i);
    ASSERT_TRUE(r0.has_candidate() && r1.has_candidate()) << i;
    bool same = candidate(r1).content_equals(candidate(r0));
    EXPECT_EQ(candidate(r1).aliases(candidate(r0)), same) << i;
    if (i == 2) {
      EXPECT_FALSE(same);
    }
  }
  job.finish();
  EXPECT_EQ(job.count(rt::TraceKind::SdcDetected), 1u);
}

TEST(ImageSharing, DifferenceWithinToleranceCommitsUnshared) {
  AcrConfig ac = strong(SdcDetection::FullCompare);
  ac.checker.defaults.rel_tol = 1e-6;
  Job job(ac);
  job.runtime.engine().run_until(0.006);
  job.task(1, 2, 0).value_at(1, 1, 1) *= 1.0 + 1e-12;
  job.finish();
  EXPECT_EQ(job.count(rt::TraceKind::SdcDetected), 0u);
  ASSERT_GE(job.count(rt::TraceKind::CheckpointCommitted), 2u);
  for (int i = 0; i < job.nodes(); ++i) {
    const ckpt::Store& r0 = job.store(0, i);
    const ckpt::Store& r1 = job.store(1, i);
    ASSERT_TRUE(r0.has_verified() && r1.has_verified()) << i;
    EXPECT_EQ(r0.verified().epoch, r1.verified().epoch) << i;
    bool same = verified(r1).content_equals(verified(r0));
    EXPECT_EQ(verified(r1).aliases(verified(r0)), same) << i;
    if (i == 2) {
      EXPECT_FALSE(same);
    }
  }
}

TEST(ImageSharing, StoreSharesOnlyIdenticalBytes) {
  std::vector<std::byte> bytes(64, std::byte{7});
  buf::Buffer twin = buf::Buffer::copy_of(bytes);
  ckpt::Store store;
  EXPECT_FALSE(store.share_candidate(twin));  // no candidate staged
  store.stage_candidate(3, 30, pup::Checkpoint(buf::Buffer::copy_of(bytes)));
  bytes[5] = std::byte{8};
  EXPECT_FALSE(store.share_candidate(buf::Buffer::copy_of(bytes)));
  EXPECT_FALSE(store.candidate().image.buffer().aliases(twin));
  EXPECT_TRUE(store.share_candidate(twin));
  EXPECT_TRUE(store.candidate().image.buffer().aliases(twin));
  ASSERT_EQ(store.promote(3), ckpt::PromoteResult::Promoted);
  EXPECT_TRUE(store.verified().image.buffer().aliases(twin));
  EXPECT_EQ(store.verified().iteration, 30u);
}

}  // namespace
}  // namespace acr
