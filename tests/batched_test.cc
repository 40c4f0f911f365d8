// Tests for the inter-video batched executor (§6.4 extension): answers
// must be identical to the sequential executor; batching changes only the
// launches and their cost accounting, which must change in the right
// direction, and the feature cache must read as if queried one at a time.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "apfg/feature_cache.h"
#include "common/thread_pool.h"
#include "core/batched_executor.h"
#include "core/executor.h"
#include "core/query_planner.h"
#include "rl/env.h"
#include "tensor/gemm.h"
#include "video/dataset.h"

namespace zeus {
namespace {

class BatchedExecutorTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile =
        video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
    profile.num_videos = 12;
    profile.frames_per_video = 200;
    dataset_ = new video::SyntheticDataset(
        video::SyntheticDataset::Generate(profile, 73));

    core::QueryPlanner::Options opts;
    opts.apfg.epochs = 4;
    opts.profile.max_windows_per_config = 60;
    opts.trainer.episodes = 3;
    opts.trainer.min_buffer = 32;
    opts.trainer.agent.batch_size = 32;
    core::QueryPlanner planner(dataset_, opts);
    auto plan = planner.PlanForClasses({video::ActionClass::kCrossRight}, 0.8);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = new core::QueryPlan(std::move(plan).value());
    for (int i : dataset_->test_indices()) {
      test_.push_back(&dataset_->video(static_cast<size_t>(i)));
    }
  }

  static void TearDownTestSuite() {
    delete plan_;
    delete dataset_;
    plan_ = nullptr;
    dataset_ = nullptr;
  }

  // A copy of the shared plan that owns a new, empty feature cache.
  static core::QueryPlan CopyPlanWithFreshCache() {
    core::QueryPlan plan = *plan_;
    plan.cache = std::make_shared<apfg::FeatureCache>(plan.apfg.get());
    return plan;
  }

  static video::SyntheticDataset* dataset_;
  static core::QueryPlan* plan_;
  static std::vector<const video::Video*> test_;
};

video::SyntheticDataset* BatchedExecutorTest::dataset_ = nullptr;
core::QueryPlan* BatchedExecutorTest::plan_ = nullptr;
std::vector<const video::Video*> BatchedExecutorTest::test_;

TEST_F(BatchedExecutorTest, MasksIdenticalToSequentialExecutor) {
  core::QueryExecutor sequential(plan_);
  auto base = sequential.Localize(test_);
  core::BatchedExecutor::Options opts;
  opts.max_batch = 8;
  core::BatchedExecutor batched(plan_, opts);
  auto run = batched.Localize(test_);
  ASSERT_EQ(run.masks.size(), base.masks.size());
  for (size_t i = 0; i < run.masks.size(); ++i) {
    EXPECT_EQ(run.masks[i], base.masks[i]) << "video " << i;
  }
  EXPECT_EQ(run.total_frames, base.total_frames);
  EXPECT_EQ(run.invocations, base.invocations);
  EXPECT_EQ(run.frames_per_config, base.frames_per_config);
}

// Running the batched forwards on a thread pool must not change anything
// observable: the Q-network and APFG forwards are bit-identical across
// thread counts, so every mask, count and cost matches byte for byte a run
// with a null pool set through the compute context. Each run starts from a
// fresh feature cache so both extract every segment themselves.
TEST_F(BatchedExecutorTest, ParallelSteppingByteIdenticalToSequential) {
  tensor::ComputeContext& ctx = tensor::GlobalComputeContext();
  common::ThreadPool* saved_pool = ctx.pool;
  core::QueryPlan plan = CopyPlanWithFreshCache();
  ctx.pool = nullptr;
  auto base = core::BatchedExecutor(&plan).Localize(test_);
  common::ThreadPool pool(4);
  ctx.pool = &pool;
  plan.cache = std::make_shared<apfg::FeatureCache>(plan.apfg.get());
  auto run = core::BatchedExecutor(&plan).Localize(test_);
  ctx.pool = saved_pool;
  ASSERT_EQ(run.masks.size(), base.masks.size());
  for (size_t i = 0; i < run.masks.size(); ++i) {
    EXPECT_EQ(run.masks[i], base.masks[i]) << "video " << i;
  }
  EXPECT_EQ(run.total_frames, base.total_frames);
  EXPECT_EQ(run.invocations, base.invocations);
  EXPECT_EQ(run.frames_per_config, base.frames_per_config);
  EXPECT_EQ(run.gpu_seconds, base.gpu_seconds);
}

// The batched cache lookups must leave the feature cache exactly as a Get
// per invocation would: after a pass over a fresh cache, hits, misses and
// size equal those of one-at-a-time Gets on the same keys, replayed by
// sequential traversals over a second fresh cache.
TEST_F(BatchedExecutorTest, CacheCountersMatchOneAtATimeGets) {
  core::QueryPlan plan = CopyPlanWithFreshCache();
  core::BatchedExecutor::Options opts;
  opts.max_batch = 3;  // several launches per group
  auto run = core::BatchedExecutor(&plan, opts).Localize(test_);
  ASSERT_GT(plan.cache->misses(), 0u);

  apfg::FeatureCache replay(plan.apfg.get());
  for (size_t i = 0; i < test_.size(); ++i) {
    rl::VideoEnv env({test_[i]}, &plan.rl_space, &replay, plan.targets,
                     plan.env_opts);
    // The sequential traversal of this video issues the same keys as the
    // batched one and, from its own batch-1 extractions, the same mask.
    env.ResetSequential();
    while (!env.done()) env.Step(plan.agent->GreedyAction(env.state()));
    EXPECT_EQ(env.mask(0), run.masks[i]) << "video " << i;
  }
  EXPECT_EQ(plan.cache->hits(), replay.hits());
  EXPECT_EQ(plan.cache->misses(), replay.misses());
  EXPECT_EQ(plan.cache->size(), replay.size());
  EXPECT_EQ(plan.cache->evictions(), replay.evictions());
  EXPECT_EQ(run.invocations,
            static_cast<long>(replay.hits() + replay.misses()));
}

// GetBatch and Get racing on overlapping keys: whatever the interleaving,
// every caller ends up holding the one resident value per key, and each
// key is counted as exactly one miss.
TEST_F(BatchedExecutorTest, ConcurrentGetBatchAndGetShareOneResidentValue) {
  apfg::FeatureCache cache(plan_->apfg.get());
  const video::DecodeSpec spec =
      plan_->rl_space.config(plan_->rl_space.SlowestId()).spec;
  std::vector<apfg::FeatureCache::Segment> segments;
  for (const video::Video* v : test_) {
    for (int start : {0, 16, 32}) segments.push_back({v, start});
  }
  std::vector<std::shared_ptr<const apfg::Apfg::Output>> batched;
  std::vector<std::shared_ptr<const apfg::Apfg::Output>> single(
      segments.size());
  std::thread other([&] {
    for (size_t i = segments.size(); i-- > 0;) {
      single[i] = cache.Get(*segments[i].video, segments[i].start_frame, spec);
    }
  });
  batched = cache.GetBatch(segments, spec, /*max_batch=*/4);
  other.join();
  ASSERT_EQ(batched.size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto resident =
        cache.Get(*segments[i].video, segments[i].start_frame, spec);
    EXPECT_EQ(batched[i].get(), resident.get()) << "segment " << i;
    EXPECT_EQ(single[i].get(), resident.get()) << "segment " << i;
  }
  EXPECT_EQ(cache.misses(), segments.size());
  EXPECT_EQ(cache.size(), segments.size());
}

// A key repeated within one GetBatch counts as a miss and then hits, as
// consecutive Gets would, and every repeat shares the one value.
TEST_F(BatchedExecutorTest, GetBatchCountsRepeatsLikeGets) {
  apfg::FeatureCache cache(plan_->apfg.get());
  const video::DecodeSpec spec =
      plan_->rl_space.config(plan_->rl_space.SlowestId()).spec;
  const video::Video* v = test_[0];
  const auto first = cache.Get(*v, 0, spec);
  const auto outs =
      cache.GetBatch({{v, 8}, {v, 0}, {v, 8}, {v, 16}, {v, 8}}, spec, 2);
  EXPECT_EQ(cache.misses(), 3u);  // 0 (the Get), 8, 16
  EXPECT_EQ(cache.hits(), 3u);    // 0, and 8 twice
  EXPECT_EQ(outs[1].get(), first.get());
  EXPECT_EQ(outs[0].get(), outs[2].get());
  EXPECT_EQ(outs[0].get(), outs[4].get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(BatchedExecutorTest, WidthOneMatchesSequentialCost) {
  core::QueryExecutor sequential(plan_);
  auto base = sequential.Localize(test_);
  core::BatchedExecutor::Options opts;
  opts.max_batch = 1;
  core::BatchedExecutor batched(plan_, opts);
  auto run = batched.Localize(test_);
  EXPECT_NEAR(run.gpu_seconds, base.gpu_seconds, 1e-9);
}

TEST_F(BatchedExecutorTest, CostDecreasesMonotonicallyWithWidth) {
  double prev = 1e18;
  for (int width : {1, 2, 4, 8, 16}) {
    core::BatchedExecutor::Options opts;
    opts.max_batch = width;
    core::BatchedExecutor batched(plan_, opts);
    auto run = batched.Localize(test_);
    EXPECT_LE(run.gpu_seconds, prev + 1e-12) << "width " << width;
    prev = run.gpu_seconds;
  }
}

TEST_F(BatchedExecutorTest, SingleVideoStillWorks) {
  core::BatchedExecutor batched(plan_);
  auto run = batched.Localize({test_[0]});
  ASSERT_EQ(run.masks.size(), 1u);
  EXPECT_EQ(static_cast<int>(run.masks[0].size()), test_[0]->num_frames());
  EXPECT_GT(run.gpu_seconds, 0.0);
}

}  // namespace
}  // namespace zeus
