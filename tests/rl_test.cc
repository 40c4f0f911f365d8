// Unit tests for zeus::rl — replay buffer cyclicity and delayed commits,
// reward functions (Eq. 2 scenarios of Fig. 7 and Alg. 2 signs), DQN on a
// trivially learnable contextual bandit, env traversal invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apfg/feature_cache.h"
#include "common/rng.h"
#include "core/configuration.h"
#include "rl/dqn_agent.h"
#include "rl/env.h"
#include "rl/replay_buffer.h"
#include "rl/reward.h"

namespace zeus::rl {
namespace {

Experience MakeExp(float reward) {
  Experience e;
  e.state = {0.0f};
  e.next_state = {0.0f};
  e.reward = reward;
  return e;
}

TEST(ReplayBufferTest, CyclicOverwrite) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) buf.Push(MakeExp(static_cast<float>(i)));
  EXPECT_EQ(buf.size(), 3u);
  // Contents are the last three pushes (0,1 overwritten by 3,4).
  float sum = 0;
  for (size_t i = 0; i < buf.size(); ++i) sum += buf.at(i).reward;
  EXPECT_FLOAT_EQ(sum, 2 + 3 + 4);
}

TEST(ReplayBufferTest, DelayedCommitAddsReward) {
  ReplayBuffer buf(10);
  buf.Stage(MakeExp(0.5f));
  buf.Stage(MakeExp(-0.25f));
  EXPECT_EQ(buf.StagedCount(), 2u);
  EXPECT_EQ(buf.size(), 0u);
  buf.CommitStaged(1.0f);  // aggregate reward patched onto each
  EXPECT_EQ(buf.StagedCount(), 0u);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_FLOAT_EQ(buf.at(0).reward, 1.5f);
  EXPECT_FLOAT_EQ(buf.at(1).reward, 0.75f);
}

TEST(ReplayBufferTest, DiscardStagedDropsExperiences) {
  ReplayBuffer buf(10);
  buf.Stage(MakeExp(1.0f));
  buf.DiscardStaged();
  buf.CommitStaged(0.0f);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ReplayBufferTest, SampleReturnsStoredPointers) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 4; ++i) buf.Push(MakeExp(static_cast<float>(i)));
  common::Rng rng(1);
  auto sample = buf.Sample(16, &rng);
  EXPECT_EQ(sample.size(), 16u);
  for (const Experience* e : sample) {
    EXPECT_GE(e->reward, 0.0f);
    EXPECT_LE(e->reward, 3.0f);
  }
}

core::Configuration MakeConfig(int id, double alpha) {
  core::Configuration c;
  c.id = id;
  c.alpha = alpha;
  return c;
}

TEST(RewardTest, LocalRewardFavoursSlowOnAction) {
  // Fig. 7a: fast configuration on an action window must be penalized
  // relative to a slow one.
  RewardOptions opts;
  opts.local_weight = 1.0;
  RewardFunction reward(opts, /*num_configs=*/4);
  core::Configuration fast = MakeConfig(0, 0.7);  // fastness 2.8
  core::Configuration slow = MakeConfig(1, 0.05);  // fastness 0.2
  EXPECT_LT(reward.LocalReward(fast, /*window_has_action=*/true),
            reward.LocalReward(slow, true));
  EXPECT_LT(reward.LocalReward(fast, true), 0.0);  // beta cutoff exceeded
}

TEST(RewardTest, LocalRewardFavoursFastOnEmpty) {
  // Fig. 7b/7c: more frames skipped in an empty region earns more reward;
  // slow configurations are not penalized.
  RewardOptions opts;
  opts.local_weight = 1.0;
  RewardFunction reward(opts, 4);
  core::Configuration fast = MakeConfig(0, 0.7);
  core::Configuration slow = MakeConfig(1, 0.05);
  EXPECT_GT(reward.LocalReward(fast, false), reward.LocalReward(slow, false));
  EXPECT_GE(reward.LocalReward(slow, false), 0.0);
}

TEST(RewardTest, AggregateRewardSigns) {
  // Alg. 2: meeting the target yields a reward that grows as achieved
  // accuracy approaches the target from above; missing it yields a penalty
  // proportional to the deficit.
  const double target = 0.8;
  EXPECT_GT(RewardFunction::AggregateReward(0.81, target),
            RewardFunction::AggregateReward(0.99, target));
  EXPECT_NEAR(RewardFunction::AggregateReward(1.0, target), 0.0, 1e-9);
  EXPECT_NEAR(RewardFunction::AggregateReward(0.8, target), 1.0, 1e-9);
  EXPECT_LT(RewardFunction::AggregateReward(0.5, target), 0.0);
  EXPECT_LT(RewardFunction::AggregateReward(0.3, target),
            RewardFunction::AggregateReward(0.6, target));
}

TEST(RewardTest, AggregateOnlyModeZeroesLocal) {
  RewardOptions opts;
  opts.mode = RewardOptions::Mode::kAggregateOnly;
  RewardFunction reward(opts, 4);
  EXPECT_EQ(reward.LocalReward(MakeConfig(0, 0.5), true), 0.0);
}

TEST(DqnAgentTest, GreedyIsArgmaxOfQValues) {
  common::Rng rng(2);
  DqnAgent::Options opts;
  opts.state_dim = 3;
  opts.num_actions = 4;
  DqnAgent agent(opts, &rng);
  agent.set_epsilon(0.0f);
  std::vector<float> s{0.1f, -0.2f, 0.3f};
  auto q = agent.QValues(s);
  int best = 0;
  for (int a = 1; a < 4; ++a)
    if (q[static_cast<size_t>(a)] > q[static_cast<size_t>(best)]) best = a;
  EXPECT_EQ(agent.SelectAction(s), best);
}

// One forward over m stacked states picks, row for row, the action a
// one-state GreedyAction picks, for every batch size the lockstep executor
// can produce.
TEST(DqnAgentTest, GreedyActionsMatchGreedyActionPerRow) {
  common::Rng rng(5);
  DqnAgent::Options opts;
  opts.state_dim = 13;
  opts.num_actions = 6;
  DqnAgent agent(opts, &rng);
  std::vector<std::vector<float>> rows(24, std::vector<float>(13));
  for (auto& row : rows) {
    for (float& x : row) x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<int> actions;
  for (int m = 1; m <= static_cast<int>(rows.size()); ++m) {
    tensor::Tensor states({m, 13});
    for (int i = 0; i < m; ++i) {
      std::copy(rows[static_cast<size_t>(i)].begin(),
                rows[static_cast<size_t>(i)].end(),
                states.data() + static_cast<size_t>(i) * 13);
    }
    agent.GreedyActions(states, &actions);
    ASSERT_EQ(static_cast<int>(actions.size()), m);
    for (int i = 0; i < m; ++i) {
      EXPECT_EQ(actions[static_cast<size_t>(i)],
                agent.GreedyAction(rows[static_cast<size_t>(i)]))
          << "m=" << m << " row " << i;
    }
  }
}

TEST(DqnAgentTest, EpsilonDecaysToFloor) {
  common::Rng rng(3);
  DqnAgent::Options opts;
  opts.state_dim = 2;
  opts.num_actions = 2;
  opts.epsilon_decay = 0.5f;
  opts.epsilon_end = 0.1f;
  DqnAgent agent(opts, &rng);
  for (int i = 0; i < 20; ++i) agent.EndEpisode();
  EXPECT_FLOAT_EQ(agent.epsilon(), 0.1f);
}

TEST(DqnAgentTest, LearnsContextualBandit) {
  // State s in {(1,0), (0,1)}; correct action = index of the hot bit;
  // reward 1 for correct, 0 otherwise, episodic (done=true). The agent's
  // greedy policy must recover the mapping.
  common::Rng rng(4);
  DqnAgent::Options opts;
  opts.state_dim = 2;
  opts.num_actions = 2;
  opts.batch_size = 16;
  opts.lr = 5e-3f;
  DqnAgent agent(opts, &rng);
  ReplayBuffer buf(512);
  common::Rng data_rng(5);
  for (int i = 0; i < 256; ++i) {
    int ctx = data_rng.NextInt(0, 1);
    int act = data_rng.NextInt(0, 1);
    Experience e;
    e.state = {ctx == 0 ? 1.0f : 0.0f, ctx == 1 ? 1.0f : 0.0f};
    e.action = act;
    e.reward = act == ctx ? 1.0f : 0.0f;
    e.next_state = e.state;
    e.done = true;
    buf.Push(std::move(e));
  }
  for (int step = 0; step < 300; ++step) agent.TrainStep(buf);
  agent.set_epsilon(0.0f);
  EXPECT_EQ(agent.GreedyAction({1.0f, 0.0f}), 0);
  EXPECT_EQ(agent.GreedyAction({0.0f, 1.0f}), 1);
}

TEST(DqnAgentTest, DoubleDqnLearnsContextualBandit) {
  // Same bandit as above, but with Double DQN target decoupling: the
  // variant must converge to the same policy.
  common::Rng rng(4);
  DqnAgent::Options opts;
  opts.state_dim = 2;
  opts.num_actions = 2;
  opts.batch_size = 16;
  opts.lr = 5e-3f;
  opts.double_dqn = true;
  DqnAgent agent(opts, &rng);
  ReplayBuffer buf(512);
  common::Rng data_rng(5);
  for (int i = 0; i < 256; ++i) {
    int ctx = data_rng.NextInt(0, 1);
    int act = data_rng.NextInt(0, 1);
    Experience e;
    e.state = {ctx == 0 ? 1.0f : 0.0f, ctx == 1 ? 1.0f : 0.0f};
    e.action = act;
    e.reward = act == ctx ? 1.0f : 0.0f;
    e.next_state = e.state;
    e.done = true;
    buf.Push(std::move(e));
  }
  for (int step = 0; step < 300; ++step) agent.TrainStep(buf);
  agent.set_epsilon(0.0f);
  EXPECT_EQ(agent.GreedyAction({1.0f, 0.0f}), 0);
  EXPECT_EQ(agent.GreedyAction({0.0f, 1.0f}), 1);
}

TEST(DqnAgentTest, LinearEpsilonScheduleReachesFloorExactly) {
  common::Rng rng(4);
  DqnAgent::Options opts;
  opts.epsilon_start = 1.0f;
  opts.epsilon_end = 0.2f;
  opts.epsilon_schedule = EpsilonSchedule::kLinear;
  opts.epsilon_linear_episodes = 4;
  DqnAgent agent(opts, &rng);
  std::vector<float> seen;
  for (int i = 0; i < 6; ++i) {
    agent.EndEpisode();
    seen.push_back(agent.epsilon());
  }
  EXPECT_NEAR(seen[0], 0.8f, 1e-5);
  EXPECT_NEAR(seen[1], 0.6f, 1e-5);
  EXPECT_NEAR(seen[3], 0.2f, 1e-5);
  EXPECT_NEAR(seen[5], 0.2f, 1e-5);  // clamps at the floor
}

TEST(PrioritizedReplayTest, NewExperiencesGetMaxPriority) {
  PrioritizedReplayBuffer buf(8);
  Experience e;
  e.state = {1.0f};
  e.next_state = {1.0f};
  buf.Push(e);
  buf.Push(e);
  EXPECT_FLOAT_EQ(buf.priority(0), 1.0f);
  buf.UpdatePriorities({0}, {4.0f});
  EXPECT_FLOAT_EQ(buf.priority(0), 4.0f);
  // The max priority is sticky: the next insert inherits it.
  buf.Push(e);
  EXPECT_FLOAT_EQ(buf.priority(2), 4.0f);
}

TEST(PrioritizedReplayTest, SamplingIsProportionalToPriority) {
  PrioritizedReplayBuffer::Options popts;
  popts.alpha = 1.0f;
  popts.epsilon = 1e-6f;
  PrioritizedReplayBuffer buf(4, popts);
  Experience e;
  e.state = {0.0f};
  e.next_state = {0.0f};
  for (int i = 0; i < 4; ++i) buf.Push(e);
  // Index 3 gets 7x the priority mass of each other slot.
  buf.UpdatePriorities({0, 1, 2, 3}, {1.0f, 1.0f, 1.0f, 7.0f});
  common::Rng rng(11);
  int hits = 0;
  const int kDraws = 4000;
  auto sample = buf.SampleBatch(kDraws, &rng);
  for (size_t idx : sample.indices) hits += idx == 3 ? 1 : 0;
  // Expected share 7/10; allow generous slack for sampling noise.
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.7, 0.05);
  // High-priority samples carry smaller importance weights.
  float w_hi = 0.0f, w_lo = 0.0f;
  for (size_t i = 0; i < sample.indices.size(); ++i) {
    if (sample.indices[i] == 3) w_hi = sample.weights[i];
    if (sample.indices[i] == 0) w_lo = sample.weights[i];
  }
  EXPECT_LT(w_hi, w_lo);
  EXPECT_LE(w_lo, 1.0f + 1e-5f);
}

TEST(PrioritizedReplayTest, UniformWhenAllPrioritiesEqual) {
  PrioritizedReplayBuffer buf(4);
  Experience e;
  e.state = {0.0f};
  e.next_state = {0.0f};
  for (int i = 0; i < 4; ++i) buf.Push(e);
  common::Rng rng(13);
  auto sample = buf.SampleBatch(2000, &rng);
  std::vector<int> counts(4, 0);
  for (size_t idx : sample.indices) counts[idx]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 2000.0, 0.25, 0.05);
  }
  for (float w : sample.weights) EXPECT_NEAR(w, 1.0f, 1e-4);
}

TEST(PrioritizedReplayTest, AgentLearnsBanditWithPer) {
  common::Rng rng(4);
  DqnAgent::Options opts;
  opts.state_dim = 2;
  opts.num_actions = 2;
  opts.batch_size = 16;
  opts.lr = 5e-3f;
  DqnAgent agent(opts, &rng);
  PrioritizedReplayBuffer buf(512);
  common::Rng data_rng(5);
  for (int i = 0; i < 256; ++i) {
    int ctx = data_rng.NextInt(0, 1);
    int act = data_rng.NextInt(0, 1);
    Experience e;
    e.state = {ctx == 0 ? 1.0f : 0.0f, ctx == 1 ? 1.0f : 0.0f};
    e.action = act;
    e.reward = act == ctx ? 1.0f : 0.0f;
    e.next_state = e.state;
    e.done = true;
    buf.Push(std::move(e));
  }
  for (int step = 0; step < 300; ++step) agent.TrainStep(buf);
  agent.set_epsilon(0.0f);
  EXPECT_EQ(agent.GreedyAction({1.0f, 0.0f}), 0);
  EXPECT_EQ(agent.GreedyAction({0.0f, 1.0f}), 1);
}

// --- VideoEnv tests over a tiny real pipeline -----------------------------

struct EnvFixture : public ::testing::Test {
  void SetUp() override {
    auto profile =
        video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
    profile.num_videos = 3;
    profile.frames_per_video = 120;
    dataset = std::make_unique<video::SyntheticDataset>(
        video::SyntheticDataset::Generate(profile, 21));
    for (size_t i = 0; i < dataset->num_videos(); ++i) {
      videos.push_back(&dataset->video(i));
    }
    space = core::ConfigurationSpace::ForFamily(profile.family);
    space.AttachCosts(core::CostModel{});
    rng = std::make_unique<common::Rng>(6);
    apfg = std::make_unique<apfg::Apfg>(apfg::ApfgTrainOptions{}, true,
                                        rng.get());
    cache = std::make_unique<apfg::FeatureCache>(apfg.get());
  }

  std::unique_ptr<video::SyntheticDataset> dataset;
  std::vector<const video::Video*> videos;
  core::ConfigurationSpace space;
  std::unique_ptr<common::Rng> rng;
  std::unique_ptr<apfg::Apfg> apfg;
  std::unique_ptr<apfg::FeatureCache> cache;
};

TEST_F(EnvFixture, StateDimIncludesExtras) {
  VideoEnv::Options opts;
  opts.feature_dim = 32;
  VideoEnv env(videos, &space, cache.get(),
               {video::ActionClass::kCrossRight}, opts);
  EXPECT_EQ(env.state_dim(), 32 + 1 + static_cast<int>(space.size()) + 1);
}

TEST_F(EnvFixture, TraversalCoversAllFramesExactlyOnce) {
  VideoEnv::Options opts;
  VideoEnv env(videos, &space, cache.get(),
               {video::ActionClass::kCrossRight}, opts);
  env.ResetSequential();
  int guard = 0;
  while (!env.done() && guard++ < 10000) {
    env.Step(space.FastestId());
  }
  EXPECT_TRUE(env.done());
  long covered = 0;
  for (const auto& [cfg, frames] : env.invocation_log()) {
    (void)cfg;
    covered += frames;
  }
  EXPECT_EQ(covered, env.total_frames());
}

TEST_F(EnvFixture, WindowsAreClampedToVideoEnd) {
  VideoEnv::Options opts;
  VideoEnv env(videos, &space, cache.get(),
               {video::ActionClass::kCrossRight}, opts);
  env.ResetSequential();
  while (!env.done()) {
    auto res = env.Step(space.SlowestId());
    EXPECT_LE(res.window_end,
              env.video(res.video_index).num_frames());
    EXPECT_LT(res.window_start, res.window_end);
  }
}

TEST_F(EnvFixture, StateVectorHasDeclaredSize) {
  VideoEnv::Options opts;
  VideoEnv env(videos, &space, cache.get(),
               {video::ActionClass::kCrossRight}, opts);
  env.ResetSequential();
  EXPECT_EQ(static_cast<int>(env.state().size()), env.state_dim());
  env.Step(0);
  EXPECT_EQ(static_cast<int>(env.state().size()), env.state_dim());
}

}  // namespace
}  // namespace zeus::rl
