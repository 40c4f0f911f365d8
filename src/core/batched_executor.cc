#include "core/batched_executor.h"

#include <map>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "rl/env.h"
#include "tensor/tensor.h"

namespace zeus::core {

double BatchedExecutor::GroupCost(int config_id, int k) const {
  const Configuration& c = plan_->rl_space.config(config_id);
  double cost = 0.0;
  for (int remaining = k; remaining > 0; remaining -= opts_.max_batch) {
    cost += plan_->cost_model.BatchedSegmentCost(
        c.nominal_resolution, c.nominal_segment_length,
        std::min(remaining, opts_.max_batch));
  }
  return cost;
}

RunResult BatchedExecutor::Localize(
    const std::vector<const video::Video*>& videos) {
  common::WallTimer timer;
  RunResult result;
  if (cancel_.cancelled()) {
    result.cancelled = true;
    result.masks.resize(videos.size());
    result.wall_seconds = timer.ElapsedSeconds();
    return result;
  }
  apfg::FeatureCache* cache = plan_->cache.get();

  // One single-video environment per input video, stepped in lockstep.
  std::vector<std::unique_ptr<rl::VideoEnv>> envs;
  envs.reserve(videos.size());
  for (const video::Video* v : videos) {
    envs.push_back(std::make_unique<rl::VideoEnv>(
        std::vector<const video::Video*>{v}, &plan_->rl_space, cache,
        plan_->targets, plan_->env_opts));
  }

  // Runs one same-configuration group: its segments' features come from
  // one batched cache lookup (ceil(k / max_batch) extractor forwards for
  // the misses), charged as that many batched launches, and each member
  // then steps on its own output.
  std::vector<apfg::FeatureCache::Segment> segments;
  auto run_group = [&](int config_id, const std::vector<rl::VideoEnv*>& group,
                       bool reset) {
    segments.clear();
    for (const rl::VideoEnv* env : group) {
      segments.push_back({&env->next_video(), env->next_start()});
    }
    const auto outs = cache->GetBatch(
        segments, plan_->rl_space.config(config_id).spec, opts_.max_batch);
    for (size_t i = 0; i < group.size(); ++i) {
      if (reset) {
        group[i]->ResetSequential(*outs[i]);
      } else {
        group[i]->Step(config_id, *outs[i]);
      }
    }
    const int k = static_cast<int>(group.size());
    result.gpu_seconds += GroupCost(config_id, k);
    result.invocations += k;
  };

  // Round 0: every video's forced initial invocation uses the slowest
  // configuration (§3), so they all batch together.
  std::vector<rl::VideoEnv*> active;
  for (auto& env : envs) active.push_back(env.get());
  run_group(plan_->rl_space.SlowestId(), active, /*reset=*/true);

  // Lockstep rounds over the active environments. The state batch and the
  // action vector are reused across rounds.
  tensor::Tensor states;
  std::vector<int> actions;
  while (true) {
    // Cancellation point: a Cancel() lands before the next round starts, so
    // the abort latency is bounded by one lockstep round.
    if (cancel_.cancelled()) {
      result.cancelled = true;
      break;
    }
    active.clear();
    for (auto& env : envs) {
      if (!env->done()) active.push_back(env.get());
    }
    if (active.empty()) break;
    // One Q-network forward over every active state.
    const int dim = static_cast<int>(active[0]->state().size());
    states.Resize({static_cast<int>(active.size()), dim});
    for (size_t i = 0; i < active.size(); ++i) {
      std::copy(active[i]->state().begin(), active[i]->state().end(),
                states.data() + i * static_cast<size_t>(dim));
    }
    plan_->agent->GreedyActions(states, &actions);
    std::map<int, std::vector<rl::VideoEnv*>> groups;
    for (size_t i = 0; i < active.size(); ++i) {
      groups[actions[i]].push_back(active[i]);
    }
    if (gpu_budget_ > 0.0) {
      // Budget point: the cost model prices the whole upcoming round; if
      // it cannot fit the remaining budget, stop here — the same round
      // boundary the cancellation check uses, so strict-tier runs (which
      // never set a budget) execute an identical schedule.
      double round_cost = 0.0;
      for (const auto& [config_id, members] : groups) {
        round_cost += GroupCost(config_id, static_cast<int>(members.size()));
      }
      if (result.gpu_seconds + round_cost > gpu_budget_) {
        result.budget_exhausted = true;
        break;
      }
    }
    for (const auto& [config_id, members] : groups) {
      run_group(config_id, members, /*reset=*/false);
    }
  }

  // Collect masks and per-config frame accounting from the environments.
  for (auto& env : envs) {
    result.masks.push_back(env->mask(0));
    result.total_frames += env->total_frames();
    for (const auto& [config_id, frames] : env->invocation_log()) {
      result.frames_per_config[config_id] += frames;
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace zeus::core
