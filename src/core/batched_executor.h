#ifndef ZEUS_CORE_BATCHED_EXECUTOR_H_
#define ZEUS_CORE_BATCHED_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/executor.h"
#include "core/localizer.h"
#include "core/query_planner.h"

namespace zeus::core {

// Inter-video batched Zeus-RL executor — the extension the paper sketches
// in §6.4: the sequential executor cannot batch within one video (each
// decision depends on the previous segment's ProxyFeature), but across
// videos the per-video traversals are independent, so same-configuration
// invocations from different videos can share one launch.
//
// The executor runs one traversal per video in lockstep rounds. Each round
// stacks the still-active videos' states into one batch and runs one
// Q-network forward for all of their greedy configuration choices, groups
// the choices by configuration, and fetches each group's segments with one
// FeatureCache::GetBatch: the group's cache misses are extracted in
// ceil(k / max_batch) batched APFG forwards — the launches the cost model
// charges — instead of k singleton ones. The environments then step inline;
// parallelism lives inside the batched forwards (Conv3d batch split and the
// SGEMM). Every batched forward is row-independent bit for bit, so
// decisions, predictions and masks are identical to running QueryExecutor
// on each video separately.
class BatchedExecutor : public Localizer {
 public:
  struct Options {
    // Maximum invocations fused into one launch (GPU memory bound).
    int max_batch = 16;
  };

  BatchedExecutor(const QueryPlan* plan, const Options& opts)
      : plan_(plan), opts_(opts) {}
  explicit BatchedExecutor(const QueryPlan* plan)
      : BatchedExecutor(plan, Options()) {}

  RunResult Localize(const std::vector<const video::Video*>& videos) override;
  std::string name() const override { return "Zeus-RL-Batched"; }

  const Options& options() const { return opts_; }

 private:
  // Modeled cost of k same-configuration invocations: ceil(k / max_batch)
  // batched launches of at most max_batch each.
  double GroupCost(int config_id, int k) const;

  const QueryPlan* plan_;
  Options opts_;
};

}  // namespace zeus::core

#endif  // ZEUS_CORE_BATCHED_EXECUTOR_H_
