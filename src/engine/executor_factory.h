#ifndef ZEUS_ENGINE_EXECUTOR_FACTORY_H_
#define ZEUS_ENGINE_EXECUTOR_FACTORY_H_

#include <memory>
#include <string>

#include "core/accuracy.h"
#include "core/localizer.h"
#include "core/query_planner.h"
#include "video/dataset.h"

namespace zeus::engine {

// Which localizer a query runs on. kAuto (the default) picks the
// inter-video batched Zeus-RL executor (§6.4) whenever the query spans more
// than one video and the sequential executor otherwise. The four baselines
// plug into the same execution path so apples-to-apples comparisons run
// through exactly the machinery real queries use.
enum class ExecutorKind {
  kAuto,
  kSequential,  // QueryExecutor (Zeus-RL, one video at a time)
  kBatched,     // BatchedExecutor (Zeus-RL, inter-video batching)
  kSliding,     // Zeus-Sliding baseline
  kHeuristic,   // Zeus-Heuristic baseline
  kFramePp,     // Frame-PP baseline (trains a 2D classifier first)
  kSegmentPp,   // Segment-PP baseline (trains a lite filter first)
};

const char* ExecutorKindName(ExecutorKind kind);

// Parses "auto", "sequential", "batched", "sliding", "heuristic",
// "frame_pp", "segment_pp" (case-insensitive). Returns kAuto on unknown
// input with *ok (when given) set to false.
ExecutorKind ParseExecutorKind(const std::string& name, bool* ok = nullptr);

// Per-query execution knobs, resolved by ExecutorFactory. (Submit() also
// reads the scheduling fields; see engine::QueryOptions.)
struct ExecutionOptions {
  ExecutorKind executor = ExecutorKind::kAuto;
  // Admission priority: higher runs earlier. Ties keep FIFO order within a
  // dataset and round-robin fairness across datasets (see AdmissionQueue).
  int priority = 0;
  // Anti-starvation aging: while queued, the query gains one priority band
  // for every `aging_threshold` dispatches it waits through, so a
  // low-priority ticket under a continuous high-priority flood still
  // completes within a bounded number of dispatches. 0 (default) disables
  // aging for this query. See AdmissionQueue for the exact rules.
  int aging_threshold = 0;
  // Serving tier: how much accuracy the engine may trade away under load
  // (docs/ACCURACY.md). kStrict (default) always plans and executes at
  // the query's own accuracy target; kBalanced concedes at most one
  // band; kBestEffort concedes one band per engine degrade level.
  core::QueryTier tier = core::QueryTier::kStrict;
  // Floor for tier-driven degradation: the effective accuracy target
  // never drops below this (0 = only the global kMinBandTarget floor).
  double min_accuracy = 0.0;
  // Modeled gpu-seconds budget for the localization itself. When > 0 and
  // the tier is not kStrict, the executors early-exit at the round
  // boundary where the cost model says the next round cannot fit; the
  // answer is annotated with its (reduced) achieved confidence. 0 = no
  // budget. Strict-tier queries ignore it so their answers stay
  // bit-identical to an unloaded run.
  double max_latency_budget = 0.0;
  // BatchedExecutor: maximum invocations fused into one modeled launch.
  int max_batch = 16;
  // Seed for the PP baselines' training RNG (their training is part of the
  // method under comparison, so it is owned by the factory-made localizer).
  uint64_t baseline_seed = 7;
};

// Builds ready-to-run localizers from a trained plan. Stateless; every
// Make() call returns a fresh localizer, so concurrent queries never share
// executor state (they share only the plan, whose inference path is
// thread-safe).
class ExecutorFactory {
 public:
  // Resolves kAuto against the query's video count.
  static ExecutorKind Resolve(const ExecutionOptions& opts,
                              size_t num_videos);

  // Builds the localizer for `plan`. The PP baselines additionally train
  // their predicate models on the dataset's train split (that cost is part
  // of the baseline method). The returned localizer borrows `plan` and
  // `dataset`, which must outlive it.
  static common::Result<std::unique_ptr<core::Localizer>> Make(
      const ExecutionOptions& opts, const core::QueryPlan* plan,
      const video::SyntheticDataset* dataset, size_t num_videos);

  // One-line description of what Resolve/Make would run — surfaced by
  // EXPLAIN so users can see the chosen executor without executing.
  static std::string Describe(const ExecutionOptions& opts,
                              size_t num_videos);
};

}  // namespace zeus::engine

#endif  // ZEUS_ENGINE_EXECUTOR_FACTORY_H_
