#include "engine/executor_factory.h"

#include <utility>

#include "baselines/frame_pp.h"
#include "baselines/heuristic.h"
#include "baselines/segment_pp.h"
#include "baselines/sliding.h"
#include "common/stringutil.h"
#include "core/batched_executor.h"
#include "core/executor.h"

namespace zeus::engine {

namespace {

// Adapter that keeps a baseline localizer together with the RNG it borrows
// (the baselines store the pointer for training-time sampling).
class OwningLocalizer : public core::Localizer {
 public:
  OwningLocalizer(std::unique_ptr<common::Rng> rng,
                  std::unique_ptr<core::Localizer> inner)
      : rng_(std::move(rng)), inner_(std::move(inner)) {}

  core::RunResult Localize(
      const std::vector<const video::Video*>& videos) override {
    return inner_->Localize(videos);
  }
  std::string name() const override { return inner_->name(); }
  void SetCancellation(core::CancellationToken token) override {
    inner_->SetCancellation(std::move(token));
  }

 private:
  std::unique_ptr<common::Rng> rng_;
  std::unique_ptr<core::Localizer> inner_;
};

std::vector<const video::Video*> TrainVideos(
    const video::SyntheticDataset* dataset) {
  std::vector<const video::Video*> out;
  for (int i : dataset->train_indices()) {
    out.push_back(&dataset->video(static_cast<size_t>(i)));
  }
  return out;
}

}  // namespace

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kAuto:
      return "auto";
    case ExecutorKind::kSequential:
      return "sequential";
    case ExecutorKind::kBatched:
      return "batched";
    case ExecutorKind::kSliding:
      return "sliding";
    case ExecutorKind::kHeuristic:
      return "heuristic";
    case ExecutorKind::kFramePp:
      return "frame_pp";
    case ExecutorKind::kSegmentPp:
      return "segment_pp";
  }
  return "unknown";
}

ExecutorKind ParseExecutorKind(const std::string& name, bool* ok) {
  const std::string s = common::ToLower(common::Trim(name));
  if (ok != nullptr) *ok = true;
  if (s == "auto") return ExecutorKind::kAuto;
  if (s == "sequential" || s == "zeus-rl") return ExecutorKind::kSequential;
  if (s == "batched" || s == "zeus-rl-batched") return ExecutorKind::kBatched;
  if (s == "sliding") return ExecutorKind::kSliding;
  if (s == "heuristic") return ExecutorKind::kHeuristic;
  if (s == "frame_pp") return ExecutorKind::kFramePp;
  if (s == "segment_pp") return ExecutorKind::kSegmentPp;
  if (ok != nullptr) *ok = false;
  return ExecutorKind::kAuto;
}

ExecutorKind ExecutorFactory::Resolve(const ExecutionOptions& opts,
                                      size_t num_videos) {
  if (opts.executor != ExecutorKind::kAuto) return opts.executor;
  // Batching pays off exactly when independent per-video traversals exist.
  return num_videos > 1 ? ExecutorKind::kBatched : ExecutorKind::kSequential;
}

std::string ExecutorFactory::Describe(const ExecutionOptions& opts,
                                      size_t num_videos) {
  const ExecutorKind kind = Resolve(opts, num_videos);
  if (kind == ExecutorKind::kBatched) {
    return common::Format("batched (Zeus-RL-Batched, max_batch %d, %zu videos)",
                          opts.max_batch, num_videos);
  }
  return common::Format("%s (%zu video%s)", ExecutorKindName(kind), num_videos,
                        num_videos == 1 ? "" : "s");
}

common::Result<std::unique_ptr<core::Localizer>> ExecutorFactory::Make(
    const ExecutionOptions& opts, const core::QueryPlan* plan,
    const video::SyntheticDataset* dataset, size_t num_videos) {
  if (plan == nullptr) {
    return common::Status::InvalidArgument("executor factory needs a plan");
  }
  const ExecutorKind kind = Resolve(opts, num_videos);
  switch (kind) {
    case ExecutorKind::kAuto:  // unreachable after Resolve
    case ExecutorKind::kSequential:
      return std::unique_ptr<core::Localizer>(
          std::make_unique<core::QueryExecutor>(plan));
    case ExecutorKind::kBatched: {
      core::BatchedExecutor::Options bopts;
      bopts.max_batch = opts.max_batch;
      return std::unique_ptr<core::Localizer>(
          std::make_unique<core::BatchedExecutor>(plan, bopts));
    }
    case ExecutorKind::kSliding: {
      const int id =
          baselines::PickSlidingConfig(plan->space, plan->accuracy_target);
      return std::unique_ptr<core::Localizer>(
          std::make_unique<baselines::ZeusSliding>(
              plan->space.config(id), plan->apfg.get(), plan->cost_model));
    }
    case ExecutorKind::kHeuristic:
      return std::unique_ptr<core::Localizer>(
          std::make_unique<baselines::ZeusHeuristic>(
              baselines::ZeusHeuristic::Options{}, &plan->rl_space,
              plan->cache.get()));
    case ExecutorKind::kFramePp: {
      if (dataset == nullptr) {
        return common::Status::InvalidArgument(
            "frame_pp needs the dataset (its classifier trains on the train "
            "split)");
      }
      auto rng = std::make_unique<common::Rng>(opts.baseline_seed);
      baselines::FramePp::Options fp;
      fp.nominal_resolution = plan->space.NominalResolutions().back();
      fp.resolution_px =
          plan->space.config(plan->space.SlowestId()).spec.resolution_px;
      auto pp = std::make_unique<baselines::FramePp>(fp, plan->cost_model,
                                                     plan->targets, rng.get());
      ZEUS_RETURN_IF_ERROR(pp->Train(TrainVideos(dataset)));
      return std::unique_ptr<core::Localizer>(std::make_unique<OwningLocalizer>(
          std::move(rng), std::move(pp)));
    }
    case ExecutorKind::kSegmentPp: {
      if (dataset == nullptr) {
        return common::Status::InvalidArgument(
            "segment_pp needs the dataset (its filter trains on the train "
            "split)");
      }
      auto rng = std::make_unique<common::Rng>(opts.baseline_seed);
      auto pp = std::make_unique<baselines::SegmentPp>(
          baselines::SegmentPp::Options{}, plan->cost_model,
          plan->space.config(plan->space.SlowestId()), plan->apfg.get(),
          plan->targets, rng.get());
      ZEUS_RETURN_IF_ERROR(pp->Train(TrainVideos(dataset)));
      return std::unique_ptr<core::Localizer>(std::make_unique<OwningLocalizer>(
          std::move(rng), std::move(pp)));
    }
  }
  return common::Status::Internal("unhandled executor kind");
}

}  // namespace zeus::engine
