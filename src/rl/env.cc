#include "rl/env.h"

#include <algorithm>

#include "apfg/segment_sampler.h"

namespace zeus::rl {

VideoEnv::VideoEnv(std::vector<const video::Video*> videos,
                   const core::ConfigurationSpace* space,
                   apfg::FeatureCache* cache,
                   std::vector<video::ActionClass> targets,
                   const Options& opts)
    : videos_(std::move(videos)),
      space_(space),
      cache_(cache),
      targets_(std::move(targets)),
      opts_(opts) {
  ZEUS_CHECK(!videos_.empty());
  ZEUS_CHECK(space_->size() > 0);
  for (const video::Video* v : videos_) total_frames_ += v->num_frames();
  order_.resize(videos_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  initial_config_ = space_->SlowestId();
}

int VideoEnv::state_dim() const {
  int dim = opts_.feature_dim;
  if (opts_.append_action_prob) dim += 1;
  if (opts_.append_config_onehot) dim += num_actions();
  if (opts_.append_position) dim += 1;
  return dim;
}

void VideoEnv::Reset(common::Rng* rng) {
  rng->Shuffle(&order_);
  ResetCommon(nullptr);
}

void VideoEnv::ResetSequential() {
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  ResetCommon(nullptr);
}

void VideoEnv::ResetSequential(const apfg::Apfg::Output& first) {
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  ResetCommon(&first);
}

void VideoEnv::ResetCommon(const apfg::Apfg::Output* first) {
  order_pos_ = 0;
  position_ = 0;
  done_ = false;
  invocations_.clear();
  masks_.clear();
  masks_.reserve(videos_.size());
  for (const video::Video* v : videos_) {
    masks_.emplace_back(static_cast<size_t>(v->num_frames()), 0);
  }
  if (first == nullptr) {
    ForcedInitialStep();
  } else {
    bool prediction = false;
    ProcessSegment(initial_config_, *first, &prediction);
  }
}

std::shared_ptr<const apfg::Apfg::Output> VideoEnv::Fetch(
    int config_id) const {
  return cache_->Get(next_video(), position_, space_->config(config_id).spec);
}

std::pair<int, int> VideoEnv::ProcessSegment(int config_id,
                                             const apfg::Apfg::Output& out,
                                             bool* prediction) {
  const int vi = order_[order_pos_];
  const video::Video& v = *videos_[static_cast<size_t>(vi)];
  const core::Configuration& c = space_->config(config_id);

  const int start = position_;
  const int end = std::min(v.num_frames(), position_ + c.CoveredFrames());
  invocations_.emplace_back(config_id, end - start);

  if (out.prediction) {
    core::FrameMask& mask = masks_[static_cast<size_t>(vi)];
    for (int f = start; f < end; ++f) mask[static_cast<size_t>(f)] = 1;
  }
  *prediction = out.prediction != 0;

  // Build the state from this invocation's feature.
  state_.clear();
  ZEUS_CHECK(static_cast<int>(out.feature.size()) == opts_.feature_dim);
  state_.insert(state_.end(), out.feature.data(),
                out.feature.data() + out.feature.size());
  if (opts_.append_action_prob) state_.push_back(out.action_prob);
  if (opts_.append_config_onehot) {
    for (int a = 0; a < num_actions(); ++a) {
      state_.push_back(a == config_id ? 1.0f : 0.0f);
    }
  }
  position_ = end;
  if (opts_.append_position) {
    state_.push_back(static_cast<float>(position_) / v.num_frames());
  }
  return {start, end};
}

void VideoEnv::ForcedInitialStep() {
  bool prediction = false;
  ProcessSegment(initial_config_, *Fetch(initial_config_), &prediction);
}

VideoEnv::StepResult VideoEnv::Step(int config_id) {
  ZEUS_CHECK(!done_);
  return Step(config_id, *Fetch(config_id));
}

VideoEnv::StepResult VideoEnv::Step(int config_id,
                                    const apfg::Apfg::Output& out) {
  StepResult res;
  ZEUS_CHECK(!done_);
  const int vi = order_[order_pos_];
  const video::Video& v = *videos_[static_cast<size_t>(vi)];

  bool prediction = false;
  auto [start, end] = ProcessSegment(config_id, out, &prediction);
  res.video_index = vi;
  res.window_start = start;
  res.window_end = end;
  res.prediction = prediction;
  res.window_has_action =
      apfg::SegmentLabel(v, start, end - start, targets_,
                         /*iou_threshold=*/0.0) != 0;

  if (position_ >= v.num_frames()) {
    res.crossed_video = true;
    ++order_pos_;
    position_ = 0;
    if (order_pos_ >= order_.size()) {
      done_ = true;
      res.done = true;
      return res;
    }
    // Forced most-accurate first segment of the next video (§3).
    ForcedInitialStep();
    // A short video could be fully covered by the forced step.
    while (position_ >= videos_[static_cast<size_t>(order_[order_pos_])]
                            ->num_frames()) {
      ++order_pos_;
      position_ = 0;
      if (order_pos_ >= order_.size()) {
        done_ = true;
        res.done = true;
        return res;
      }
      ForcedInitialStep();
    }
  }
  return res;
}

}  // namespace zeus::rl
