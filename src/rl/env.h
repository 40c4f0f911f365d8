#ifndef ZEUS_RL_ENV_H_
#define ZEUS_RL_ENV_H_

#include <memory>
#include <utility>
#include <vector>

#include "apfg/feature_cache.h"
#include "core/configuration.h"
#include "core/metrics.h"
#include "video/video.h"

namespace zeus::rl {

// The RL environment of §4.1 and Fig. 5. The agent traverses a set of
// videos. One Step(config) consumes exactly one APFG invocation: the next
// segment is decoded under `config`, the APFG emits (ProxyFeature,
// prediction), the prediction labels the covered window, and the feature
// becomes the next state — exactly the data flow of the paper's
// illustrative example (Fig. 6). The first segment of every video is
// processed with the slowest (most accurate) configuration, as in §3.
class VideoEnv {
 public:
  struct Options {
    // Width of the APFG ProxyFeature (must match the Apfg behind `cache`).
    int feature_dim = 32;
    // State = ProxyFeature, optionally augmented with the classifier's
    // action probability, a one-hot of the configuration that produced it,
    // and the position in the video. The paper conditions the state on
    // config_curr via U(segment, config); the explicit extras expose that
    // conditioning (all functions of the same invocation's outputs) to the
    // small MLP directly.
    bool append_action_prob = true;
    bool append_config_onehot = true;
    bool append_position = true;
  };

  VideoEnv(std::vector<const video::Video*> videos,
           const core::ConfigurationSpace* space, apfg::FeatureCache* cache,
           std::vector<video::ActionClass> targets, const Options& opts);

  int state_dim() const;
  int num_actions() const { return static_cast<int>(space_->size()); }

  // Starts a new episode over a random permutation of the videos (§5) /
  // the original order (inference). Performs the forced first invocation
  // of video 0 with the slowest configuration.
  void Reset(common::Rng* rng);
  void ResetSequential();

  const std::vector<float>& state() const { return state_; }

  struct StepResult {
    int video_index = 0;   // env-local index of the video stepped in
    int window_start = 0;  // frames covered by this decision
    int window_end = 0;    // exclusive, clamped to the video end
    bool prediction = false;         // APFG output for this segment
    bool window_has_action = false;  // any ground-truth action frame inside
    bool crossed_video = false;      // this step finished a video
    bool done = false;               // episode exhausted
  };

  // Applies configuration `config_id` to the next segment.
  StepResult Step(int config_id);

  // The segment the next invocation processes: the forced first segment
  // after ResetSequential (video 0 from frame 0), then the one Step reads.
  const video::Video& next_video() const {
    ZEUS_CHECK(order_pos_ < order_.size());
    return *videos_[static_cast<size_t>(order_[order_pos_])];
  }
  int next_start() const { return position_; }

  // Forms for a caller that fetched the next segment's APFG output itself
  // (BatchedExecutor, via FeatureCache::GetBatch): `out` must be the
  // cache's output for next_video() from next_start() under the slowest
  // configuration (reset) or `config_id` (step). A step that moves on to a
  // further video still fetches that video's forced segment from the cache.
  void ResetSequential(const apfg::Apfg::Output& first);
  StepResult Step(int config_id, const apfg::Apfg::Output& out);

  bool done() const { return done_; }

  // Prediction masks recorded during the current episode (index-parallel to
  // the constructor's video list).
  const core::FrameMask& mask(int video_index) const {
    return masks_[static_cast<size_t>(video_index)];
  }
  const std::vector<core::FrameMask>& masks() const { return masks_; }
  const video::Video& video(int video_index) const {
    return *videos_[static_cast<size_t>(video_index)];
  }
  size_t num_videos() const { return videos_.size(); }
  const std::vector<video::ActionClass>& targets() const { return targets_; }
  const core::ConfigurationSpace& space() const { return *space_; }
  long total_frames() const { return total_frames_; }

  // Every APFG invocation issued this episode: (config id, frames covered).
  // Includes the forced per-video initial invocations.
  const std::vector<std::pair<int, int>>& invocation_log() const {
    return invocations_;
  }

 private:
  // The cache's output for the next segment under `config_id`.
  std::shared_ptr<const apfg::Apfg::Output> Fetch(int config_id) const;

  // Records `out` — the output for the segment at the current position
  // under `config_id` — as prediction, invocation and the new state;
  // advances the position. Returns the covered window [start, end).
  std::pair<int, int> ProcessSegment(int config_id,
                                     const apfg::Apfg::Output& out,
                                     bool* prediction);

  // Forced slowest-config invocation at the start of the current video.
  void ForcedInitialStep();

  // Shared Reset body: clears episode state and performs the forced first
  // invocation under the already-set `order_`, on `first` when given.
  void ResetCommon(const apfg::Apfg::Output* first);

  std::vector<const video::Video*> videos_;
  const core::ConfigurationSpace* space_;
  apfg::FeatureCache* cache_;
  std::vector<video::ActionClass> targets_;
  Options opts_;

  std::vector<int> order_;  // episode permutation of video indices
  size_t order_pos_ = 0;    // which video in the permutation
  int position_ = 0;        // current frame in the current video
  bool done_ = false;
  std::vector<float> state_;
  std::vector<core::FrameMask> masks_;
  std::vector<std::pair<int, int>> invocations_;
  long total_frames_ = 0;
  int initial_config_ = 0;  // slowest configuration id
};

}  // namespace zeus::rl

#endif  // ZEUS_RL_ENV_H_
