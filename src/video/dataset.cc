#include "video/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace zeus::video {

const char* DatasetFamilyName(DatasetFamily family) {
  switch (family) {
    case DatasetFamily::kBdd100kLike:
      return "BDD100K-like";
    case DatasetFamily::kThumos14Like:
      return "Thumos14-like";
    case DatasetFamily::kActivityNetLike:
      return "ActivityNet-like";
    case DatasetFamily::kCityscapesLike:
      return "Cityscapes-like";
    case DatasetFamily::kKittiLike:
      return "KITTI-like";
  }
  return "Unknown";
}

DatasetProfile DatasetProfile::ForFamily(DatasetFamily family) {
  DatasetProfile p;
  p.family = family;
  p.name = DatasetFamilyName(family);
  switch (family) {
    case DatasetFamily::kBdd100kLike:
      // Table 3: 2 classes, 7.03% action frames, avg len 115 (58.7 std),
      // (6, 305) min/max — scaled ~2x shorter in time.
      p.num_videos = 64;
      p.frames_per_video = 500;
      p.native_resolution = 30;
      p.classes = {ActionClass::kCrossRight, ActionClass::kCrossLeft,
                   ActionClass::kLeftTurn};
      p.action_fraction = 0.07;
      p.mean_action_length = 48.0;
      p.stddev_action_length = 18.0;
      p.min_action_length = 16;
      p.max_action_length = 110;
      p.distractor_rate = 0.8;
      p.style = SceneStyle{};
      p.style.blob_amplitude = 0.75;
      p.style.blob_sigma = 0.075;
      p.style.noise_sigma = 0.035;
      break;
    case DatasetFamily::kThumos14Like:
      // Table 3: 40.27% action frames, avg 211 (186 std), (18, 3543).
      p.num_videos = 28;
      p.frames_per_video = 500;
      p.native_resolution = 24;
      p.classes = {ActionClass::kPoleVault, ActionClass::kCleanAndJerk};
      p.action_fraction = 0.40;
      p.mean_action_length = 80.0;
      p.stddev_action_length = 55.0;
      p.min_action_length = 16;
      p.max_action_length = 280;
      p.distractor_rate = 0.8;
      p.style.base_brightness = 0.30;
      p.style.texture_amplitude = 0.12;
      p.style.noise_sigma = 0.045;
      p.style.drift_speed = 0.05;
      p.style.blob_sigma = 0.085;
      break;
    case DatasetFamily::kActivityNetLike:
      // Table 3: 56.37% action frames, avg 909 (1239 std), (20, 6931):
      // long, dense actions.
      p.num_videos = 28;
      p.frames_per_video = 500;
      p.native_resolution = 24;
      p.classes = {ActionClass::kIroningClothes, ActionClass::kTennisServe};
      p.action_fraction = 0.56;
      p.mean_action_length = 170.0;
      p.stddev_action_length = 120.0;
      p.min_action_length = 20;
      p.max_action_length = 420;
      p.distractor_rate = 0.4;
      p.style.base_brightness = 0.40;
      p.style.texture_amplitude = 0.08;
      p.style.noise_sigma = 0.05;
      p.style.drift_speed = 0.02;
      p.style.blob_sigma = 0.085;
      break;
    case DatasetFamily::kCityscapesLike:
      // European city streets: brighter scenes, more texture, slightly
      // different agent appearance. Same classes as BDD.
      p = ForFamily(DatasetFamily::kBdd100kLike);
      p.family = DatasetFamily::kCityscapesLike;
      p.name = DatasetFamilyName(DatasetFamily::kCityscapesLike);
      p.num_videos = 24;
      p.style.base_brightness = 0.45;
      p.style.texture_amplitude = 0.14;
      p.style.noise_sigma = 0.06;
      p.style.blob_amplitude = 0.55;
      p.style.blob_sigma = 0.040;
      p.style.speed_scale = 0.9;
      break;
    case DatasetFamily::kKittiLike:
      // Residential streets: strongest shift — dimmer, noisier, slower
      // agents with smaller apparent size.
      p = ForFamily(DatasetFamily::kBdd100kLike);
      p.family = DatasetFamily::kKittiLike;
      p.name = DatasetFamilyName(DatasetFamily::kKittiLike);
      p.num_videos = 24;
      // KITTI has no CrossRight instances (§6.6 evaluates only LeftTurn).
      p.classes = {ActionClass::kCrossLeft, ActionClass::kLeftTurn};
      p.style.base_brightness = 0.28;
      p.style.texture_amplitude = 0.16;
      p.style.noise_sigma = 0.08;
      p.style.blob_amplitude = 0.50;
      p.style.blob_sigma = 0.038;
      p.style.speed_scale = 1.25;
      break;
  }
  return p;
}

namespace {

// Samples one action length from the profile's truncated Gaussian.
int SampleActionLength(const DatasetProfile& p, common::Rng* rng) {
  double len =
      rng->NextGaussian(p.mean_action_length, p.stddev_action_length) *
      p.style.speed_scale;
  len = std::clamp(len, static_cast<double>(p.min_action_length),
                   static_cast<double>(p.max_action_length));
  return static_cast<int>(len);
}

// Builds the event script for `n` frames of one video: action instances
// are placed left-to-right with exponential gaps tuned to hit the target
// action fraction; distractors are sprinkled independently. Stream blocks
// call this with n = kStreamBlockFrames so a growing video keeps the same
// event statistics as its stored prefix.
std::vector<BlobEvent> ScriptVideo(const DatasetProfile& p, int n,
                                   common::Rng* rng) {
  std::vector<BlobEvent> events;

  // Expected gap so that mean_len / (mean_len + gap) == action_fraction.
  const double mean_len = p.mean_action_length * p.style.speed_scale;
  const double mean_gap =
      mean_len * (1.0 - p.action_fraction) / std::max(1e-6, p.action_fraction);

  int cursor = static_cast<int>(-mean_gap * std::log(1.0 - rng->NextDouble()) *
                                0.5);  // first gap, shorter on average
  while (cursor < n) {
    int len = SampleActionLength(p, rng);
    if (cursor + len > n) break;
    BlobEvent ev;
    ev.start_frame = cursor;
    ev.end_frame = cursor + len;
    ev.cls = p.classes[static_cast<size_t>(rng->NextInt(
        0, static_cast<int>(p.classes.size()) - 1))];
    ev.traj = TrajectoryForClass(ev.cls);
    ev.amplitude = p.style.blob_amplitude;
    ev.sigma = p.style.blob_sigma;
    SampleJitter(rng, ev.jitter);
    events.push_back(ev);
    double gap = -mean_gap * std::log(std::max(1e-12, 1.0 - rng->NextDouble()));
    cursor += len + std::max(4, static_cast<int>(gap));
  }

  // Distractors: Poisson-ish arrivals at `distractor_rate` per 100 frames.
  // Half are ordinary non-action agents (textured, wrong trajectory); half
  // are "ghosts" — smooth blobs (shadows, light sweeps) that FOLLOW an
  // action trajectory. Ghosts are separable only by fine spatial texture,
  // which is exactly what low decode resolutions destroy — they are the
  // reason the Resolution knob costs accuracy.
  const auto& kinds = AllDistractorKinds();
  int expected = static_cast<int>(p.distractor_rate * n / 100.0);
  for (int i = 0; i < expected; ++i) {
    BlobEvent ev;
    int len = SampleActionLength(p, rng);
    int start = rng->NextInt(0, std::max(0, n - len - 1));
    ev.start_frame = start;
    ev.end_frame = start + len;
    ev.cls = ActionClass::kNone;
    ev.sigma = p.style.blob_sigma;
    if (rng->NextBernoulli(0.10)) {
      // Ghost: action-like motion, smooth appearance. Amplitude matched to
      // the *area-averaged* brightness of a textured agent so the two are
      // indistinguishable once the texture falls below the pixel pitch.
      ActionClass mimic = p.classes[static_cast<size_t>(rng->NextInt(
          0, static_cast<int>(p.classes.size()) - 1))];
      ev.traj = TrajectoryForClass(mimic);
      ev.shape = BlobShape::kSmooth;
      ev.amplitude = p.style.blob_amplitude * 0.60;
    } else {
      ev.traj = kinds[static_cast<size_t>(
          rng->NextInt(0, static_cast<int>(kinds.size()) - 1))];
      ev.shape = BlobShape::kTextured;
      ev.amplitude = p.style.blob_amplitude;
    }
    SampleJitter(rng, ev.jitter);
    events.push_back(ev);
  }
  return events;
}

// Renders one deterministic stream block: kStreamBlockFrames frames of
// video `video_index`'s tail, block `block_index` past the generated base.
// The rng is seeded purely from (stream seed, video index, block index),
// so re-rendering the same block anywhere — another process, a repaired
// replica, a retry — produces identical bytes.
Video RenderStreamBlock(const DatasetProfile& p, uint64_t stream_seed,
                        int video_index, long block_index) {
  uint64_t mix = stream_seed;
  mix ^= 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(video_index) + 1);
  mix ^= 0xBF58476D1CE4E5B9ull * (static_cast<uint64_t>(block_index) + 1);
  common::Rng rng(mix);
  auto events =
      ScriptVideo(p, SyntheticDataset::kStreamBlockFrames, &rng);
  SceneRenderer renderer(p.native_resolution, p.native_resolution, p.style);
  return renderer.Render(SyntheticDataset::kStreamBlockFrames, events, &rng);
}

}  // namespace

namespace {
// Globally unique video ids so feature caches shared across datasets (e.g.
// the domain-adaptation experiments) never collide on cache keys.
int g_next_video_id = 0;
}  // namespace

SyntheticDataset SyntheticDataset::Generate(const DatasetProfile& profile,
                                            uint64_t seed) {
  SyntheticDataset ds;
  ds.profile_ = profile;
  common::Rng rng(seed);
  SceneRenderer renderer(profile.native_resolution, profile.native_resolution,
                         profile.style);
  ds.videos_.reserve(static_cast<size_t>(profile.num_videos));
  for (int i = 0; i < profile.num_videos; ++i) {
    common::Rng video_rng = rng.Fork();
    auto events = ScriptVideo(profile, profile.frames_per_video, &video_rng);
    Video v = renderer.Render(profile.frames_per_video, events, &video_rng);
    v.set_id(g_next_video_id++);
    ds.videos_.push_back(std::move(v));
  }
  // Deterministic split: shuffle indices with a fixed fork of the seed.
  std::vector<int> idx(static_cast<size_t>(profile.num_videos));
  for (int i = 0; i < profile.num_videos; ++i) idx[static_cast<size_t>(i)] = i;
  common::Rng split_rng = rng.Fork();
  split_rng.Shuffle(&idx);
  const int n_train = profile.num_videos * 6 / 10;
  const int n_val = profile.num_videos * 2 / 10;
  ds.train_.assign(idx.begin(), idx.begin() + n_train);
  ds.val_.assign(idx.begin() + n_train, idx.begin() + n_train + n_val);
  ds.test_.assign(idx.begin() + n_train + n_val, idx.end());
  // Record the stream identity: growth blocks are seeded from this.
  ds.has_stream_seed_ = true;
  ds.stream_seed_ = seed;
  ds.base_frames_ = profile.frames_per_video;
  return ds;
}

long SyntheticDataset::stream_length() const {
  if (test_.empty()) return base_frames_;
  return videos_[static_cast<size_t>(test_[0])].num_frames();
}

common::Status SyntheticDataset::GrowTo(long target_frames, uint64_t epoch) {
  if (!has_stream_seed_) {
    return common::Status::InvalidArgument(
        "dataset is not streamable (no recorded generation seed)");
  }
  frame_epoch_ = std::max(frame_epoch_, epoch);
  for (int idx : test_) {
    Video& v = videos_[static_cast<size_t>(idx)];
    while (v.num_frames() < target_frames) {
      const long block =
          (v.num_frames() - base_frames_) / kStreamBlockFrames;
      const long block_begin = base_frames_ + block * kStreamBlockFrames;
      Video rendered = RenderStreamBlock(profile_, stream_seed_, idx, block);
      const int from = static_cast<int>(v.num_frames() - block_begin);
      const int want = static_cast<int>(
          std::min<long>(kStreamBlockFrames - from,
                         target_frames - v.num_frames()));
      // A whole block joins the video as rendered (its pixels are shared,
      // not copied); only a partial one is sliced to the wanted frames.
      if (want == kStreamBlockFrames) {
        v.Append(rendered);
      } else {
        v.Append(rendered.Slice(from, want));
      }
    }
  }
  return common::Status::Ok();
}

void SyntheticDataset::RestoreStreamState(uint64_t seed, int base_frames,
                                          uint64_t epoch) {
  has_stream_seed_ = true;
  stream_seed_ = seed;
  base_frames_ = base_frames;
  frame_epoch_ = epoch;
}

SyntheticDataset SyntheticDataset::FromParts(DatasetProfile profile,
                                             std::vector<Video> videos,
                                             std::vector<int> train,
                                             std::vector<int> val,
                                             std::vector<int> test) {
  const int n = static_cast<int>(videos.size());
  for (const std::vector<int>* split : {&train, &val, &test}) {
    for (int i : *split) {
      ZEUS_CHECK(i >= 0 && i < n);
    }
  }
  SyntheticDataset ds;
  ds.profile_ = std::move(profile);
  ds.videos_ = std::move(videos);
  ds.train_ = std::move(train);
  ds.val_ = std::move(val);
  ds.test_ = std::move(test);
  return ds;
}

DatasetStatistics SyntheticDataset::ComputeStatistics() const {
  DatasetStatistics stats;
  stats.num_classes = static_cast<int>(profile_.classes.size());
  common::RunningStats lengths;
  long action_frames = 0;
  for (const Video& v : videos_) {
    stats.total_frames += v.num_frames();
    for (const ActionInstance& inst : ExtractInstances(v)) {
      lengths.Add(inst.length());
      action_frames += inst.length();
    }
  }
  stats.percent_action_frames =
      stats.total_frames
          ? 100.0 * static_cast<double>(action_frames) / stats.total_frames
          : 0.0;
  stats.avg_action_length = lengths.mean();
  stats.stddev_action_length = lengths.stddev();
  stats.min_action_length = static_cast<int>(lengths.min());
  stats.max_action_length = static_cast<int>(lengths.max());
  stats.num_instances = static_cast<int>(lengths.count());
  return stats;
}

SyntheticDataset SyntheticDataset::MergeClasses(
    const std::vector<ActionClass>& classes, ActionClass merged) const {
  SyntheticDataset out = *this;
  for (Video& v : out.videos_) {
    for (int f = 0; f < v.num_frames(); ++f) {
      if (std::find(classes.begin(), classes.end(), v.Label(f)) !=
          classes.end()) {
        v.SetLabel(f, merged);
      } else if (v.Label(f) != ActionClass::kNone) {
        v.SetLabel(f, ActionClass::kNone);
      }
    }
  }
  return out;
}

}  // namespace zeus::video
