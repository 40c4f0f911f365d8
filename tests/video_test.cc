// Unit tests for zeus::video — labels/instances, trajectories, renderer,
// dataset profiles vs Table 3 targets, decoder sampling/resize invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "video/action.h"
#include "video/dataset.h"
#include "video/decoder.h"
#include "video/renderer.h"
#include "video/video.h"

namespace zeus::video {
namespace {

TEST(VideoTest, LabelsDefaultToNone) {
  Video v(10, 4, 4);
  for (int f = 0; f < 10; ++f) EXPECT_EQ(v.Label(f), ActionClass::kNone);
}

TEST(VideoTest, InstanceExtraction) {
  Video v(10, 2, 2);
  for (int f = 2; f < 5; ++f) v.SetLabel(f, ActionClass::kCrossRight);
  for (int f = 7; f < 9; ++f) v.SetLabel(f, ActionClass::kLeftTurn);
  auto inst = ExtractInstances(v);
  ASSERT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst[0].start, 2);
  EXPECT_EQ(inst[0].end, 5);
  EXPECT_EQ(inst[0].cls, ActionClass::kCrossRight);
  EXPECT_EQ(inst[1].length(), 2);
}

TEST(VideoTest, AdjacentDifferentClassesSplit) {
  Video v(6, 2, 2);
  v.SetLabel(1, ActionClass::kCrossRight);
  v.SetLabel(2, ActionClass::kCrossLeft);
  auto inst = ExtractInstances(v);
  ASSERT_EQ(inst.size(), 2u);
}

TEST(ActionClassTest, ParseRoundTrip) {
  for (ActionClass cls :
       {ActionClass::kCrossRight, ActionClass::kCrossLeft,
        ActionClass::kLeftTurn, ActionClass::kPoleVault,
        ActionClass::kCleanAndJerk, ActionClass::kIroningClothes,
        ActionClass::kTennisServe}) {
    EXPECT_EQ(ParseActionClass(ActionClassName(cls)), cls);
  }
  EXPECT_EQ(ParseActionClass("cross-right"), ActionClass::kCrossRight);
  EXPECT_EQ(ParseActionClass("left_turn"), ActionClass::kLeftTurn);
  EXPECT_EQ(ParseActionClass("garbage"), ActionClass::kNone);
}

TEST(TrajectoryTest, CrossRightMovesRight) {
  double jitter[4] = {0, 0, 0, 0};
  Point a = TrajectoryPoint(TrajectoryKind::kCrossRight, 0.0, jitter);
  Point b = TrajectoryPoint(TrajectoryKind::kCrossRight, 1.0, jitter);
  EXPECT_LT(a.x, 0.2);
  EXPECT_GT(b.x, 0.8);
}

TEST(TrajectoryTest, CrossLeftMirrorsCrossRight) {
  double jitter[4] = {0, 0, 0, 0};
  for (double t : {0.0, 0.3, 0.7, 1.0}) {
    Point r = TrajectoryPoint(TrajectoryKind::kCrossRight, t, jitter);
    Point l = TrajectoryPoint(TrajectoryKind::kCrossLeft, t, jitter);
    EXPECT_NEAR(r.x + l.x, 1.0, 1e-9);
  }
}

TEST(TrajectoryTest, AllKindsStayInFrame) {
  common::Rng rng(5);
  for (int kind = 0; kind <= static_cast<int>(TrajectoryKind::kRightTurnSweep);
       ++kind) {
    double jitter[4];
    SampleJitter(&rng, jitter);
    for (double t = 0.0; t <= 1.0; t += 0.05) {
      Point p = TrajectoryPoint(static_cast<TrajectoryKind>(kind), t, jitter);
      EXPECT_GE(p.x, -0.1) << "kind " << kind;
      EXPECT_LE(p.x, 1.1) << "kind " << kind;
      EXPECT_GE(p.y, -0.15) << "kind " << kind;
      EXPECT_LE(p.y, 1.1) << "kind " << kind;
    }
  }
}

TEST(RendererTest, LabelsMatchEvents) {
  SceneRenderer renderer(16, 16, SceneStyle{});
  common::Rng rng(1);
  BlobEvent ev;
  ev.start_frame = 5;
  ev.end_frame = 15;
  ev.cls = ActionClass::kCrossRight;
  ev.traj = TrajectoryKind::kCrossRight;
  Video v = renderer.Render(30, {ev}, &rng);
  EXPECT_EQ(v.Label(4), ActionClass::kNone);
  EXPECT_EQ(v.Label(5), ActionClass::kCrossRight);
  EXPECT_EQ(v.Label(14), ActionClass::kCrossRight);
  EXPECT_EQ(v.Label(15), ActionClass::kNone);
}

TEST(RendererTest, BlobBrightensFrame) {
  SceneStyle style;
  style.noise_sigma = 0.0;
  SceneRenderer renderer(20, 20, style);
  common::Rng rng_a(2), rng_b(2);
  Video empty = renderer.Render(1, {}, &rng_a);
  BlobEvent ev;
  ev.start_frame = 0;
  ev.end_frame = 1;
  ev.traj = TrajectoryKind::kStaticBlob;
  Video with = renderer.Render(1, {ev}, &rng_b);
  double sum_empty = 0, sum_with = 0;
  for (int i = 0; i < 400; ++i) {
    sum_empty += empty.FrameData(0)[i];
    sum_with += with.FrameData(0)[i];
  }
  EXPECT_GT(sum_with, sum_empty + 0.5);
}

TEST(RendererTest, PixelsInUnitRange) {
  SceneRenderer renderer(16, 16, SceneStyle{});
  common::Rng rng(3);
  BlobEvent ev;
  ev.start_frame = 0;
  ev.end_frame = 10;
  ev.traj = TrajectoryKind::kLoiter;
  Video v = renderer.Render(10, {ev}, &rng);
  for (int f = 0; f < 10; ++f) {
    for (int i = 0; i < 256; ++i) {
      EXPECT_GE(v.FrameData(f)[i], 0.0f);
      EXPECT_LE(v.FrameData(f)[i], 1.0f);
    }
  }
}

TEST(DecoderTest, ShapeMatchesSpec) {
  Video v(100, 30, 30);
  DecodeSpec spec{15, 8, 2};
  tensor::Tensor t = SegmentDecoder::Decode(v, 0, spec);
  EXPECT_EQ(t.shape(), (std::vector<int>{1, 8, 15, 15}));
  EXPECT_EQ(SegmentDecoder::CoveredFrames(spec), 16);
}

TEST(DecoderTest, SamplingPicksEveryNthFrame) {
  // Frame f has constant pixel value f / 100.
  Video v(40, 4, 4);
  for (int f = 0; f < 40; ++f) {
    for (int i = 0; i < 16; ++i) v.FrameData(f)[i] = f / 100.0f;
  }
  DecodeSpec spec{4, 3, 5};
  tensor::Tensor t = SegmentDecoder::Decode(v, 10, spec);
  // Standardization is affine, so frames 10/15/20 (values .10/.15/.20) must
  // come out strictly increasing and evenly spaced, with zero overall mean.
  EXPECT_LT(t[0], t[16]);
  EXPECT_LT(t[16], t[32]);
  EXPECT_NEAR(t[16] - t[0], t[32] - t[16], 1e-4);
  double mean = 0.0;
  for (size_t i = 0; i < t.size(); ++i) mean += t[i];
  EXPECT_NEAR(mean / static_cast<double>(t.size()), 0.0, 1e-5);
}

TEST(DecoderTest, OutputIsStandardized) {
  common::Rng rng(3);
  Video v(20, 8, 8);
  for (int f = 0; f < 20; ++f) {
    for (int i = 0; i < 64; ++i) {
      v.FrameData(f)[i] = 0.3f + 0.2f * rng.NextFloat();
    }
  }
  tensor::Tensor t = SegmentDecoder::Decode(v, 0, DecodeSpec{8, 8, 2});
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double n = static_cast<double>(t.size());
  EXPECT_NEAR(sum / n, 0.0, 1e-4);
  // Variance close to 1 (the epsilon in the scale shaves off a little).
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(DecoderTest, StandardizationIsBrightnessInvariant) {
  // Two videos identical up to a global brightness offset and gain must
  // decode to (nearly) identical tensors.
  common::Rng rng(9);
  Video a(12, 6, 6), b(12, 6, 6);
  for (int f = 0; f < 12; ++f) {
    for (int i = 0; i < 36; ++i) {
      float x = 0.2f + 0.3f * rng.NextFloat();
      a.FrameData(f)[i] = x;
      b.FrameData(f)[i] = 0.25f + 0.5f * x;  // brighter, lower contrast
    }
  }
  DecodeSpec spec{6, 4, 3};
  tensor::Tensor ta = SegmentDecoder::Decode(a, 0, spec);
  tensor::Tensor tb = SegmentDecoder::Decode(b, 0, spec);
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_NEAR(ta[i], tb[i], 5e-2) << "pixel " << i;
  }
}

TEST(DecoderTest, ClampsPastVideoEnd) {
  Video v(10, 4, 4);
  for (int i = 0; i < 16; ++i) v.FrameData(9)[i] = 0.9f;
  DecodeSpec spec{4, 4, 4};
  tensor::Tensor t = SegmentDecoder::Decode(v, 8, spec);  // frames 8,12,16,20
  // Frames past the end clamp to frame 9's content.
  EXPECT_FLOAT_EQ(t[16], t[32]);
  EXPECT_FLOAT_EQ(t[32], t[48]);
}

TEST(DecoderTest, AreaResizeAveragesExactlyForIntegerRatio) {
  Video v(1, 4, 4);
  float* px = v.FrameData(0);
  for (int i = 0; i < 16; ++i) px[i] = static_cast<float>(i) / 16.0f;
  DecodeSpec spec{2, 1, 1};
  tensor::Tensor t = SegmentDecoder::Decode(v, 0, spec);
  // Expected 2x2 block means of the 4x4 source (before standardization).
  float blocks[4] = {(0 + 1 + 4 + 5) / 4.0f / 16.0f,
                     (2 + 3 + 6 + 7) / 4.0f / 16.0f,
                     (8 + 9 + 12 + 13) / 4.0f / 16.0f,
                     (10 + 11 + 14 + 15) / 4.0f / 16.0f};
  // Standardization is affine, so ratios of differences are preserved.
  float r_expected = (blocks[2] - blocks[0]) / (blocks[1] - blocks[0]);
  float r_actual = (t[2] - t[0]) / (t[1] - t[0]);
  EXPECT_NEAR(r_actual, r_expected, 1e-3);
}

TEST(DatasetTest, DeterministicGeneration) {
  auto profile = DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 3;
  profile.frames_per_video = 60;
  auto a = SyntheticDataset::Generate(profile, 77);
  auto b = SyntheticDataset::Generate(profile, 77);
  ASSERT_EQ(a.num_videos(), b.num_videos());
  for (size_t i = 0; i < a.num_videos(); ++i) {
    EXPECT_EQ(a.video(i).labels(), b.video(i).labels());
    EXPECT_EQ(a.video(i).FrameData(0)[0], b.video(i).FrameData(0)[0]);
  }
}

TEST(DatasetTest, SplitsDisjointAndComplete) {
  auto profile = DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 10;
  profile.frames_per_video = 40;
  auto ds = SyntheticDataset::Generate(profile, 5);
  std::vector<int> all;
  for (auto& split : {ds.train_indices(), ds.val_indices(), ds.test_indices()})
    all.insert(all.end(), split.begin(), split.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(DatasetTest, ActionFractionNearTarget) {
  auto profile = DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 16;
  profile.frames_per_video = 400;
  auto ds = SyntheticDataset::Generate(profile, 9);
  auto stats = ds.ComputeStatistics();
  // 7% target (Table 3); generation is stochastic so allow a wide band.
  EXPECT_GT(stats.percent_action_frames, 3.0);
  EXPECT_LT(stats.percent_action_frames, 14.0);
  EXPECT_GE(stats.min_action_length, profile.min_action_length);
  EXPECT_LE(stats.max_action_length, profile.max_action_length);
}

TEST(DatasetTest, MergeClassesRelabels) {
  auto profile = DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 4;
  profile.frames_per_video = 300;
  auto ds = SyntheticDataset::Generate(profile, 11);
  auto merged = ds.MergeClasses(
      {ActionClass::kCrossRight, ActionClass::kCrossLeft},
      ActionClass::kCrossRight);
  for (size_t vi = 0; vi < ds.num_videos(); ++vi) {
    for (int f = 0; f < ds.video(vi).num_frames(); ++f) {
      ActionClass orig = ds.video(vi).Label(f);
      ActionClass now = merged.video(vi).Label(f);
      if (orig == ActionClass::kCrossRight || orig == ActionClass::kCrossLeft) {
        EXPECT_EQ(now, ActionClass::kCrossRight);
      } else {
        EXPECT_EQ(now, ActionClass::kNone);
      }
    }
  }
}

// Table 3 family sweep: every profile generates with its declared classes
// and a plausible action density.
class FamilySweep : public ::testing::TestWithParam<DatasetFamily> {};

TEST_P(FamilySweep, GeneratesPlausibleData) {
  auto profile = DatasetProfile::ForFamily(GetParam());
  profile.num_videos = 4;
  auto ds = SyntheticDataset::Generate(profile, 13);
  auto stats = ds.ComputeStatistics();
  EXPECT_GT(stats.num_instances, 0);
  EXPECT_GT(stats.percent_action_frames, 0.0);
  EXPECT_EQ(stats.num_classes, static_cast<int>(profile.classes.size()));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweep,
                         ::testing::Values(DatasetFamily::kBdd100kLike,
                                           DatasetFamily::kThumos14Like,
                                           DatasetFamily::kActivityNetLike,
                                           DatasetFamily::kCityscapesLike,
                                           DatasetFamily::kKittiLike));

// ---------------------------------------------------------------------------
// Live-stream growth

DatasetProfile SmallStreamProfile() {
  auto profile = DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 6;
  profile.frames_per_video = 80;
  profile.native_resolution = 16;
  return profile;
}

bool SamePixels(const Video& a, const Video& b) {
  if (a.num_frames() != b.num_frames() || a.height() != b.height() ||
      a.width() != b.width()) {
    return false;
  }
  for (int f = 0; f < a.num_frames(); ++f) {
    const float* pa = a.FrameData(f);
    const float* pb = b.FrameData(f);
    for (int i = 0; i < a.height() * a.width(); ++i) {
      if (pa[i] != pb[i]) return false;
    }
  }
  return a.labels() == b.labels();
}

TEST(VideoTest, AppendExtendsFramesAndLabels) {
  Video v(4, 3, 3);
  v.SetLabel(1, ActionClass::kCrossRight);
  Video tail(2, 3, 3);
  tail.SetLabel(0, ActionClass::kLeftTurn);
  tail.FrameData(1)[5] = 0.75f;
  v.Append(tail);
  ASSERT_EQ(v.num_frames(), 6);
  EXPECT_EQ(v.Label(1), ActionClass::kCrossRight);
  EXPECT_EQ(v.Label(4), ActionClass::kLeftTurn);
  EXPECT_EQ(v.FrameData(5)[5], 0.75f);
}

TEST(VideoTest, SliceCopiesSubRange) {
  Video v(5, 2, 2);
  for (int f = 0; f < 5; ++f) v.FrameData(f)[0] = static_cast<float>(f);
  v.SetLabel(3, ActionClass::kPoleVault);
  Video s = v.Slice(2, 2);
  ASSERT_EQ(s.num_frames(), 2);
  EXPECT_EQ(s.FrameData(0)[0], 2.0f);
  EXPECT_EQ(s.FrameData(1)[0], 3.0f);
  EXPECT_EQ(s.Label(1), ActionClass::kPoleVault);
}

TEST(StreamGrowthTest, GrowToIsPrefixStable) {
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 21);
  const SyntheticDataset before = ds;
  ASSERT_TRUE(ds.GrowTo(200, 1).ok());
  // Every pre-existing frame is byte-identical; only test videos grew.
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    const Video& now = ds.video(i);
    const Video& was = before.video(i);
    EXPECT_TRUE(SamePixels(was, now.Slice(0, was.num_frames())))
        << "video " << i;
  }
  for (int idx : ds.test_indices()) {
    EXPECT_EQ(ds.video(static_cast<size_t>(idx)).num_frames(), 200);
  }
  for (int idx : ds.train_indices()) {
    EXPECT_EQ(ds.video(static_cast<size_t>(idx)).num_frames(), 80);
  }
  EXPECT_EQ(ds.stream_length(), 200);
  EXPECT_EQ(ds.frame_epoch(), 1u);
}

TEST(StreamGrowthTest, BatchingDoesNotChangeBytes) {
  // The core stream invariant: growing 0 -> 150 in one shot, in uneven
  // dribbles, or on a separate copy (a repaired replica) converges to
  // byte-identical videos.
  auto profile = SmallStreamProfile();
  auto ds = SyntheticDataset::Generate(profile, 33);
  SyntheticDataset one_shot = ds;    // copies preserve ids + stream state
  SyntheticDataset dribble = ds;
  ASSERT_TRUE(one_shot.GrowTo(230, 5).ok());
  for (long target : {83, 90, 144, 145, 208, 230}) {
    ASSERT_TRUE(dribble.GrowTo(target, 1).ok());
  }
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    EXPECT_TRUE(SamePixels(one_shot.video(i), dribble.video(i)))
        << "video " << i;
  }
}

TEST(StreamGrowthTest, GrowToIsIdempotentAndEpochMonotone) {
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 9);
  ASSERT_TRUE(ds.GrowTo(160, 3).ok());
  const SyntheticDataset snapshot = ds;
  // Re-applying a smaller target is a pure epoch no-op (epochs are max'd).
  ASSERT_TRUE(ds.GrowTo(100, 2).ok());
  EXPECT_EQ(ds.frame_epoch(), 3u);
  EXPECT_EQ(ds.stream_length(), 160);
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    EXPECT_TRUE(SamePixels(snapshot.video(i), ds.video(i)));
  }
}

TEST(StreamGrowthTest, GrownTailHasActionContent) {
  // Appended blocks keep the family's event statistics: a long enough
  // tail contains labeled action frames, not dead air.
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 17);
  ASSERT_TRUE(ds.GrowTo(80 + 10 * SyntheticDataset::kStreamBlockFrames, 1).ok());
  long action_frames = 0;
  for (int idx : ds.test_indices()) {
    const Video& v = ds.video(static_cast<size_t>(idx));
    for (int f = 80; f < v.num_frames(); ++f) {
      if (v.Label(f) != ActionClass::kNone) ++action_frames;
    }
  }
  EXPECT_GT(action_frames, 0);
}

TEST(StreamGrowthTest, FromPartsIsNotStreamableUntilRestored) {
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 4);
  std::vector<Video> videos(ds.videos().begin(), ds.videos().end());
  auto parts = SyntheticDataset::FromParts(
      ds.profile(), std::move(videos), ds.train_indices(), ds.val_indices(),
      ds.test_indices());
  EXPECT_FALSE(parts.streamable());
  EXPECT_FALSE(parts.GrowTo(100, 1).ok());
  parts.RestoreStreamState(4, 80, 0);
  ASSERT_TRUE(parts.streamable());
  ASSERT_TRUE(parts.GrowTo(100, 1).ok());
  // Restored growth matches growth on the original object.
  ASSERT_TRUE(ds.GrowTo(100, 1).ok());
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    EXPECT_TRUE(SamePixels(ds.video(i), parts.video(i)));
  }
}

// ---------------------------------------------------------------------------
// Snapshot sharing: frame blocks are immutable and reference-counted.

TEST(SnapshotSharingTest, GrowToKeepsEarlierFramesInPlace) {
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 23);
  ASSERT_TRUE(ds.GrowTo(80 + SyntheticDataset::kStreamBlockFrames, 1).ok());
  const SyntheticDataset before = ds;
  ASSERT_TRUE(ds.GrowTo(80 + 3 * SyntheticDataset::kStreamBlockFrames + 5, 2)
                  .ok());
  for (int idx : ds.test_indices()) {
    const Video& was = before.video(static_cast<size_t>(idx));
    const Video& now = ds.video(static_cast<size_t>(idx));
    ASSERT_GT(now.num_frames(), was.num_frames());
    // Every frame below the old length, in the generated base and in the
    // earlier appended block alike, is the same memory in both snapshots.
    for (int f = 0; f < was.num_frames(); ++f) {
      ASSERT_EQ(was.FrameData(f), now.FrameData(f))
          << "video " << idx << " frame " << f;
    }
  }
}

TEST(SnapshotSharingTest, TrainAndValidationVideosShareStorage) {
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 29);
  const SyntheticDataset before = ds;
  ASSERT_TRUE(ds.GrowTo(200, 1).ok());
  std::vector<int> frozen = ds.train_indices();
  frozen.insert(frozen.end(), ds.val_indices().begin(),
                ds.val_indices().end());
  ASSERT_FALSE(frozen.empty());
  for (int idx : frozen) {
    const Video& was = before.video(static_cast<size_t>(idx));
    const Video& now = ds.video(static_cast<size_t>(idx));
    ASSERT_EQ(was.num_frames(), now.num_frames());
    for (int f = 0; f < now.num_frames(); ++f) {
      ASSERT_EQ(was.FrameData(f), now.FrameData(f))
          << "video " << idx << " frame " << f;
    }
  }
}

TEST(SnapshotSharingTest, WriteThroughCopyUnsharesOnlyItsBlock) {
  Video original(4, 3, 3);
  Video tail(2, 3, 3);
  tail.FrameData(1)[4] = 0.5f;
  original.Append(tail);  // two blocks: frames [0, 4) and [4, 6)
  const Video& ro = original;
  Video copy = original;
  const Video& rc = copy;
  ASSERT_EQ(rc.FrameData(1), ro.FrameData(1));
  ASSERT_EQ(rc.FrameData(5), ro.FrameData(5));

  copy.FrameData(5)[4] = 0.25f;
  EXPECT_EQ(ro.FrameData(5)[4], 0.5f);
  EXPECT_EQ(rc.FrameData(5)[4], 0.25f);
  EXPECT_NE(rc.FrameData(5), ro.FrameData(5));
  // The untouched first block is still shared.
  EXPECT_EQ(rc.FrameData(1), ro.FrameData(1));

  copy.FrameData(0)[0] = 1.0f;
  EXPECT_EQ(ro.FrameData(0)[0], 0.0f);
  EXPECT_EQ(rc.FrameData(0)[0], 1.0f);
  // A block no other Video shares is written in place.
  const float* own = rc.FrameData(0);
  copy.FrameData(0)[1] = 1.0f;
  EXPECT_EQ(rc.FrameData(0), own);
}

// FNV-1a over every pixel and label of every video, in video/frame order.
uint64_t HashDataset(const SyntheticDataset& ds) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const Video& v : ds.videos()) {
    const size_t frame_bytes =
        static_cast<size_t>(v.height()) * v.width() * sizeof(float);
    for (int f = 0; f < v.num_frames(); ++f) {
      mix(v.FrameData(f), frame_bytes);
      const int32_t label = static_cast<int32_t>(v.Label(f));
      mix(&label, sizeof(label));
    }
  }
  return h;
}

TEST(StreamGrowthTest, GeneratedBytesMatchGoldenHash) {
  // Pins the exact rendered bytes of a generated dataset plus growth by
  // whole and partial blocks. Renderer or storage changes must keep the
  // pixels bit-identical, or every recorded answer and benchmark figure
  // computed from them silently shifts.
  auto ds = SyntheticDataset::Generate(SmallStreamProfile(), 57);
  ASSERT_TRUE(ds.GrowTo(80 + 2 * SyntheticDataset::kStreamBlockFrames, 1).ok());
  ASSERT_TRUE(ds.GrowTo(80 + 2 * SyntheticDataset::kStreamBlockFrames + 21, 2)
                  .ok());
  EXPECT_EQ(HashDataset(ds), 0x700b6eb57f2ad272ull);
}

}  // namespace
}  // namespace zeus::video
