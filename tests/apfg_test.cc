// Unit tests for zeus::apfg — R3dLite shapes/feature taps, segment labeling
// rule, sampler balance, feature cache behaviour, threshold overrides.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "apfg/apfg.h"
#include "apfg/feature_cache.h"
#include "apfg/frame2d.h"
#include "apfg/lite3d.h"
#include "apfg/r3d.h"
#include "apfg/segment_sampler.h"
#include "tensor/tensor_ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "video/dataset.h"

namespace zeus::apfg {
namespace {

video::Video MakeLabeledVideo(int frames, int from, int to,
                              video::ActionClass cls) {
  video::Video v(frames, 12, 12);
  for (int f = from; f < to; ++f) v.SetLabel(f, cls);
  v.set_id(12345);
  return v;
}

TEST(R3dLiteTest, LogitsShape) {
  common::Rng rng(1);
  R3dLite::Options opts;
  R3dLite model(opts, &rng);
  tensor::Tensor x({2, 1, 4, 16, 16});
  tensor::Tensor y = model.Logits(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 2}));
}

TEST(R3dLiteTest, FeatureDimMatchesOptions) {
  common::Rng rng(2);
  R3dLite::Options opts;
  opts.feature_dim = 24;
  R3dLite model(opts, &rng);
  tensor::Tensor x({1, 1, 2, 8, 8});
  EXPECT_EQ(model.Features(x).shape(), (std::vector<int>{1, 24}));
}

TEST(R3dLiteTest, AcceptsVariableGeometry) {
  // Model reuse requires one network to process every configuration shape.
  common::Rng rng(3);
  R3dLite model(R3dLite::Options{}, &rng);
  for (auto [l, r] : std::vector<std::pair<int, int>>{
           {2, 15}, {8, 30}, {16, 20}, {4, 25}}) {
    tensor::Tensor x({1, 1, l, r, r});
    EXPECT_EQ(model.Logits(x, false).dim(1), 2) << l << "x" << r;
  }
}

TEST(R3dLiteTest, FeaturesAndLogitsConsistent) {
  common::Rng rng(4);
  R3dLite model(R3dLite::Options{}, &rng);
  tensor::Tensor x({1, 1, 4, 12, 12});
  tensor::FillGaussian(&x, &rng, 1.0f);
  auto both = model.FeaturesAndLogits(x);
  tensor::Tensor direct = model.Logits(x, false);
  EXPECT_LT(tensor::MaxAbsDiff(both.logits, direct), 1e-5f);
}

TEST(Frame2dTest, LogitsShape) {
  common::Rng rng(5);
  Frame2dNet net(Frame2dNet::Options{}, &rng);
  tensor::Tensor x({3, 1, 16, 16});
  EXPECT_EQ(net.Logits(x, false).shape(), (std::vector<int>{3, 2}));
}

TEST(Lite3dTest, LogitsShape) {
  common::Rng rng(6);
  LiteSegmentNet net(LiteSegmentNet::Options{}, &rng);
  tensor::Tensor x({2, 1, 8, 16, 16});
  EXPECT_EQ(net.Logits(x, false).shape(), (std::vector<int>{2, 2}));
}

TEST(SegmentLabelTest, IouThresholdRule) {
  auto v = MakeLabeledVideo(100, 10, 30, video::ActionClass::kCrossRight);
  std::vector<video::ActionClass> targets{video::ActionClass::kCrossRight};
  // Window [10, 30): fully covered -> positive.
  EXPECT_EQ(SegmentLabel(v, 10, 20, targets), 1);
  // Window [0, 40): covers 20/40 = 0.5, not > 0.5 -> negative.
  EXPECT_EQ(SegmentLabel(v, 0, 40, targets), 0);
  // Window [8, 28): 18/20 = 0.9 -> positive.
  EXPECT_EQ(SegmentLabel(v, 8, 20, targets), 1);
  // Disjoint window -> negative.
  EXPECT_EQ(SegmentLabel(v, 50, 20, targets), 0);
}

TEST(SegmentLabelTest, ZeroThresholdMeansAnyOverlap) {
  auto v = MakeLabeledVideo(100, 10, 30, video::ActionClass::kCrossRight);
  std::vector<video::ActionClass> targets{video::ActionClass::kCrossRight};
  EXPECT_EQ(SegmentLabel(v, 29, 20, targets, 0.0), 1);
  EXPECT_EQ(SegmentLabel(v, 30, 20, targets, 0.0), 0);
}

TEST(SegmentLabelTest, OtherClassDoesNotCount) {
  auto v = MakeLabeledVideo(100, 10, 30, video::ActionClass::kCrossLeft);
  std::vector<video::ActionClass> targets{video::ActionClass::kCrossRight};
  EXPECT_EQ(SegmentLabel(v, 10, 20, targets), 0);
}

TEST(SamplerTest, BalancedSampling) {
  auto v = MakeLabeledVideo(400, 100, 200, video::ActionClass::kCrossRight);
  std::vector<const video::Video*> vids{&v};
  std::vector<video::ActionClass> targets{video::ActionClass::kCrossRight};
  common::Rng rng(7);
  video::DecodeSpec spec{12, 8, 1};
  auto sample = SampleSegments(vids, targets, spec, &rng, 1.0);
  int pos = 0;
  for (auto& ex : sample) pos += ex.label;
  EXPECT_GT(pos, 0);
  // Negatives capped at roughly neg_per_pos * positives (+8 slack).
  EXPECT_LE(static_cast<int>(sample.size()) - pos, pos + 8);
}

TEST(SamplerTest, FrameSamplerLabelsMatchVideo) {
  auto v = MakeLabeledVideo(100, 20, 40, video::ActionClass::kLeftTurn);
  std::vector<const video::Video*> vids{&v};
  std::vector<video::ActionClass> targets{video::ActionClass::kLeftTurn};
  common::Rng rng(8);
  auto sample = SampleFrames(vids, targets, 1, &rng, 1.0);
  for (const auto& ex : sample) {
    bool is_action = ex.start_frame >= 20 && ex.start_frame < 40;
    EXPECT_EQ(ex.label, is_action ? 1 : 0);
  }
}

TEST(ApfgTest, ThresholdOverrides) {
  common::Rng rng(9);
  Apfg apfg(ApfgTrainOptions{}, /*model_reuse=*/true, &rng);
  video::DecodeSpec a{15, 8, 1}, b{30, 8, 1};
  apfg.set_decision_threshold(0.4f);
  EXPECT_FLOAT_EQ(apfg.ThresholdFor(a), 0.4f);
  apfg.SetSpecThreshold(a, 0.7f);
  EXPECT_FLOAT_EQ(apfg.ThresholdFor(a), 0.7f);
  EXPECT_FLOAT_EQ(apfg.ThresholdFor(b), 0.4f);  // other specs keep default
}

TEST(ApfgTest, ProcessEmitsFeatureAndProbability) {
  common::Rng rng(10);
  ApfgTrainOptions opts;
  Apfg apfg(opts, true, &rng);
  auto v = MakeLabeledVideo(60, 0, 0, video::ActionClass::kNone);
  video::DecodeSpec spec{12, 4, 1};
  auto out = apfg.Process(v, 0, spec);
  EXPECT_EQ(static_cast<int>(out.feature.size()), apfg.feature_dim());
  EXPECT_GE(out.action_prob, 0.0f);
  EXPECT_LE(out.action_prob, 1.0f);
}

// A video with random pixels, so every segment decodes to different input.
video::Video MakeNoiseVideo(int frames, uint64_t seed) {
  video::Video v(frames, 12, 12);
  common::Rng rng(seed);
  for (int f = 0; f < frames; ++f) {
    float* px = v.FrameData(f);
    for (int i = 0; i < 12 * 12; ++i) {
      px[i] = static_cast<float>(rng.NextUniform(0.0, 1.0));
    }
  }
  v.set_id(777);
  return v;
}

bool SameBits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<tensor::GemmIsa> SupportedTiers() {
  std::vector<tensor::GemmIsa> tiers;
  for (tensor::GemmIsa t : {tensor::GemmIsa::kScalar, tensor::GemmIsa::kAvx2,
                            tensor::GemmIsa::kAvx512}) {
    if (tensor::ResolveGemmIsa(t) == t) tiers.push_back(t);
  }
  return tiers;
}

// Row i of ProcessBatch must equal Process on the same segment bit for bit
// at every batch size: FeatureCache::Warm extracts a round's misses in one
// batch, and a feature must not depend on which segments shared its batch.
void ExpectProcessBatchRowsMatchProcess(const tensor::ComputeContext& ctx,
                                        bool int8, const std::string& label) {
  constexpr int kMaxBatch = 9;
  common::Rng rng(19);
  Apfg apfg(ApfgTrainOptions{}, /*model_reuse=*/true, &rng);
  apfg.SetComputeContext(&ctx);
  const video::Video v = MakeNoiseVideo(80, 23);
  const video::DecodeSpec spec{12, 4, 2};
  if (int8) {
    apfg.EnableInt8Inference();
    apfg.Process(v, 0, spec);  // settles the lazy int8 validation
  }
  std::vector<Apfg::Output> single;
  std::vector<tensor::Tensor> segments;
  for (int i = 0; i < kMaxBatch; ++i) {
    single.push_back(apfg.Process(v, 8 * i, spec));
    segments.push_back(video::SegmentDecoder::Decode(v, 8 * i, spec));
  }
  for (int b = 1; b <= kMaxBatch; ++b) {
    std::vector<tensor::Tensor> parts(segments.begin(), segments.begin() + b);
    std::vector<Apfg::Output> rows =
        apfg.ProcessBatch(tensor::Stack(parts), spec);
    ASSERT_EQ(static_cast<int>(rows.size()), b);
    for (int i = 0; i < b; ++i) {
      const Apfg::Output& want = single[static_cast<size_t>(i)];
      const Apfg::Output& got = rows[static_cast<size_t>(i)];
      EXPECT_TRUE(SameBits(got.feature, want.feature))
          << label << " batch " << b << " row " << i;
      EXPECT_EQ(std::memcmp(&got.action_prob, &want.action_prob,
                            sizeof(float)),
                0)
          << label << " batch " << b << " row " << i;
      EXPECT_EQ(got.prediction, want.prediction);
    }
  }
}

TEST(ApfgTest, ProcessBatchRowsMatchProcessPerTier) {
  common::ThreadPool pool(4);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      tensor::ComputeContext ctx;
      ctx.pool = p;
      ctx.isa = tier;
      ExpectProcessBatchRowsMatchProcess(
          ctx, /*int8=*/false,
          std::string(tensor::GemmIsaName(tier)) +
              (p != nullptr ? " pool" : " serial"));
    }
  }
}

TEST(ApfgInt8Test, ProcessBatchRowsMatchProcessPerTier) {
  common::ThreadPool pool(4);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      tensor::ComputeContext ctx;
      ctx.pool = p;
      ctx.isa = tier;
      ExpectProcessBatchRowsMatchProcess(
          ctx, /*int8=*/true,
          std::string("int8 ") + tensor::GemmIsaName(tier) +
              (p != nullptr ? " pool" : " serial"));
    }
  }
}

TEST(FeatureCacheTest, HitsOnRepeat) {
  common::Rng rng(11);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  auto v = MakeLabeledVideo(60, 0, 0, video::ActionClass::kNone);
  video::DecodeSpec spec{12, 4, 1};
  cache.Get(v, 0, spec);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Get(v, 0, spec);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FeatureCacheTest, DistinctKeysForDistinctSpecs) {
  common::Rng rng(12);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  auto v = MakeLabeledVideo(60, 0, 0, video::ActionClass::kNone);
  cache.Get(v, 0, video::DecodeSpec{12, 4, 1});
  cache.Get(v, 0, video::DecodeSpec{12, 4, 2});
  cache.Get(v, 4, video::DecodeSpec{12, 4, 1});
  EXPECT_EQ(cache.size(), 3u);
}

TEST(FeatureCacheTest, CachedOutputIdenticalToDirect) {
  common::Rng rng(13);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  auto v = MakeLabeledVideo(60, 0, 0, video::ActionClass::kNone);
  video::DecodeSpec spec{12, 4, 1};
  auto direct = apfg.Process(v, 8, spec);
  const auto cached = cache.Get(v, 8, spec);
  EXPECT_LT(tensor::MaxAbsDiff(direct.feature, cached->feature), 1e-6f);
  EXPECT_EQ(direct.prediction, cached->prediction);
}

TEST(FeatureCacheTest, PrecomputePopulatesAlignedStarts) {
  common::Rng rng(14);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  auto v = MakeLabeledVideo(40, 0, 0, video::ActionClass::kNone);
  cache.Precompute(v, video::DecodeSpec{12, 2, 1}, /*alignment=*/10);
  EXPECT_EQ(cache.size(), 4u);  // starts 0, 10, 20, 30
}

TEST(FeatureCacheTest, WindowAwareKeysRecomputeOnlyClampedTail) {
  // The stream contract: growing a video must invalidate exactly the
  // segments whose decode was clamped at the old video end — interior
  // segments reuse their cached features, so an appended window only pays
  // extraction past the previous high-water mark.
  common::Rng rng(15);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  video::DecodeSpec spec{12, 4, 2};  // covers 8 source frames
  auto v = MakeLabeledVideo(40, 0, 0, video::ActionClass::kNone);
  // Warm starts 0..36 (interior: 0..32; start 36 clamps: only 4 avail).
  for (int start = 0; start < 40; start += 4) cache.Get(v, start, spec);
  const auto warm_misses = cache.misses();

  // Grow the video by 16 frames (content of old frames unchanged).
  video::Video tail(16, 12, 12);
  v.Append(tail);

  // Interior segments hit; the previously clamped tail (start 36, now 8
  // avail) and brand-new starts miss.
  for (int start = 0; start < 56; start += 4) cache.Get(v, start, spec);
  EXPECT_EQ(cache.hits(), 9u);                    // starts 0..32
  EXPECT_EQ(cache.misses(), warm_misses + 5u);    // 36 (re-clamped), 40..52
}

TEST(FeatureCacheTest, LruEvictsAndCounts) {
  common::Rng rng(17);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg, /*max_entries=*/3);
  auto v = MakeLabeledVideo(80, 0, 0, video::ActionClass::kNone);
  video::DecodeSpec spec{12, 2, 1};
  cache.Get(v, 0, spec);
  cache.Get(v, 10, spec);
  cache.Get(v, 20, spec);
  cache.Get(v, 0, spec);  // refresh 0 -> LRU order (0, 20, 10)
  auto held = cache.Get(v, 10, spec);  // refresh 10 -> (10, 0, 20)
  cache.Get(v, 30, spec);              // evicts 20
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  const auto misses = cache.misses();
  cache.Get(v, 0, spec);  // survived
  cache.Get(v, 10, spec);
  EXPECT_EQ(cache.misses(), misses);
  cache.Get(v, 20, spec);  // was evicted: recompute
  EXPECT_EQ(cache.misses(), misses + 1);
  // A held value stays valid across evictions (shared ownership).
  EXPECT_GT(held->feature.size(), 0u);

  // Tightening the bound evicts immediately.
  cache.set_max_entries(1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FeatureCacheTest, InvalidateBeforeDropsOnlyPassedSegments) {
  common::Rng rng(18);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  FeatureCache cache(&apfg);
  auto v = MakeLabeledVideo(100, 0, 0, video::ActionClass::kNone);
  video::DecodeSpec spec{12, 4, 1};  // covers 4 source frames
  for (int start = 0; start < 100; start += 4) cache.Get(v, start, spec);
  EXPECT_EQ(cache.size(), 25u);
  // Retention horizon at frame 40: segments [0,4) .. [36,40) go.
  EXPECT_EQ(cache.InvalidateBefore(40), 10u);
  EXPECT_EQ(cache.size(), 15u);
  EXPECT_EQ(cache.evictions(), 10u);
  const auto misses = cache.misses();
  cache.Get(v, 40, spec);  // at the horizon: retained
  EXPECT_EQ(cache.misses(), misses);
  cache.Get(v, 36, spec);  // behind the horizon: recompute
  EXPECT_EQ(cache.misses(), misses + 1);
}

// End-to-end int8 inference: enabling the quantized path must keep action
// probabilities within the advertised tolerance of fp32, stay deterministic
// on repeat, and disabling must restore fp32 bit-exactly.
TEST(ApfgInt8Test, ScoresWithinToleranceOfFp32) {
  common::Rng rng(16);
  Apfg apfg(ApfgTrainOptions{}, /*model_reuse=*/true, &rng);
  auto v = MakeLabeledVideo(60, 10, 30, video::ActionClass::kCrossRight);
  video::DecodeSpec spec{12, 4, 1};

  EXPECT_FALSE(apfg.int8_inference_enabled());
  auto fp32_a = apfg.Process(v, 0, spec);
  auto fp32_b = apfg.Process(v, 8, spec);

  apfg.EnableInt8Inference();
  EXPECT_TRUE(apfg.int8_inference_enabled());
  // First call runs the lazy fp32-vs-int8 validation; whichever way it
  // decides (int8 active or fp32 fallback), scores stay within tolerance.
  auto int8_a = apfg.Process(v, 0, spec);
  auto int8_b = apfg.Process(v, 8, spec);
  EXPECT_LE(std::fabs(int8_a.action_prob - fp32_a.action_prob),
            Apfg::kInt8ScoreTolerance);
  EXPECT_LE(std::fabs(int8_b.action_prob - fp32_b.action_prob),
            Apfg::kInt8ScoreTolerance);
  EXPECT_EQ(int8_a.feature.shape(), fp32_a.feature.shape());

  // Steady-state int8 inference is deterministic.
  auto repeat = apfg.Process(v, 0, spec);
  EXPECT_EQ(tensor::MaxAbsDiff(repeat.feature, int8_a.feature), 0.0f);
  EXPECT_EQ(repeat.action_prob, int8_a.action_prob);

  // Disabling restores the fp32 path bit-exactly.
  apfg.EnableInt8Inference(false);
  EXPECT_FALSE(apfg.int8_inference_enabled());
  auto back = apfg.Process(v, 0, spec);
  EXPECT_EQ(tensor::MaxAbsDiff(back.feature, fp32_a.feature), 0.0f);
  EXPECT_EQ(back.action_prob, fp32_a.action_prob);
}

// Batched int8 inference agrees with fp32 row-for-row (the per-model
// validation compares exactly these action probabilities).
TEST(ApfgInt8Test, BatchScoresTrackFp32RowForRow) {
  common::Rng rng(17);
  Apfg apfg(ApfgTrainOptions{}, true, &rng);
  video::DecodeSpec spec{12, 4, 1};
  common::Rng data_rng(18);
  tensor::Tensor batch({4, 1, 4, 12, 12});
  tensor::FillGaussian(&batch, &data_rng, 1.0f);

  auto fp32 = apfg.ProcessBatch(batch, spec);
  apfg.EnableInt8Inference();
  auto int8 = apfg.ProcessBatch(batch, spec);
  ASSERT_EQ(int8.size(), fp32.size());
  for (size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_LE(std::fabs(int8[i].action_prob - fp32[i].action_prob),
              Apfg::kInt8ScoreTolerance)
        << "row " << i;
  }
}

TEST(ApfgTrainingTest, LearnsSeparableToyTask) {
  // A tiny dataset where action segments carry a checkerboard texture and
  // non-action segments are flat: training must reach high accuracy
  // quickly. (The cue must be textural, not plain brightness — the decoder
  // standardizes each segment, which removes global brightness on purpose.)
  common::Rng rng(15);
  std::vector<video::Video> storage;
  for (int i = 0; i < 4; ++i) {
    video::Video v(120, 12, 12);
    for (int f = 0; f < 120; ++f) {
      float* px = v.FrameData(f);
      for (int p = 0; p < 144; ++p) px[p] = 0.4f;
    }
    for (int f = 40; f < 80; ++f) {
      v.SetLabel(f, video::ActionClass::kCrossRight);
      float* px = v.FrameData(f);
      for (int y = 0; y < 12; ++y) {
        for (int x = 0; x < 12; ++x) {
          px[y * 12 + x] = ((x + y) % 2 == 0) ? 0.8f : 0.2f;
        }
      }
    }
    v.set_id(100 + i);
    storage.push_back(std::move(v));
  }
  std::vector<const video::Video*> vids;
  for (auto& v : storage) vids.push_back(&v);
  ApfgTrainOptions opts;
  opts.epochs = 6;
  Apfg apfg(opts, true, &rng);
  ApfgTrainStats stats;
  video::DecodeSpec best{12, 8, 1};
  ASSERT_TRUE(apfg.Train(vids, {video::ActionClass::kCrossRight}, best,
                         {best}, &stats)
                  .ok());
  EXPECT_GT(stats.train_accuracy, 0.9f);
  EXPECT_TRUE(apfg.trained());
}

}  // namespace
}  // namespace zeus::apfg
