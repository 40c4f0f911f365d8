// Parity and determinism tests for the GEMM compute substrate: the blocked
// Sgemm kernel and the im2col/vol2col-lowered Conv2d/Conv3d/Linear paths are
// checked against the naive ComputePath::kReference loops over randomized
// shapes (odd sizes, stride, padding, 1-8 threads) within the tolerance
// documented in tensor/tensor_ops.h, and the parallel kernel is checked to
// be bit-identical across thread counts and repeated runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/batch_split.h"
#include "nn/conv2d.h"
#include "nn/activations.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace zeus {
namespace {

constexpr float kTol = 1e-4f;  // documented max-abs-diff budget

tensor::ComputeContext ReferenceCtx() {
  tensor::ComputeContext ctx;
  ctx.pool = nullptr;
  ctx.path = tensor::ComputePath::kReference;
  return ctx;
}

tensor::ComputeContext GemmCtx(common::ThreadPool* pool = nullptr) {
  tensor::ComputeContext ctx;
  ctx.pool = pool;
  ctx.path = tensor::ComputePath::kGemm;
  return ctx;
}

tensor::Tensor RandomTensor(std::vector<int> shape, common::Rng* rng) {
  tensor::Tensor t(std::move(shape));
  tensor::FillGaussian(&t, rng, 1.0f);
  return t;
}

TEST(SgemmTest, MatchesReferenceOverRandomOddShapes) {
  common::Rng rng(7);
  const int shapes[][3] = {{1, 1, 1},   {1, 10, 48},  {3, 5, 7},
                           {17, 31, 13}, {33, 129, 65}, {64, 64, 64},
                           {2, 255, 9},  {129, 3, 511}, {80, 100, 300}};
  tensor::ComputeContext ref = ReferenceCtx();
  tensor::ComputeContext gemm = GemmCtx();
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], k = s[2];
    tensor::Tensor a = RandomTensor({m, k}, &rng);
    tensor::Tensor b = RandomTensor({k, n}, &rng);
    EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMul(a, b, &gemm),
                                 tensor::MatMul(a, b, &ref)),
              kTol)
        << "MatMul " << m << "x" << k << "x" << n;
    tensor::Tensor bt = RandomTensor({n, k}, &rng);
    EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMulTransposedB(a, bt, &gemm),
                                 tensor::MatMulTransposedB(a, bt, &ref)),
              kTol)
        << "MatMulTransposedB " << m << "x" << k << "x" << n;
    tensor::Tensor at = RandomTensor({k, m}, &rng);
    EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMulTransposedA(at, b, &gemm),
                                 tensor::MatMulTransposedA(at, b, &ref)),
              kTol)
        << "MatMulTransposedA " << m << "x" << k << "x" << n;
  }
}

TEST(SgemmTest, HonorsAlphaBeta) {
  common::Rng rng(11);
  const int m = 13, n = 37, k = 29;
  tensor::Tensor a = RandomTensor({m, k}, &rng);
  tensor::Tensor b = RandomTensor({k, n}, &rng);
  tensor::Tensor c0 = RandomTensor({m, n}, &rng);
  tensor::ComputeContext gemm = GemmCtx();
  // c = 0.5 * a@b + 2 * c0
  tensor::Tensor c = c0;
  tensor::Sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f,
                c.data(), n, &gemm);
  tensor::Tensor ab = tensor::MatMul(a, b, &gemm);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], 0.5f * ab[i] + 2.0f * c0[i], kTol);
  }
}

// The parallel partition must not change results at all: each C element is
// accumulated in a thread-count-independent order.
TEST(SgemmTest, BitIdenticalAcrossThreadCounts) {
  common::Rng rng(13);
  const int m = 67, n = 341, k = 123;
  tensor::Tensor a = RandomTensor({m, k}, &rng);
  tensor::Tensor b = RandomTensor({k, n}, &rng);
  tensor::ComputeContext serial = GemmCtx();
  tensor::Tensor base = tensor::MatMul(a, b, &serial);
  for (int threads = 1; threads <= 8; threads *= 2) {
    common::ThreadPool pool(threads);
    tensor::ComputeContext par = GemmCtx(&pool);
    EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMul(a, b, &par), base), 0.0f)
        << threads << " threads";
  }
}

TEST(SgemmTest, DeterministicAcrossRepeatedMultithreadedRuns) {
  common::Rng rng(17);
  const int m = 48, n = 520, k = 77;
  tensor::Tensor a = RandomTensor({m, k}, &rng);
  tensor::Tensor b = RandomTensor({k, n}, &rng);
  common::ThreadPool pool(4);
  tensor::ComputeContext par = GemmCtx(&pool);
  tensor::Tensor first = tensor::MatMul(a, b, &par);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMul(a, b, &par), first), 0.0f);
  }
}

// Shared harness: forward + backward parity between the GEMM-lowered path
// and the kReference loop nest on one layer instance.
void ExpectLayerParity(nn::Layer* layer, const tensor::Tensor& x,
                       const tensor::ComputeContext& ref,
                       const tensor::ComputeContext& gemm) {
  layer->SetComputeContext(&ref);
  tensor::Tensor y_ref = layer->Forward(x, /*train=*/true);
  tensor::Tensor ones(y_ref.shape(), 1.0f);
  nn::ZeroGrads(layer->Parameters());
  tensor::Tensor dx_ref = layer->Backward(ones);
  std::vector<tensor::Tensor> grads_ref;
  for (nn::Parameter* p : layer->Parameters()) grads_ref.push_back(p->grad);

  layer->SetComputeContext(&gemm);
  tensor::Tensor y_gemm = layer->Forward(x, /*train=*/true);
  nn::ZeroGrads(layer->Parameters());
  tensor::Tensor dx_gemm = layer->Backward(ones);

  EXPECT_LT(tensor::MaxAbsDiff(y_gemm, y_ref), kTol) << "forward";
  EXPECT_LT(tensor::MaxAbsDiff(dx_gemm, dx_ref), kTol) << "grad input";
  auto params = layer->Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_LT(tensor::MaxAbsDiff(params[i]->grad, grads_ref[i]), kTol)
        << "param grad " << i;
  }
}

TEST(ConvParityTest, Conv2dGemmMatchesReference) {
  common::Rng rng(19);
  struct Case {
    int n, ci, co, h, w;
    nn::Conv2d::Options opts;
  };
  std::vector<Case> cases;
  cases.push_back({2, 3, 5, 13, 17, {}});                          // odd spatial
  cases.push_back({1, 1, 8, 15, 15, {{3, 3}, {2, 2}, {1, 1}}});    // stride 2
  cases.push_back({3, 4, 6, 9, 11, {{5, 3}, {1, 2}, {2, 0}}});     // mixed
  cases.push_back({1, 2, 4, 7, 7, {{1, 1}, {1, 1}, {0, 0}}});      // 1x1
  tensor::ComputeContext ref = ReferenceCtx();
  for (int threads : {0, 4}) {
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
    tensor::ComputeContext gemm = GemmCtx(pool.get());
    for (const Case& c : cases) {
      nn::Conv2d layer(c.ci, c.co, c.opts, &rng);
      tensor::Tensor x = RandomTensor({c.n, c.ci, c.h, c.w}, &rng);
      ExpectLayerParity(&layer, x, ref, gemm);
    }
  }
}

TEST(ConvParityTest, Conv3dGemmMatchesReference) {
  common::Rng rng(23);
  struct Case {
    int n, ci, co, l, h, w;
    nn::Conv3d::Options opts;
  };
  std::vector<Case> cases;
  cases.push_back({1, 1, 8, 8, 15, 15, {}});  // stem-like, odd spatial
  cases.push_back(
      {2, 2, 4, 7, 9, 11, {{3, 3, 3}, {2, 2, 2}, {1, 1, 1}}});  // stride 2
  cases.push_back(
      {1, 3, 5, 5, 6, 7, {{2, 3, 1}, {1, 2, 1}, {0, 1, 0}}});  // asymmetric
  tensor::ComputeContext ref = ReferenceCtx();
  for (int threads : {0, 4}) {
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
    tensor::ComputeContext gemm = GemmCtx(pool.get());
    for (const Case& c : cases) {
      nn::Conv3d layer(c.ci, c.co, c.opts, &rng);
      tensor::Tensor x = RandomTensor({c.n, c.ci, c.l, c.h, c.w}, &rng);
      ExpectLayerParity(&layer, x, ref, gemm);
    }
  }
}

TEST(ConvParityTest, LinearGemmMatchesReference) {
  common::Rng rng(29);
  tensor::ComputeContext ref = ReferenceCtx();
  common::ThreadPool pool(3);
  tensor::ComputeContext gemm = GemmCtx(&pool);
  for (int in : {5, 48, 129}) {
    for (int out : {1, 10, 33}) {
      nn::Linear layer(in, out, &rng);
      tensor::Tensor x = RandomTensor({7, in}, &rng);
      ExpectLayerParity(&layer, x, ref, gemm);
    }
  }
}

// The cached im2col/vol2col panels reused by Backward must change nothing:
// the panels are a pure function of the cached input, so gradients with the
// lowering cache on and off are bit-identical (not merely close).
template <typename Conv, typename MakeInput>
void ExpectLoweringCacheBitIdentical(typename Conv::Options opts,
                                     const MakeInput& make_input) {
  // Two layers with identical weights (same RNG seed), differing only in
  // whether Backward repacks or reuses the forward pass's panels.
  common::Rng rng_a(41), rng_b(41);
  typename Conv::Options cached_opts = opts;
  cached_opts.cache_lowering = true;
  typename Conv::Options repack_opts = opts;
  repack_opts.cache_lowering = false;
  Conv cached(3, 6, cached_opts, &rng_a);
  Conv repack(3, 6, repack_opts, &rng_b);

  common::Rng data_rng(43);
  tensor::Tensor x = make_input(&data_rng);
  tensor::ComputeContext gemm;  // serial kGemm

  for (Conv* layer : {&cached, &repack}) {
    layer->SetComputeContext(&gemm);
    nn::ZeroGrads(layer->Parameters());
  }
  tensor::Tensor y_cached = cached.Forward(x, /*train=*/true);
  tensor::Tensor y_repack = repack.Forward(x, /*train=*/true);
  EXPECT_EQ(tensor::MaxAbsDiff(y_cached, y_repack), 0.0f) << "forward";

  tensor::Tensor ones(y_cached.shape(), 1.0f);
  tensor::Tensor dx_cached = cached.Backward(ones);
  tensor::Tensor dx_repack = repack.Backward(ones);
  EXPECT_EQ(tensor::MaxAbsDiff(dx_cached, dx_repack), 0.0f) << "grad input";
  auto pa = cached.Parameters();
  auto pb = repack.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(tensor::MaxAbsDiff(pa[i]->grad, pb[i]->grad), 0.0f)
        << "param grad " << i;
  }
}

TEST(ConvLoweringCacheTest, Conv2dGradientsBitIdentical) {
  nn::Conv2d::Options opts;
  opts.kernel = {3, 3};
  opts.stride = {2, 1};
  opts.padding = {1, 0};
  ExpectLoweringCacheBitIdentical<nn::Conv2d>(opts, [](common::Rng* rng) {
    return RandomTensor({2, 3, 13, 11}, rng);
  });
}

TEST(ConvLoweringCacheTest, Conv3dGradientsBitIdentical) {
  nn::Conv3d::Options opts;
  opts.kernel = {3, 3, 3};
  opts.stride = {1, 2, 2};
  opts.padding = {1, 1, 1};
  ExpectLoweringCacheBitIdentical<nn::Conv3d>(opts, [](common::Rng* rng) {
    return RandomTensor({2, 3, 6, 12, 10}, rng);
  });
}

// ---- ISA tier forcing ------------------------------------------------------

std::vector<tensor::GemmIsa> SupportedTiers() {
  std::vector<tensor::GemmIsa> tiers;
  for (tensor::GemmIsa t : {tensor::GemmIsa::kScalar, tensor::GemmIsa::kAvx2,
                            tensor::GemmIsa::kAvx512}) {
    if (tensor::ResolveGemmIsa(t) == t) tiers.push_back(t);
  }
  return tiers;  // kScalar always resolves to itself
}

// Every tier the CPU supports must agree with the reference loops on shapes
// that exercise the remainder-tile edges of both register tiles (4x16 and
// 6x32): m not a multiple of 4/6, n not a multiple of 16/32, tiny k.
TEST(GemmIsaTest, EveryTierMatchesReferenceOnRemainderShapes) {
  common::Rng rng(47);
  const int shapes[][3] = {{1, 1, 1},    {3, 17, 5},  {5, 33, 7},
                           {6, 32, 64},  {7, 31, 63}, {11, 50, 129},
                           {13, 95, 33}, {2, 255, 9}, {37, 96, 256}};
  tensor::ComputeContext ref = ReferenceCtx();
  for (tensor::GemmIsa tier : SupportedTiers()) {
    tensor::ComputeContext gemm = GemmCtx();
    gemm.isa = tier;
    for (const auto& s : shapes) {
      const int m = s[0], n = s[1], k = s[2];
      tensor::Tensor a = RandomTensor({m, k}, &rng);
      tensor::Tensor b = RandomTensor({k, n}, &rng);
      EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMul(a, b, &gemm),
                                   tensor::MatMul(a, b, &ref)),
                kTol)
          << tensor::GemmIsaName(tier) << " " << m << "x" << k << "x" << n;
      tensor::Tensor bt = RandomTensor({n, k}, &rng);
      EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMulTransposedB(a, bt, &gemm),
                                   tensor::MatMulTransposedB(a, bt, &ref)),
                kTol)
          << tensor::GemmIsaName(tier) << " trans_b " << m << "x" << k << "x"
          << n;
    }
  }
}

// The thread-count bit-identity contract holds per tier, not just for the
// auto-resolved one.
TEST(GemmIsaTest, EachTierBitIdenticalAcrossThreadCounts) {
  common::Rng rng(53);
  const int m = 37, n = 203, k = 91;
  tensor::Tensor a = RandomTensor({m, k}, &rng);
  tensor::Tensor b = RandomTensor({k, n}, &rng);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    tensor::ComputeContext serial = GemmCtx();
    serial.isa = tier;
    tensor::Tensor base = tensor::MatMul(a, b, &serial);
    for (int threads : {2, 4}) {
      common::ThreadPool pool(threads);
      tensor::ComputeContext par = GemmCtx(&pool);
      par.isa = tier;
      EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMul(a, b, &par), base), 0.0f)
          << tensor::GemmIsaName(tier) << " " << threads << " threads";
    }
  }
}

// Forcing a tier the CPU lacks clamps to a supported one instead of crashing.
TEST(GemmIsaTest, UnsupportedForcedTierStillComputes) {
  common::Rng rng(59);
  tensor::Tensor a = RandomTensor({9, 31}, &rng);
  tensor::Tensor b = RandomTensor({31, 21}, &rng);
  tensor::ComputeContext ref = ReferenceCtx();
  tensor::ComputeContext gemm = GemmCtx();
  gemm.isa = tensor::GemmIsa::kAvx512;  // may or may not be supported here
  EXPECT_LT(tensor::MaxAbsDiff(tensor::MatMul(a, b, &gemm),
                               tensor::MatMul(a, b, &ref)),
            kTol);
}

TEST(GemmIsaTest, ParseComputePath) {
  tensor::ComputePath path = tensor::ComputePath::kGemm;
  tensor::GemmIsa isa = tensor::GemmIsa::kAuto;
  EXPECT_TRUE(tensor::ParseComputePath("reference", &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kReference);
  EXPECT_EQ(isa, tensor::GemmIsa::kAuto);

  EXPECT_TRUE(tensor::ParseComputePath("scalar", &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kGemm);
  EXPECT_EQ(isa, tensor::GemmIsa::kScalar);

  EXPECT_TRUE(tensor::ParseComputePath("avx2", &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kGemm);
  EXPECT_EQ(isa, tensor::GemmIsa::kAvx2);

  EXPECT_TRUE(tensor::ParseComputePath("avx512", &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kGemm);
  EXPECT_EQ(isa, tensor::GemmIsa::kAvx512);

  EXPECT_TRUE(tensor::ParseComputePath("int8", &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kInt8);
  EXPECT_EQ(isa, tensor::GemmIsa::kAuto);

  // Unparseable values return false and leave the outputs untouched.
  path = tensor::ComputePath::kGemm;
  isa = tensor::GemmIsa::kAvx2;
  EXPECT_FALSE(tensor::ParseComputePath("turbo", &path, &isa));
  EXPECT_FALSE(tensor::ParseComputePath("", &path, &isa));
  EXPECT_FALSE(tensor::ParseComputePath(nullptr, &path, &isa));
  EXPECT_EQ(path, tensor::ComputePath::kGemm);
  EXPECT_EQ(isa, tensor::GemmIsa::kAvx2);
}

// ---- Row independence -----------------------------------------------------

// Rows [lo, hi) of a 2-D tensor.
tensor::Tensor Rows(const tensor::Tensor& x, int lo, int hi) {
  const int d = x.dim(1);
  tensor::Tensor out({hi - lo, d});
  std::copy(x.data() + static_cast<size_t>(lo) * d,
            x.data() + static_cast<size_t>(hi) * d, out.data());
  return out;
}

// The Q-network's shape: state (feature + action prob + config one-hot +
// position) -> 64 -> 64 -> one Q-value per configuration.
std::unique_ptr<nn::Sequential> MakeMlp(int in_dim, common::Rng* rng) {
  auto net = std::make_unique<nn::Sequential>();
  net->Emplace<nn::Linear>(in_dim, 64, rng);
  net->Emplace<nn::ReLU>();
  net->Emplace<nn::Linear>(64, 64, rng);
  net->Emplace<nn::ReLU>();
  net->Emplace<nn::Linear>(64, 8, rng);
  return net;
}

// Row i of an m-row inference forward must equal the one-row forward of
// the same input bit for bit, for every m: the batched executor stacks the
// active videos' states into one forward and relies on a row's answer not
// depending on its batch-mates or on the batch size. m = 1..40 crosses every
// register-tile remainder (4- and 6-row tiles) and, with a pool, the switch
// from serial to pooled GEMM at kMinParallelMacs.
void ExpectRowsIndependentOfBatch(const tensor::ComputeContext& ctx,
                                  const std::string& label) {
  constexpr int kInDim = 42, kMaxRows = 40;
  common::Rng rng(83);
  std::unique_ptr<nn::Sequential> net = MakeMlp(kInDim, &rng);
  net->SetComputeContext(&ctx);
  tensor::Tensor x = RandomTensor({kMaxRows, kInDim}, &rng);
  std::vector<tensor::Tensor> single;
  for (int i = 0; i < kMaxRows; ++i) {
    single.push_back(net->Forward(Rows(x, i, i + 1), false));
  }
  for (int m = 1; m <= kMaxRows; ++m) {
    tensor::Tensor y = net->Forward(Rows(x, 0, m), false);
    for (int i = 0; i < m; ++i) {
      const size_t d = single[static_cast<size_t>(i)].size();
      EXPECT_EQ(std::memcmp(y.data() + i * d,
                            single[static_cast<size_t>(i)].data(),
                            d * sizeof(float)),
                0)
          << label << " m=" << m << " row " << i;
    }
  }
}

TEST(RowIndependenceTest, LinearStackRowsMatchSingleRowForwardPerTier) {
  common::ThreadPool pool(4);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      tensor::ComputeContext ctx = GemmCtx(p);
      ctx.isa = tier;
      ExpectRowsIndependentOfBatch(
          ctx, std::string(tensor::GemmIsaName(tier)) +
                   (p != nullptr ? " pool" : " serial"));
    }
  }
}

// ---- Int8 quantized path ---------------------------------------------------

float MaxAbs(const tensor::Tensor& t) {
  float m = 0.0f;
  for (size_t i = 0; i < t.size(); ++i) m = std::max(m, std::fabs(t[i]));
  return m;
}

tensor::ComputeContext Int8Ctx(common::ThreadPool* pool = nullptr) {
  tensor::ComputeContext ctx;
  ctx.pool = pool;
  ctx.path = tensor::ComputePath::kInt8;
  return ctx;
}

// Per-operand round-trip error is at most half a quantization step.
TEST(Int8GemmTest, QuantizeDequantizeWithinHalfStep) {
  common::Rng rng(61);
  tensor::Tensor t = RandomTensor({17, 53}, &rng);
  const float scale = tensor::QuantScale(t);
  ASSERT_GT(scale, 0.0f);
  EXPECT_LE(tensor::MaxAbsDiff(tensor::QuantizeDequantize(t), t),
            0.5f * scale + 1e-7f);

  tensor::Tensor zeros({4, 4});
  EXPECT_EQ(tensor::QuantScale(zeros), 0.0f);
  EXPECT_EQ(MaxAbs(tensor::QuantizeDequantize(zeros)), 0.0f);
}

// Int8 MatMul output stays within the a-priori error bound documented in
// tensor_ops.h: ~0.0079 * k * Amax * Bmax per element.
TEST(Int8GemmTest, MatMulWithinDocumentedErrorBound) {
  common::Rng rng(67);
  tensor::ComputeContext ref = ReferenceCtx();
  tensor::ComputeContext int8 = Int8Ctx();
  const int shapes[][3] = {{1, 1, 1},   {5, 33, 7},   {8, 96, 147},
                           {17, 50, 64}, {33, 129, 65}, {64, 64, 333}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], k = s[2];
    tensor::Tensor a = RandomTensor({m, k}, &rng);
    tensor::Tensor b = RandomTensor({k, n}, &rng);
    const float bound = 0.0079f * k * MaxAbs(a) * MaxAbs(b);
    EXPECT_LE(tensor::MaxAbsDiff(tensor::MatMul(a, b, &int8),
                                 tensor::MatMul(a, b, &ref)),
              bound)
        << "int8 MatMul " << m << "x" << k << "x" << n;
    tensor::Tensor bt = RandomTensor({n, k}, &rng);
    const float bound_t = 0.0079f * k * MaxAbs(a) * MaxAbs(bt);
    EXPECT_LE(tensor::MaxAbsDiff(tensor::MatMulTransposedB(a, bt, &int8),
                                 tensor::MatMulTransposedB(a, bt, &ref)),
              bound_t)
        << "int8 trans_b " << m << "x" << k << "x" << n;
  }
}

// Integer accumulation is associative, so int8 results are bit-identical
// across ISA tiers AND thread counts — a stronger contract than fp32's
// (which only promises bit-identity within one tier).
TEST(Int8GemmTest, BitIdenticalAcrossTiersAndThreadCounts) {
  common::Rng rng(71);
  const int m = 23, n = 167, k = 149;
  tensor::Tensor a = RandomTensor({m, k}, &rng);
  tensor::Tensor b = RandomTensor({k, n}, &rng);
  tensor::ComputeContext serial = Int8Ctx();
  serial.isa = tensor::GemmIsa::kScalar;
  tensor::Tensor base = tensor::MatMul(a, b, &serial);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    for (int threads : {0, 2, 4}) {
      std::unique_ptr<common::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
      tensor::ComputeContext ctx = Int8Ctx(pool.get());
      ctx.isa = tier;
      EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMul(a, b, &ctx), base), 0.0f)
          << tensor::GemmIsaName(tier) << " " << threads << " threads";
    }
  }
}

// The int8 path quantizes each activation row with its own scale, so the
// row-independence contract holds there too (in every tier: the quantize
// primitives are per tier even though the integer kernel is exact).
TEST(RowIndependenceTest, Int8LinearStackRowsMatchSingleRowForwardPerTier) {
  common::ThreadPool pool(4);
  for (tensor::GemmIsa tier : SupportedTiers()) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      tensor::ComputeContext ctx = Int8Ctx(p);
      ctx.isa = tier;
      ExpectRowsIndependentOfBatch(
          ctx, std::string("int8 ") + tensor::GemmIsaName(tier) +
                   (p != nullptr ? " pool" : " serial"));
    }
  }
}

// At m = 1 a per-row scale is the per-tensor scale, so the one-row int8
// product is the same as quantizing the row as a whole tensor.
TEST(Int8GemmTest, OneRowProductUsesTheTensorScale) {
  common::Rng rng(79);
  tensor::Tensor a = RandomTensor({1, 37}, &rng);
  tensor::Tensor b = RandomTensor({37, 29}, &rng);
  tensor::Int8Panels pa, pb;
  tensor::QuantizePackA(a.data(), 37, 1, 37, &pa);
  tensor::QuantizePackB(b.data(), 29, false, 37, 29, &pb);
  tensor::Tensor c({1, 29});
  tensor::QuantizedGemm(1, 29, 37, pa, pb, c.data(), 29);
  tensor::ComputeContext int8 = Int8Ctx();
  EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMul(a, b, &int8), c), 0.0f);
}

// MatMulTransposedA is a backward-pass shape: kInt8 must silently fall back
// to fp32 there (gradients are never quantized), so it matches kGemm
// bit-exactly, not merely within the quantization bound.
TEST(Int8GemmTest, TransposedANeverQuantizes) {
  common::Rng rng(73);
  tensor::Tensor at = RandomTensor({37, 19}, &rng);
  tensor::Tensor b = RandomTensor({37, 41}, &rng);
  tensor::ComputeContext int8 = Int8Ctx();
  tensor::ComputeContext gemm = GemmCtx();
  EXPECT_EQ(tensor::MaxAbsDiff(tensor::MatMulTransposedA(at, b, &int8),
                               tensor::MatMulTransposedA(at, b, &gemm)),
            0.0f);
}

// ---- Batch-level parallelism -----------------------------------------------

// The outer/inner split policy is a pure function of shape and pool size.
TEST(BatchSplitTest, PolicyGuards) {
  const size_t big = size_t{1} << 20;   // below the outer-preferred knee
  const size_t huge = size_t{1} << 25;  // above it: few huge images go inner
  common::ThreadPool pool(4);
  tensor::ComputeContext ctx = GemmCtx(&pool);
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 8, big), 4);   // n >= threads: outer
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 2, big), 2);   // small images: outer
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 2, huge), 1);  // few huge images: inner
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 1, big), 1);   // single image
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 8, 16), 1);    // trivial total work
  ctx.batch_split = false;
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 8, big), 1);   // knob off
  ctx.batch_split = true;
  ctx.pool = nullptr;
  EXPECT_EQ(nn::BatchSplitTasks(ctx, 8, big), 1);   // serial context

  // Range partition covers [0, n) exactly, in order.
  int covered = 0;
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(nn::BatchSplitBegin(10, 3, t), covered);
    covered = nn::BatchSplitEnd(10, 3, t);
  }
  EXPECT_EQ(covered, 10);
}

// From inside a pool worker the policy must refuse to split (the nested
// ParallelFor would run inline and serialize everything anyway).
TEST(BatchSplitTest, NeverSplitsFromWorkerThread) {
  common::ThreadPool pool(4);
  tensor::ComputeContext ctx = GemmCtx(&pool);
  int tasks_inside = -1;
  common::ParallelFor(&pool, 1, [&](int) {
    tasks_inside = nn::BatchSplitTasks(ctx, 8, size_t{1} << 20);
  });
  EXPECT_EQ(tasks_inside, 1);
}

// Nested-ParallelFor regression: a batched conv whose outer split dispatches
// per-image work onto the pool — where each inner GEMM hits the
// ParallelFor-inline guard — must produce bit-identical results (forward,
// input grads, weight/bias grads) to the fully serial run and to the
// intra-GEMM-only run.
template <typename Conv>
void ExpectBatchSplitBitIdentical(typename Conv::Options opts, int ci, int co,
                                  const tensor::Tensor& x) {
  common::Rng rng(79);
  Conv layer(ci, co, opts, &rng);

  tensor::ComputeContext serial = GemmCtx();
  layer.SetComputeContext(&serial);
  tensor::Tensor y_base = layer.Forward(x, /*train=*/true);
  tensor::Tensor ones(y_base.shape(), 1.0f);
  nn::ZeroGrads(layer.Parameters());
  tensor::Tensor dx_base = layer.Backward(ones);
  std::vector<tensor::Tensor> grads_base;
  for (nn::Parameter* p : layer.Parameters()) grads_base.push_back(p->grad);

  for (bool batch_split : {true, false}) {
    for (int threads : {2, 4, 8}) {
      common::ThreadPool pool(threads);
      tensor::ComputeContext par = GemmCtx(&pool);
      par.batch_split = batch_split;
      layer.SetComputeContext(&par);
      const std::string what = std::string(batch_split ? "outer" : "inner") +
                               " split, " + std::to_string(threads) +
                               " threads";
      EXPECT_EQ(tensor::MaxAbsDiff(layer.Forward(x, /*train=*/true), y_base),
                0.0f)
          << what << " forward";
      nn::ZeroGrads(layer.Parameters());
      EXPECT_EQ(tensor::MaxAbsDiff(layer.Backward(ones), dx_base), 0.0f)
          << what << " grad input";
      auto params = layer.Parameters();
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(tensor::MaxAbsDiff(params[i]->grad, grads_base[i]), 0.0f)
            << what << " param grad " << i;
      }
    }
  }
}

TEST(BatchSplitTest, Conv2dBatchedBitIdenticalVsSerial) {
  common::Rng rng(83);
  nn::Conv2d::Options opts;
  opts.kernel = {3, 3};
  opts.stride = {1, 2};
  opts.padding = {1, 1};
  ExpectBatchSplitBitIdentical<nn::Conv2d>(opts, 2, 5,
                                           RandomTensor({6, 2, 11, 13}, &rng));
}

TEST(BatchSplitTest, Conv3dBatchedBitIdenticalVsSerial) {
  common::Rng rng(89);
  nn::Conv3d::Options opts;
  opts.kernel = {3, 3, 3};
  opts.stride = {1, 2, 2};
  opts.padding = {1, 1, 1};
  ExpectBatchSplitBitIdentical<nn::Conv3d>(
      opts, 1, 6, RandomTensor({6, 1, 5, 12, 10}, &rng));
}

// Conv forward through the GEMM path must also be bit-identical across
// thread counts (the property the parallel BatchedExecutor relies on).
TEST(ConvParityTest, Conv3dForwardBitIdenticalAcrossThreadCounts) {
  common::Rng rng(31);
  nn::Conv3d::Options opts;
  nn::Conv3d layer(2, 16, opts, &rng);
  tensor::Tensor x = RandomTensor({1, 2, 8, 20, 20}, &rng);
  tensor::ComputeContext serial = GemmCtx();
  layer.SetComputeContext(&serial);
  tensor::Tensor base = layer.Forward(x, false);
  for (int threads : {2, 4, 8}) {
    common::ThreadPool pool(threads);
    tensor::ComputeContext par = GemmCtx(&pool);
    layer.SetComputeContext(&par);
    EXPECT_EQ(tensor::MaxAbsDiff(layer.Forward(x, false), base), 0.0f)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace zeus
