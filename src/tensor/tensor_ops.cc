#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

namespace zeus::tensor {

namespace {

// Naive kReference product: plain float-accumulating dot products, one
// fixed k-ascending order for all three transpose variants. (The seed mixed
// policies — double accumulation in the B-transposed variant, skip-zero
// fast paths elsewhere — which made the variants disagree with each other;
// see the tolerance note in the header.)
void ReferenceGemm(bool trans_a, bool trans_b, int m, int n, int k,
                   const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a[static_cast<size_t>(kk) * m + i]
                                 : a[static_cast<size_t>(i) * k + kk];
        const float bv = trans_b ? b[static_cast<size_t>(j) * k + kk]
                                 : b[static_cast<size_t>(kk) * n + j];
        s += av * bv;
      }
      crow[j] = s;
    }
  }
}

Tensor MatMulDispatch(bool trans_a, bool trans_b, int m, int n, int k,
                      const Tensor& a, const Tensor& b,
                      const ComputeContext* ctx) {
  Tensor out({m, n});
  const ComputeContext& cc = EffectiveContext(ctx);
  if (cc.path == ComputePath::kReference) {
    ReferenceGemm(trans_a, trans_b, m, n, k, a.data(), b.data(), out.data());
  } else if (cc.path == ComputePath::kInt8 && !trans_a) {
    // Quantize both operands per call (A per row, B per tensor, symmetric),
    // accumulate in int32, dequantize at write-back. See the error-bound
    // note in tensor_ops.h. trans_a (backward-only shape) falls through to
    // fp32.
    Int8Panels pa, pb;
    QuantizePackA(a.data(), k, m, k, &pa, &cc, /*per_row_scale=*/true);
    QuantizePackB(b.data(), trans_b ? k : n, trans_b, k, n, &pb, &cc);
    QuantizedGemm(m, n, k, pa, pb, out.data(), n, &cc);
  } else {
    Sgemm(trans_a, trans_b, m, n, k, 1.0f, a.data(),
          trans_a ? m : k, b.data(), trans_b ? k : n, 0.0f, out.data(), n,
          &cc);
  }
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, const ComputeContext* ctx) {
  ZEUS_CHECK(a.ndim() == 2 && b.ndim() == 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  ZEUS_CHECK(b.dim(0) == k);
  return MatMulDispatch(false, false, m, n, k, a, b, ctx);
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b,
                         const ComputeContext* ctx) {
  ZEUS_CHECK(a.ndim() == 2 && b.ndim() == 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  ZEUS_CHECK(b.dim(1) == k);
  return MatMulDispatch(false, true, m, n, k, a, b, ctx);
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b,
                         const ComputeContext* ctx) {
  ZEUS_CHECK(a.ndim() == 2 && b.ndim() == 2);
  int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  ZEUS_CHECK(b.dim(0) == k);
  return MatMulDispatch(true, false, m, n, k, a, b, ctx);
}

float QuantScale(const Tensor& t) {
  float mx = 0.0f;
  for (size_t i = 0; i < t.size(); ++i) mx = std::max(mx, std::abs(t[i]));
  return mx / 127.0f;
}

Tensor QuantizeDequantize(const Tensor& t) {
  Tensor out = t;
  const float scale = QuantScale(t);
  if (scale == 0.0f) return out;
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < out.size(); ++i) {
    const long q = std::lrintf(out[i] * inv);
    out[i] = scale * static_cast<float>(std::min(127L, std::max(-127L, q)));
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  ZEUS_CHECK(SameShape(a, b));
  Tensor out = a;
  out.Add(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  ZEUS_CHECK(SameShape(a, b));
  Tensor out = a;
  out.AddScaled(b, -1.0f);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  ZEUS_CHECK(SameShape(a, b));
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  for (size_t i = 0; i < out.size(); ++i) po[i] *= pb[i];
  return out;
}

Tensor Transpose2d(const Tensor& a) {
  ZEUS_CHECK(a.ndim() == 2);
  int m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      out[static_cast<size_t>(j) * m + i] = a[static_cast<size_t>(i) * n + j];
  return out;
}

void FillUniform(Tensor* t, common::Rng* rng, float bound) {
  for (size_t i = 0; i < t->size(); ++i)
    (*t)[i] = static_cast<float>(rng->NextUniform(-bound, bound));
}

void FillGaussian(Tensor* t, common::Rng* rng, float stddev) {
  for (size_t i = 0; i < t->size(); ++i)
    (*t)[i] = static_cast<float>(rng->NextGaussian(0.0, stddev));
}

Tensor SoftmaxRows(const Tensor& logits) {
  ZEUS_CHECK(logits.ndim() == 2);
  int n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  for (int i = 0; i < n; ++i) {
    const float* row = logits.data() + static_cast<size_t>(i) * c;
    float* orow = out.data() + static_cast<size_t>(i) * c;
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    for (int j = 0; j < c; ++j) orow[j] = static_cast<float>(orow[j] / denom);
  }
  return out;
}

Tensor Concat1d(const std::vector<Tensor>& parts) {
  size_t total = 0;
  for (const Tensor& p : parts) total += p.size();
  Tensor out({static_cast<int>(total)});
  size_t off = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.size(), out.data() + off);
    off += p.size();
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  ZEUS_CHECK(!parts.empty());
  std::vector<int> shape = parts[0].shape();
  for (const Tensor& p : parts) ZEUS_CHECK(p.shape() == shape);
  std::vector<int> out_shape;
  out_shape.push_back(static_cast<int>(parts.size()));
  out_shape.insert(out_shape.end(), shape.begin(), shape.end());
  Tensor out(out_shape);
  size_t stride = parts[0].size();
  for (size_t i = 0; i < parts.size(); ++i) {
    std::copy(parts[i].data(), parts[i].data() + stride,
              out.data() + i * stride);
  }
  return out;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  ZEUS_CHECK(SameShape(a, b));
  float mx = 0.0f;
  for (size_t i = 0; i < a.size(); ++i)
    mx = std::max(mx, std::abs(a[i] - b[i]));
  return mx;
}

}  // namespace zeus::tensor
