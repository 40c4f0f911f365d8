#ifndef ZEUS_TENSOR_TENSOR_OPS_H_
#define ZEUS_TENSOR_TENSOR_OPS_H_

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace zeus::tensor {

// Matrix products. All three variants dispatch on the compute context
// (ctx, or GlobalComputeContext() when null): ComputePath::kGemm runs the
// blocked parallel kernel in tensor/gemm.h, kReference a naive triple loop,
// kInt8 the symmetric quantized kernel (below).
//
// Accumulation policy (unified across variants and paths): partial sums are
// kept in float. The fp32 paths sum in different orders (the GEMM path by
// kc-deep panels), so they agree only to rounding: for k <= 512 and
// unit-scale operands the observed max-abs-diff is < 1e-5; tests budget
// 1e-4. Each path on its own is deterministic — the GEMM path bit-exactly
// so across thread counts.
//
// kInt8 error bound: A is quantized symmetrically per row and B per tensor
// (scale = maxabs / 127, round-to-nearest), so each element carries at most
// half a quantization step of error. For C = A @ B this bounds each output
// element of row i by roughly
//   k * Amax_i * Bmax * (0.5/127 + 0.5/127 + 0.25/127^2)
//     ~= 0.0079 * k * Amax_i * Bmax
// where Amax_i is row i's max-abs value and Bmax B's. Per-row A scales make
// row i of an m-row product equal the one-row product of row i bit for bit
// (one row per sample: batching never changes a sample's answer); at m = 1
// the scale is the per-tensor one. The int32 accumulation
// itself is exact (vpmaddwd pair products <= 2*127^2; no overflow up to
// k ~ 2^17), so the int8 path is bit-identical across ISA tiers AND thread
// counts — all rounding happens at quantize and the final dequant multiply.
// kInt8 applies to MatMul and MatMulTransposedB (inference shapes);
// MatMulTransposedA — only used by backward passes — silently runs the fp32
// kGemm path so training gradients are never quantized.

// out = a @ b for 2-D tensors {m,k} x {k,n} -> {m,n}.
Tensor MatMul(const Tensor& a, const Tensor& b,
              const ComputeContext* ctx = nullptr);

// out = a @ b^T for 2-D tensors {m,k} x {n,k} -> {m,n}. Avoids an explicit
// transpose in the Linear backward pass.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b,
                         const ComputeContext* ctx = nullptr);

// out = a^T @ b for 2-D tensors {k,m} x {k,n} -> {m,n}.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b,
                         const ComputeContext* ctx = nullptr);

// Per-tensor symmetric quantization scale: maxabs / 127 (0 for an all-zero
// tensor). The same scale rule QuantizePackA/B use internally.
float QuantScale(const Tensor& t);

// Round-trips t through int8 quantization (quantize with QuantScale, then
// dequantize). Used by tests and accuracy validation to observe exactly the
// representation error the kInt8 path introduces per operand.
Tensor QuantizeDequantize(const Tensor& t);

// Elementwise c = a + b / a - b / a * b (same shapes).
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Transpose of a 2-D tensor.
Tensor Transpose2d(const Tensor& a);

// Fills with U(-bound, bound); used for Kaiming-uniform init.
void FillUniform(Tensor* t, common::Rng* rng, float bound);

// Fills with N(0, stddev).
void FillGaussian(Tensor* t, common::Rng* rng, float stddev);

// Row-wise softmax of a 2-D tensor {n, c}.
Tensor SoftmaxRows(const Tensor& logits);

// Concatenates 1-D tensors.
Tensor Concat1d(const std::vector<Tensor>& parts);

// Stacks equal-shaped tensors along a new leading axis: k x {s...} -> {k, s...}.
Tensor Stack(const std::vector<Tensor>& parts);

// Maximum absolute elementwise difference (for tests).
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace zeus::tensor

#endif  // ZEUS_TENSOR_TENSOR_OPS_H_
