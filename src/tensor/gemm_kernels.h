#ifndef ZEUS_TENSOR_GEMM_KERNELS_H_
#define ZEUS_TENSOR_GEMM_KERNELS_H_

// Internal interface between the Sgemm/QuantizedGemm drivers (gemm.cc) and
// the per-ISA micro-kernel translation units. Each tier lives in its own
// .cc file compiled with exactly that tier's -m flags (set per-source in
// CMakeLists.txt, overriding any global -march, including
// ZEUS_MARCH_NATIVE), so the binary always contains all tiers and the
// driver picks one via CPUID at runtime:
//
//   gemm_kernels_scalar.cc   -march=x86-64            4x16 tile, SSE2 codegen
//   gemm_kernels_avx2.cc     -march=x86-64 -mavx2 -mfma   4x16 tile, ymm FMA
//   gemm_kernels_avx512.cc   ... -mavx512f/bw/dq/vl   6x32 tile, zmm FMA
//
// The fp32 kernels share one templated implementation
// (gemm_kernels_common.h); the int8 kernels consume the k-pair-interleaved
// int16 packing produced by gemm.cc and differ only in the widening
// multiply-add (scalar loop / vpmaddwd ymm / vpmaddwd zmm). Integer
// accumulation is exact, so all three int8 tiers are bit-identical. The
// quantize primitives (max-abs scan, round+clamp of a contiguous run) also
// live in the table: they dominate int8 end-to-end cost for thin GEMMs, and
// every tier implements the identical value mapping (round-to-nearest-even
// times clamp is exact), so packed operands are tier-independent too.

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace zeus::tensor::internal {

// Int8 packing tile shape, shared by the packer (gemm.cc) and every tier's
// kernel: A panels hold kI8RowTile rows, B panels kI8ColTile columns, both
// k-pair interleaved (pair p2 of row r / column c stores elements 2*p2 and
// 2*p2+1 adjacently). A B-panel pair row is 16 columns x 2 int16 = one
// 64-byte cache line = one zmm load (or two ymm loads).
inline constexpr int kI8RowTile = 4;
inline constexpr int kI8ColTile = 16;

struct GemmKernels {
  // Blocked fp32 accumulation of C[i_begin:i_end, j_begin:j_end] +=
  // alpha*op(A)op(B); beta already applied by the driver. Same contract as
  // the pre-dispatch SgemmRange.
  using SgemmRangeFn = void (*)(bool trans_a, bool trans_b, int i_begin,
                                int i_end, int j_begin, int j_end, int k,
                                float alpha, const float* a, int lda,
                                const float* b, int ldb, float* c, int ldc,
                                const GemmBlocking& blk);
  // Int8 kernel over column-panel range [jp_begin, jp_end): for every
  // kI8RowTile-row panel of packed A and each B panel in range, accumulate
  // k_pairs widening multiply-adds in int32 and write row i of C as
  // row_scale[i] * acc (overwrite; row_scale has m entries). Edge
  // rows/columns are zero-padded in the packing and clipped at write-back.
  using I8GemmRangeFn = void (*)(int m, int n, int k_pairs, int jp_begin,
                                 int jp_end, const float* row_scale,
                                 const int16_t* pa, const int16_t* pb,
                                 float* c, int ldc);

  // max(|p[i]|) over a contiguous run. fp max is exact, so any lane order
  // gives the scalar answer.
  using MaxAbsFn = float (*)(const float* p, int count);
  // dst[i] = clamp(round-to-nearest-even(p[i] * inv), -127, 127) over a
  // contiguous run. Matches scalar lrintf under the default FP environment.
  using QuantizeFn = void (*)(const float* p, int count, float inv,
                              int16_t* dst);
  // Fused quantize + pack of one kI8ColTile-column B panel: reads columns
  // [0, cols) of the k x ldb row-major block starting at `b`, quantizes with
  // the same mapping as QuantizeFn, and writes ceil(k/2) consecutive
  // pair-interleaved rows of kI8ColTile*2 int16 at dst (contiguous — one
  // 64-byte line per pair row, so packing streams through dst while each
  // source line is read exactly once). Slots for columns >= cols and the
  // odd-k tail are zero-filled. This is the hot loop of QuantizePackB for
  // lowered convs.
  using I8PackPanelFn = void (*)(const float* b, size_t ldb, int k, int cols,
                                 float inv, int16_t* dst);

  SgemmRangeFn sgemm_range;
  I8GemmRangeFn i8gemm_range;
  MaxAbsFn maxabs;
  QuantizeFn quantize;
  I8PackPanelFn i8pack_panel;
  int mr;  // fp32 register-tile rows (parallel row chunks align to this)
  int nr;  // fp32 register-tile columns
  const char* name;
};

const GemmKernels& GemmKernelsScalar();
#if defined(__x86_64__)
const GemmKernels& GemmKernelsAvx2();
const GemmKernels& GemmKernelsAvx512();
#endif

// Kernel table for a concrete (already resolved, never kAuto) tier.
const GemmKernels& KernelsFor(GemmIsa isa);

}  // namespace zeus::tensor::internal

#endif  // ZEUS_TENSOR_GEMM_KERNELS_H_
