// AVX2 + FMA kernel tier. Compiled with -march=x86-64 -mavx2 -mfma
// (per-source flags in CMakeLists.txt), so the shared generic-vector 4x16
// micro-kernel lowers to broadcast-FMA chains on ymm and the int8 kernel
// uses vpmaddwd on ymm. Selected at runtime when the CPU reports AVX2+FMA
// but not the AVX-512 subset.

#if defined(__x86_64__)

#include <immintrin.h>

#include "tensor/gemm_kernels.h"
#include "tensor/gemm_kernels_common.h"

namespace zeus::tensor::internal {
namespace {

void SgemmRangeAvx2(bool trans_a, bool trans_b, int i_begin, int i_end,
                    int j_begin, int j_end, int k, float alpha, const float* a,
                    int lda, const float* b, int ldb, float* c, int ldc,
                    const GemmBlocking& blk) {
  SgemmRangeT<4, 16, MicroKernel4x16>(trans_a, trans_b, i_begin, i_end,
                                      j_begin, j_end, k, alpha, a, lda, b,
                                      ldb, c, ldc, blk);
}

// Int8 4x16 micro-tile: one B pair-row is 16 columns x 2 int16 = two ymm
// loads; each A row's k-pair broadcasts as a 32-bit lane and vpmaddwd
// accumulates both products of the pair into int32 — exactly the scalar
// reference arithmetic, so the result is bit-identical to it.
void I8GemmRangeAvx2(int m, int n, int k_pairs, int jp_begin, int jp_end,
                     const float* row_scale, const int16_t* pa,
                     const int16_t* pb, float* c, int ldc) {
  const int rpanels = (m + kI8RowTile - 1) / kI8RowTile;
  for (int jp = jp_begin; jp < jp_end; ++jp) {
    const int cols = std::min(kI8ColTile, n - jp * kI8ColTile);
    const int16_t* bpanel =
        pb + static_cast<size_t>(jp) * k_pairs * kI8ColTile * 2;
    for (int pr = 0; pr < rpanels; ++pr) {
      const int rows = std::min(kI8RowTile, m - pr * kI8RowTile);
      const int32_t* apanel = reinterpret_cast<const int32_t*>(
          pa + static_cast<size_t>(pr) * k_pairs * kI8RowTile * 2);
      __m256i acc00 = _mm256_setzero_si256(), acc01 = acc00;
      __m256i acc10 = acc00, acc11 = acc00;
      __m256i acc20 = acc00, acc21 = acc00;
      __m256i acc30 = acc00, acc31 = acc00;
      for (int p2 = 0; p2 < k_pairs; ++p2) {
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            bpanel + static_cast<size_t>(p2) * kI8ColTile * 2));
        const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            bpanel + static_cast<size_t>(p2) * kI8ColTile * 2 + 16));
        const int32_t* arow = apanel + static_cast<size_t>(p2) * kI8RowTile;
        __m256i va = _mm256_set1_epi32(arow[0]);
        acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(va, b0));
        acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(va, b1));
        va = _mm256_set1_epi32(arow[1]);
        acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(va, b0));
        acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(va, b1));
        va = _mm256_set1_epi32(arow[2]);
        acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(va, b0));
        acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(va, b1));
        va = _mm256_set1_epi32(arow[3]);
        acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(va, b0));
        acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(va, b1));
      }
      // Dequantize to a dense staging tile, then copy the valid region
      // (full tiles store straight through).
      alignas(32) float tmp[kI8RowTile][kI8ColTile];
      const __m256i* accs[kI8RowTile][2] = {{&acc00, &acc01},
                                            {&acc10, &acc11},
                                            {&acc20, &acc21},
                                            {&acc30, &acc31}};
      for (int r = 0; r < rows; ++r) {
        const __m256 vscale = _mm256_set1_ps(row_scale[pr * kI8RowTile + r]);
        _mm256_store_ps(&tmp[r][0],
                        _mm256_mul_ps(vscale, _mm256_cvtepi32_ps(*accs[r][0])));
        _mm256_store_ps(&tmp[r][8],
                        _mm256_mul_ps(vscale, _mm256_cvtepi32_ps(*accs[r][1])));
      }
      for (int r = 0; r < rows; ++r) {
        float* crow = c + static_cast<size_t>(pr * kI8RowTile + r) * ldc +
                      static_cast<size_t>(jp) * kI8ColTile;
        if (cols == kI8ColTile) {
          _mm256_storeu_ps(crow, _mm256_load_ps(&tmp[r][0]));
          _mm256_storeu_ps(crow + 8, _mm256_load_ps(&tmp[r][8]));
        } else {
          for (int col = 0; col < cols; ++col) crow[col] = tmp[r][col];
        }
      }
    }
  }
}

float MaxAbsAvx2(const float* p, int count) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 acc = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_and_ps(absmask, _mm256_loadu_ps(p + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float mx = 0.0f;
  for (float v : lanes) mx = std::max(mx, v);
  for (; i < count; ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

// vcvtps2dq rounds to nearest-even under the default MXCSR — the same
// mapping as scalar lrintf. |p[i] * inv| <= 127.5 by construction (inv =
// 127 / maxabs), so vpackssdw saturation never binds; the final ±127 clamp
// mirrors the scalar clamp exactly.
void QuantizeAvx2(const float* p, int count, float inv, int16_t* dst) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi16(-127);
  const __m256i hi = _mm256_set1_epi16(127);
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i a =
        _mm256_cvtps_epi32(_mm256_mul_ps(vinv, _mm256_loadu_ps(p + i)));
    const __m256i b =
        _mm256_cvtps_epi32(_mm256_mul_ps(vinv, _mm256_loadu_ps(p + i + 8)));
    // packs interleaves 128-bit halves; restore element order.
    __m256i packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0xd8);
    packed = _mm256_min_epi16(hi, _mm256_max_epi16(lo, packed));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  if (i < count) QuantizeScalar(p + i, count - i, inv, dst + i);
}

// Full-width panel packer: for each k-pair, quantizes both source rows in
// int32 lanes and fuses the int16 interleave for free — each int32 lane
// becomes the little-endian (r0, r1) pair via (q0 & 0xffff) | (q1 << 16) —
// writing the panel's 64-byte pair rows back to back. Edge panels
// (cols < 16) take the scalar path; there is at most one per matrix. Same
// value mapping as QuantizeAvx2.
void I8PackPanelAvx2(const float* b, size_t ldb, int k, int cols, float inv,
                     int16_t* dst) {
  if (cols != kI8ColTile) {
    I8PackPanelScalar(b, ldb, k, cols, inv, dst);
    return;
  }
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lomask = _mm256_set1_epi32(0xffff);
  const int k_pairs = (k + 1) / 2;
  for (int p2 = 0; p2 < k_pairs; ++p2) {
    const float* r0 = b + static_cast<size_t>(2 * p2) * ldb;
    const bool has_r1 = 2 * p2 + 1 < k;
    int16_t* out = dst + static_cast<size_t>(p2) * kI8ColTile * 2;
    for (int g = 0; g < 2; ++g) {
      const __m256i q0 = _mm256_min_epi32(
          hi, _mm256_max_epi32(lo, _mm256_cvtps_epi32(_mm256_mul_ps(
                                       vinv, _mm256_loadu_ps(r0 + 8 * g)))));
      __m256i pair = _mm256_and_si256(q0, lomask);
      if (has_r1) {
        const __m256i q1 = _mm256_min_epi32(
            hi, _mm256_max_epi32(lo, _mm256_cvtps_epi32(_mm256_mul_ps(
                                         vinv, _mm256_loadu_ps(r0 + ldb + 8 * g)))));
        pair = _mm256_or_si256(pair, _mm256_slli_epi32(q1, 16));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16 * g), pair);
    }
  }
}

}  // namespace

const GemmKernels& GemmKernelsAvx2() {
  static const GemmKernels kKernels = {&SgemmRangeAvx2,  &I8GemmRangeAvx2,
                                       &MaxAbsAvx2,      &QuantizeAvx2,
                                       &I8PackPanelAvx2, 4,
                                       16,               "avx2"};
  return kKernels;
}

}  // namespace zeus::tensor::internal

#endif  // defined(__x86_64__)
