// AVX-512 kernel tier. Compiled with -march=x86-64 -mavx512f -mavx512bw
// -mavx512dq -mavx512vl -mfma (per-source flags in CMakeLists.txt).
// Selected at runtime when the CPU reports AVX512F+BW+VL.
//
// fp32 register tile: 6x32 — 12 zmm accumulators (6 rows x 2 vectors of 16
// lanes) plus one broadcast and two B-row registers, comfortably inside
// the 32-register zmm file, with 50% more rows amortizing each B load than
// the AVX2 4x16 tile. The int8 kernel keeps the shared 4x16 packing tile
// (one B pair-row = one 64-byte zmm load) so all tiers consume identical
// packed operands and stay bit-identical.

#if defined(__x86_64__)

#include <immintrin.h>

#include "tensor/gemm_kernels.h"
#include "tensor/gemm_kernels_common.h"

namespace zeus::tensor::internal {
namespace {

typedef float V16 __attribute__((vector_size(64), aligned(4)));

ZEUS_ALWAYS_INLINE V16 LoadV16(const float* p) {
  return *reinterpret_cast<const V16*>(p);
}

void MicroKernel6x32(int kb, float alpha, const float* ap, const float* bp,
                     float* c, int ldc, int rows, int cols) {
  constexpr int MR = 6;
  constexpr int NR = 32;
  V16 c00 = {}, c01 = {}, c10 = {}, c11 = {}, c20 = {}, c21 = {};
  V16 c30 = {}, c31 = {}, c40 = {}, c41 = {}, c50 = {}, c51 = {};
  for (int p = 0; p < kb; ++p) {
    const float* av = ap + static_cast<size_t>(p) * MR;
    const float* bv = bp + static_cast<size_t>(p) * NR;
    const V16 b0 = LoadV16(bv);
    const V16 b1 = LoadV16(bv + 16);
    V16 a = av[0] + (V16){};  // vbroadcastss zmm
    c00 += a * b0;
    c01 += a * b1;
    a = av[1] + (V16){};
    c10 += a * b0;
    c11 += a * b1;
    a = av[2] + (V16){};
    c20 += a * b0;
    c21 += a * b1;
    a = av[3] + (V16){};
    c30 += a * b0;
    c31 += a * b1;
    a = av[4] + (V16){};
    c40 += a * b0;
    c41 += a * b1;
    a = av[5] + (V16){};
    c50 += a * b0;
    c51 += a * b1;
  }
  const V16 va = alpha + (V16){};
  if (rows == MR && cols == NR) {
    float* r0 = c;
    float* r1 = c + ldc;
    float* r2 = c + 2 * static_cast<size_t>(ldc);
    float* r3 = c + 3 * static_cast<size_t>(ldc);
    float* r4 = c + 4 * static_cast<size_t>(ldc);
    float* r5 = c + 5 * static_cast<size_t>(ldc);
    *reinterpret_cast<V16*>(r0) += va * c00;
    *reinterpret_cast<V16*>(r0 + 16) += va * c01;
    *reinterpret_cast<V16*>(r1) += va * c10;
    *reinterpret_cast<V16*>(r1 + 16) += va * c11;
    *reinterpret_cast<V16*>(r2) += va * c20;
    *reinterpret_cast<V16*>(r2 + 16) += va * c21;
    *reinterpret_cast<V16*>(r3) += va * c30;
    *reinterpret_cast<V16*>(r3 + 16) += va * c31;
    *reinterpret_cast<V16*>(r4) += va * c40;
    *reinterpret_cast<V16*>(r4 + 16) += va * c41;
    *reinterpret_cast<V16*>(r5) += va * c50;
    *reinterpret_cast<V16*>(r5 + 16) += va * c51;
    return;
  }
  // Edge tile: stage through a dense buffer, copy the valid region.
  float tmp[MR][NR];
  *reinterpret_cast<V16*>(&tmp[0][0]) = c00;
  *reinterpret_cast<V16*>(&tmp[0][16]) = c01;
  *reinterpret_cast<V16*>(&tmp[1][0]) = c10;
  *reinterpret_cast<V16*>(&tmp[1][16]) = c11;
  *reinterpret_cast<V16*>(&tmp[2][0]) = c20;
  *reinterpret_cast<V16*>(&tmp[2][16]) = c21;
  *reinterpret_cast<V16*>(&tmp[3][0]) = c30;
  *reinterpret_cast<V16*>(&tmp[3][16]) = c31;
  *reinterpret_cast<V16*>(&tmp[4][0]) = c40;
  *reinterpret_cast<V16*>(&tmp[4][16]) = c41;
  *reinterpret_cast<V16*>(&tmp[5][0]) = c50;
  *reinterpret_cast<V16*>(&tmp[5][16]) = c51;
  for (int r = 0; r < rows; ++r) {
    float* crow = c + static_cast<size_t>(r) * ldc;
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tmp[r][j];
  }
}

void SgemmRangeAvx512(bool trans_a, bool trans_b, int i_begin, int i_end,
                      int j_begin, int j_end, int k, float alpha,
                      const float* a, int lda, const float* b, int ldb,
                      float* c, int ldc, const GemmBlocking& blk) {
  SgemmRangeT<6, 32, MicroKernel6x32>(trans_a, trans_b, i_begin, i_end,
                                      j_begin, j_end, k, alpha, a, lda, b,
                                      ldb, c, ldc, blk);
}

// Int8 4x16 micro-tile on zmm: one B pair-row is exactly one 64-byte zmm
// load; vpmaddwd accumulates each A row's broadcast k-pair — the same
// exact integer arithmetic as the scalar reference, so bit-identical.
void I8GemmRangeAvx512(int m, int n, int k_pairs, int jp_begin, int jp_end,
                       const float* row_scale, const int16_t* pa,
                       const int16_t* pb, float* c, int ldc) {
  const int rpanels = (m + kI8RowTile - 1) / kI8RowTile;
  for (int jp = jp_begin; jp < jp_end; ++jp) {
    const int cols = std::min(kI8ColTile, n - jp * kI8ColTile);
    const int16_t* bpanel =
        pb + static_cast<size_t>(jp) * k_pairs * kI8ColTile * 2;
    const __mmask16 mask =
        cols == kI8ColTile ? static_cast<__mmask16>(0xffff)
                           : static_cast<__mmask16>((1u << cols) - 1);
    for (int pr = 0; pr < rpanels; ++pr) {
      const int rows = std::min(kI8RowTile, m - pr * kI8RowTile);
      const int32_t* apanel = reinterpret_cast<const int32_t*>(
          pa + static_cast<size_t>(pr) * k_pairs * kI8RowTile * 2);
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = acc0, acc2 = acc0, acc3 = acc0;
      for (int p2 = 0; p2 < k_pairs; ++p2) {
        const __m512i bvec = _mm512_loadu_si512(
            bpanel + static_cast<size_t>(p2) * kI8ColTile * 2);
        const int32_t* arow = apanel + static_cast<size_t>(p2) * kI8RowTile;
        acc0 = _mm512_add_epi32(
            acc0, _mm512_madd_epi16(_mm512_set1_epi32(arow[0]), bvec));
        acc1 = _mm512_add_epi32(
            acc1, _mm512_madd_epi16(_mm512_set1_epi32(arow[1]), bvec));
        acc2 = _mm512_add_epi32(
            acc2, _mm512_madd_epi16(_mm512_set1_epi32(arow[2]), bvec));
        acc3 = _mm512_add_epi32(
            acc3, _mm512_madd_epi16(_mm512_set1_epi32(arow[3]), bvec));
      }
      const __m512i* accs[kI8RowTile] = {&acc0, &acc1, &acc2, &acc3};
      for (int r = 0; r < rows; ++r) {
        float* crow = c + static_cast<size_t>(pr * kI8RowTile + r) * ldc +
                      static_cast<size_t>(jp) * kI8ColTile;
        const __m512 vscale = _mm512_set1_ps(row_scale[pr * kI8RowTile + r]);
        _mm512_mask_storeu_ps(
            crow, mask,
            _mm512_mul_ps(vscale, _mm512_cvtepi32_ps(*accs[r])));
      }
    }
  }
}

float MaxAbsAvx512(const float* p, int count) {
  __m512 acc = _mm512_setzero_ps();
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    acc = _mm512_max_ps(acc, _mm512_abs_ps(_mm512_loadu_ps(p + i)));
  }
  float mx = _mm512_reduce_max_ps(acc);
  for (; i < count; ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

// vcvtps2dq rounds to nearest-even under the default MXCSR — the same
// mapping as scalar lrintf. vpmovsdw saturates int32 -> int16, which never
// binds (|p[i] * inv| <= 127.5 by construction); the final ±127 clamp
// mirrors the scalar clamp exactly.
void QuantizeAvx512(const float* p, int count, float inv, int16_t* dst) {
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi16(-127);
  const __m256i hi = _mm256_set1_epi16(127);
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i q =
        _mm512_cvtps_epi32(_mm512_mul_ps(vinv, _mm512_loadu_ps(p + i)));
    __m256i packed = _mm512_cvtsepi32_epi16(q);
    packed = _mm256_min_epi16(hi, _mm256_max_epi16(lo, packed));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  if (i < count) QuantizeScalar(p + i, count - i, inv, dst + i);
}

// Full-width panel packer: for each k-pair, quantizes both source rows in
// int32 lanes and fuses the int16 interleave for free — each int32 lane
// becomes the little-endian (r0, r1) pair via (q0 & 0xffff) | (q1 << 16) —
// so one pair row is exactly one zmm store, and the panel's pair rows land
// back to back (the packer streams through dst while each source line is
// read once). Masked-zero loads cover the cols < 16 edge panel: invalid
// lanes quantize to the required zero fill. Same value mapping as
// QuantizeAvx512.
void I8PackPanelAvx512(const float* b, size_t ldb, int k, int cols, float inv,
                       int16_t* dst) {
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  const __m512i lomask = _mm512_set1_epi32(0xffff);
  const __mmask16 mask =
      cols == kI8ColTile ? static_cast<__mmask16>(0xffff)
                         : static_cast<__mmask16>((1u << cols) - 1);
  const int k_pairs = (k + 1) / 2;
  for (int p2 = 0; p2 < k_pairs; ++p2) {
    const float* r0 = b + static_cast<size_t>(2 * p2) * ldb;
    const __m512i q0 = _mm512_min_epi32(
        hi, _mm512_max_epi32(lo, _mm512_cvtps_epi32(_mm512_mul_ps(
                                     vinv, _mm512_maskz_loadu_ps(mask, r0)))));
    __m512i pair = _mm512_and_si512(q0, lomask);
    if (2 * p2 + 1 < k) {
      const __m512i q1 = _mm512_min_epi32(
          hi,
          _mm512_max_epi32(lo, _mm512_cvtps_epi32(_mm512_mul_ps(
                                   vinv, _mm512_maskz_loadu_ps(mask, r0 + ldb)))));
      pair = _mm512_or_si512(pair, _mm512_slli_epi32(q1, 16));
    }
    _mm512_storeu_si512(dst + static_cast<size_t>(p2) * kI8ColTile * 2, pair);
  }
}

}  // namespace

const GemmKernels& GemmKernelsAvx512() {
  static const GemmKernels kKernels = {&SgemmRangeAvx512,   &I8GemmRangeAvx512,
                                       &MaxAbsAvx512,       &QuantizeAvx512,
                                       &I8PackPanelAvx512,  6,
                                       32,                  "avx512"};
  return kKernels;
}

}  // namespace zeus::tensor::internal

#endif  // defined(__x86_64__)
