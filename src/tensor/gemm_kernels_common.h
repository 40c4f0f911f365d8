#ifndef ZEUS_TENSOR_GEMM_KERNELS_COMMON_H_
#define ZEUS_TENSOR_GEMM_KERNELS_COMMON_H_

// Shared implementation for the per-ISA kernel translation units. Only the
// gemm_kernels_*.cc files include this header: everything here is a
// template or force-inlined, so each TU instantiates its own copy under
// its own -m flags and the codegen specializes to that tier (the scalar
// and AVX2 tiers share the generic-vector 4x16 micro-kernel and differ
// only in how the compiler lowers it; the AVX-512 tier supplies its own
// 6x32 kernel).
//
// Accumulation-order contract (what makes parallel chunking bit-exact
// within a tier): each C element is accumulated kc-panel by kc-panel, and
// within a panel in ascending k, regardless of the [i, j) range.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/gemm_kernels.h"

#define ZEUS_ALWAYS_INLINE inline __attribute__((always_inline))

namespace zeus::tensor::internal {

ZEUS_ALWAYS_INLINE float AElem(const float* a, int lda, bool trans, int i,
                               int p) {
  return trans ? a[static_cast<size_t>(p) * lda + i]
               : a[static_cast<size_t>(i) * lda + p];
}

ZEUS_ALWAYS_INLINE float BElem(const float* b, int ldb, bool trans, int p,
                               int j) {
  return trans ? b[static_cast<size_t>(j) * ldb + p]
               : b[static_cast<size_t>(p) * ldb + j];
}

// Packs A[i0 : i0+mb, p0 : p0+kb] (logical, transpose absorbed) into
// MR-row micro-panels laid out k-major: panel pr holds rows i0 + pr*MR ..,
// element (p, r) at out[pr*kb*MR + p*MR + r]. Rows past the edge are
// zero-filled so the micro-kernel never branches.
template <int MR>
ZEUS_ALWAYS_INLINE void PackA(const float* a, int lda, bool trans, int i0,
                              int mb, int p0, int kb, float* out) {
  const int panels = (mb + MR - 1) / MR;
  for (int pr = 0; pr < panels; ++pr) {
    const int rbase = i0 + pr * MR;
    const int rows = std::min(MR, i0 + mb - rbase);
    float* dst = out + static_cast<size_t>(pr) * kb * MR;
    for (int p = 0; p < kb; ++p) {
      for (int r = 0; r < MR; ++r) {
        dst[static_cast<size_t>(p) * MR + r] =
            r < rows ? AElem(a, lda, trans, rbase + r, p0 + p) : 0.0f;
      }
    }
  }
}

// Packs B[p0 : p0+kb, j0 : j0+nb] into NR-column micro-panels laid out
// k-major: element (p, c) of panel jp at out[jp*kb*NR + p*NR + c].
template <int NR>
ZEUS_ALWAYS_INLINE void PackB(const float* b, int ldb, bool trans, int p0,
                              int kb, int j0, int nb, float* out) {
  const int panels = (nb + NR - 1) / NR;
  for (int jp = 0; jp < panels; ++jp) {
    const int cbase = j0 + jp * NR;
    const int cols = std::min(NR, j0 + nb - cbase);
    float* dst = out + static_cast<size_t>(jp) * kb * NR;
    for (int p = 0; p < kb; ++p) {
      float* row = dst + static_cast<size_t>(p) * NR;
      if (!trans) {
        const float* src = b + static_cast<size_t>(p0 + p) * ldb + cbase;
        for (int c = 0; c < cols; ++c) row[c] = src[c];
      } else {
        for (int c = 0; c < cols; ++c) {
          row[c] = b[static_cast<size_t>(cbase + c) * ldb + (p0 + p)];
        }
      }
      for (int c = cols; c < NR; ++c) row[c] = 0.0f;
    }
  }
}

// C[0:rows, 0:cols] += alpha * sum_p ap[p] (outer) bp[p]. Accumulates the
// whole kb depth into registers, then writes back once.
// 8-lane float vector, alignment relaxed to allow unaligned loads from the
// packed panels. Maps to one ymm under -mavx2 and a pair of xmm at
// baseline. -Wpsabi warns that passing V8 by value differs between those
// ABIs; irrelevant here because every V8 helper is inlined.
#pragma GCC diagnostic ignored "-Wpsabi"
typedef float V8 __attribute__((vector_size(32), aligned(4)));

ZEUS_ALWAYS_INLINE V8 LoadV8(const float* p) {
  return *reinterpret_cast<const V8*>(p);
}

// The 4x16 micro-kernel shared by the scalar and AVX2 tiers.
ZEUS_ALWAYS_INLINE void MicroKernel4x16(int kb, float alpha, const float* ap,
                                        const float* bp, float* c, int ldc,
                                        int rows, int cols) {
  constexpr int MR = 4;
  constexpr int NR = 16;
  // 4 rows x 2 vectors of named accumulators: a fixed-shape register block
  // (arrays here spill to the stack; named variables do not).
  V8 c00 = {}, c01 = {}, c10 = {}, c11 = {};
  V8 c20 = {}, c21 = {}, c30 = {}, c31 = {};
  for (int p = 0; p < kb; ++p) {
    const float* av = ap + static_cast<size_t>(p) * MR;
    const float* bv = bp + static_cast<size_t>(p) * NR;
    const V8 b0 = LoadV8(bv);
    const V8 b1 = LoadV8(bv + 8);
    V8 a = av[0] + (V8){};  // vbroadcastss
    c00 += a * b0;
    c01 += a * b1;
    a = av[1] + (V8){};
    c10 += a * b0;
    c11 += a * b1;
    a = av[2] + (V8){};
    c20 += a * b0;
    c21 += a * b1;
    a = av[3] + (V8){};
    c30 += a * b0;
    c31 += a * b1;
  }
  const V8 va = alpha + (V8){};
  if (rows == MR && cols == NR) {
    float* r0 = c;
    float* r1 = c + ldc;
    float* r2 = c + 2 * static_cast<size_t>(ldc);
    float* r3 = c + 3 * static_cast<size_t>(ldc);
    *reinterpret_cast<V8*>(r0) += va * c00;
    *reinterpret_cast<V8*>(r0 + 8) += va * c01;
    *reinterpret_cast<V8*>(r1) += va * c10;
    *reinterpret_cast<V8*>(r1 + 8) += va * c11;
    *reinterpret_cast<V8*>(r2) += va * c20;
    *reinterpret_cast<V8*>(r2 + 8) += va * c21;
    *reinterpret_cast<V8*>(r3) += va * c30;
    *reinterpret_cast<V8*>(r3 + 8) += va * c31;
    return;
  }
  // Edge tile: stage through a dense buffer, copy the valid region.
  float tmp[MR][NR];
  *reinterpret_cast<V8*>(&tmp[0][0]) = c00;
  *reinterpret_cast<V8*>(&tmp[0][8]) = c01;
  *reinterpret_cast<V8*>(&tmp[1][0]) = c10;
  *reinterpret_cast<V8*>(&tmp[1][8]) = c11;
  *reinterpret_cast<V8*>(&tmp[2][0]) = c20;
  *reinterpret_cast<V8*>(&tmp[2][8]) = c21;
  *reinterpret_cast<V8*>(&tmp[3][0]) = c30;
  *reinterpret_cast<V8*>(&tmp[3][8]) = c31;
  for (int r = 0; r < rows; ++r) {
    float* crow = c + static_cast<size_t>(r) * ldc;
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tmp[r][j];
  }
}

// Blocked accumulation C[i_begin:i_end, j_begin:j_end] += alpha*op(A)op(B)
// (beta already applied by the driver), register-tiled MR x NR with
// micro-kernel Kern.
template <int MR, int NR,
          void (*Kern)(int, float, const float*, const float*, float*, int,
                       int, int)>
void SgemmRangeT(bool trans_a, bool trans_b, int i_begin, int i_end,
                 int j_begin, int j_end, int k, float alpha, const float* a,
                 int lda, const float* b, int ldb, float* c, int ldc,
                 const GemmBlocking& blk) {
  const int mc = std::max((blk.mc + MR - 1) / MR * MR, MR);
  const int kc = std::max(blk.kc, 1);
  const int nc = std::max((blk.nc + NR - 1) / NR * NR, NR);
  // Buffers sized to the work actually packed (a small-k conv GEMM needs a
  // few KB, not the full kc*nc block budget).
  const int kb_max = std::min(kc, k);
  const int mb_max = std::min(mc, i_end - i_begin);
  const int nb_max = std::min(nc, j_end - j_begin);
  std::vector<float> packa(static_cast<size_t>((mb_max + MR - 1) / MR) * MR *
                           kb_max);
  std::vector<float> packb(static_cast<size_t>((nb_max + NR - 1) / NR) * NR *
                           kb_max);
  for (int j0 = j_begin; j0 < j_end; j0 += nc) {
    const int nb = std::min(nc, j_end - j0);
    for (int p0 = 0; p0 < k; p0 += kc) {
      const int kb = std::min(kc, k - p0);
      PackB<NR>(b, ldb, trans_b, p0, kb, j0, nb, packb.data());
      for (int i0 = i_begin; i0 < i_end; i0 += mc) {
        const int mb = std::min(mc, i_end - i0);
        PackA<MR>(a, lda, trans_a, i0, mb, p0, kb, packa.data());
        const int rpanels = (mb + MR - 1) / MR;
        const int cpanels = (nb + NR - 1) / NR;
        for (int jp = 0; jp < cpanels; ++jp) {
          const int cols = std::min(NR, nb - jp * NR);
          const float* bp = packb.data() + static_cast<size_t>(jp) * kb * NR;
          for (int pr = 0; pr < rpanels; ++pr) {
            const int rows = std::min(MR, mb - pr * MR);
            Kern(kb, alpha, packa.data() + static_cast<size_t>(pr) * kb * MR,
                 bp,
                 c + static_cast<size_t>(i0 + pr * MR) * ldc + j0 + jp * NR,
                 ldc, rows, cols);
          }
        }
      }
    }
  }
}

// Portable int8 range kernel (the scalar tier; also documents the exact
// arithmetic the SIMD tiers must reproduce). Packed layouts, per
// gemm_kernels.h: A panel pr, pair p2, row r => pa[((pr*k_pairs + p2) *
// kI8RowTile + r) * 2 + {0,1}]; B panel jp, pair p2, column c =>
// pb[((jp*k_pairs + p2) * kI8ColTile + c) * 2 + {0,1}]. All products and
// pair sums are exact in int32, so any accumulation order gives the same
// bits; row i of C is overwritten with row_scale[i] * acc.
inline void I8GemmRangeScalar(int m, int n, int k_pairs, int jp_begin,
                              int jp_end, const float* row_scale,
                              const int16_t* pa, const int16_t* pb, float* c,
                              int ldc) {
  const int rpanels = (m + kI8RowTile - 1) / kI8RowTile;
  for (int jp = jp_begin; jp < jp_end; ++jp) {
    const int cols = std::min(kI8ColTile, n - jp * kI8ColTile);
    const int16_t* bpanel =
        pb + static_cast<size_t>(jp) * k_pairs * kI8ColTile * 2;
    for (int pr = 0; pr < rpanels; ++pr) {
      const int rows = std::min(kI8RowTile, m - pr * kI8RowTile);
      const int16_t* apanel =
          pa + static_cast<size_t>(pr) * k_pairs * kI8RowTile * 2;
      int32_t acc[kI8RowTile][kI8ColTile] = {};
      for (int p2 = 0; p2 < k_pairs; ++p2) {
        const int16_t* arow =
            apanel + static_cast<size_t>(p2) * kI8RowTile * 2;
        const int16_t* brow =
            bpanel + static_cast<size_t>(p2) * kI8ColTile * 2;
        for (int r = 0; r < kI8RowTile; ++r) {
          const int32_t a0 = arow[r * 2];
          const int32_t a1 = arow[r * 2 + 1];
          for (int col = 0; col < kI8ColTile; ++col) {
            acc[r][col] += a0 * brow[col * 2] + a1 * brow[col * 2 + 1];
          }
        }
      }
      for (int r = 0; r < rows; ++r) {
        float* crow =
            c + static_cast<size_t>(pr * kI8RowTile + r) * ldc +
            static_cast<size_t>(jp) * kI8ColTile;
        const float scale = row_scale[pr * kI8RowTile + r];
        for (int col = 0; col < cols; ++col) {
          crow[col] = scale * static_cast<float>(acc[r][col]);
        }
      }
    }
  }
}

// Scalar quantize primitives: the value contract every SIMD override must
// hit exactly. Under -mavx2/-mavx512f the compiler auto-vectorizes these
// loops, but the AVX tiers still supply intrinsic versions — gcc keeps
// lrintf as a libm call at -O2/-O3 (math-errno), which is what makes the
// scalar path slow.
inline float MaxAbsScalar(const float* p, int count) {
  float mx = 0.0f;
  for (int i = 0; i < count; ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

ZEUS_ALWAYS_INLINE int16_t QuantizeOne(float x, float inv) {
  const long q = std::lrintf(x * inv);
  return static_cast<int16_t>(std::min(127L, std::max(-127L, q)));
}

inline void QuantizeScalar(const float* p, int count, float inv,
                           int16_t* dst) {
  for (int i = 0; i < count; ++i) dst[i] = QuantizeOne(p[i], inv);
}

inline void I8PackPanelScalar(const float* b, size_t ldb, int k, int cols,
                              float inv, int16_t* dst) {
  const int k_pairs = (k + 1) / 2;
  for (int p2 = 0; p2 < k_pairs; ++p2) {
    const float* r0 = b + static_cast<size_t>(2 * p2) * ldb;
    const float* r1 = 2 * p2 + 1 < k ? r0 + ldb : nullptr;
    int16_t* out = dst + static_cast<size_t>(p2) * kI8ColTile * 2;
    for (int c = 0; c < kI8ColTile; ++c) {
      out[2 * c] = c < cols ? QuantizeOne(r0[c], inv) : static_cast<int16_t>(0);
      out[2 * c + 1] = (r1 != nullptr && c < cols) ? QuantizeOne(r1[c], inv)
                                                   : static_cast<int16_t>(0);
    }
  }
}

}  // namespace zeus::tensor::internal

#endif  // ZEUS_TENSOR_GEMM_KERNELS_COMMON_H_
