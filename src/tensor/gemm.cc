#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

// This TU is the ISA-independent driver: runtime tier detection, the
// ZEUS_COMPUTE_PATH override, beta pre-pass, thread partitioning, and the
// int8 quantize+pack. The micro-kernels live in gemm_kernels_*.cc, one
// translation unit per tier with per-source -m flags (see gemm_kernels.h);
// nothing here may depend on how *this* file was compiled.

namespace zeus::tensor {
namespace {

using internal::GemmKernels;
using internal::kI8ColTile;
using internal::kI8RowTile;
using internal::KernelsFor;

// Below this many multiply-adds the pool dispatch overhead dominates; run
// serial. Path choice depends only on the problem shape, never on the
// thread count, so results stay bit-identical across pool sizes.
constexpr size_t kMinParallelMacs = 1 << 15;

}  // namespace

namespace internal {

const GemmKernels& KernelsFor(GemmIsa isa) {
#if defined(__x86_64__)
  switch (isa) {
    case GemmIsa::kAvx512:
      return GemmKernelsAvx512();
    case GemmIsa::kAvx2:
      return GemmKernelsAvx2();
    default:
      return GemmKernelsScalar();
  }
#else
  (void)isa;
  return GemmKernelsScalar();
#endif
}

}  // namespace internal

GemmIsa DetectGemmIsa() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const GemmIsa detected = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      return GemmIsa::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return GemmIsa::kAvx2;
    }
    return GemmIsa::kScalar;
  }();
  return detected;
#else
  return GemmIsa::kScalar;
#endif
}

GemmIsa ResolveGemmIsa(GemmIsa req) {
  const GemmIsa best = DetectGemmIsa();
  if (req == GemmIsa::kAuto || req == best || req == GemmIsa::kScalar) {
    return req == GemmIsa::kAuto ? best : req;
  }
  if (req == GemmIsa::kAvx2 && best == GemmIsa::kAvx512) return req;
  // Forced tier above what the CPU supports: clamp down, warn once.
  static const bool warned = [&] {
    ZEUS_LOG(Warning) << "gemm: requested ISA tier " << GemmIsaName(req)
                      << " unsupported on this CPU, using "
                      << GemmIsaName(best);
    return true;
  }();
  (void)warned;
  return best;
}

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAuto:
      return "auto";
    case GemmIsa::kScalar:
      return "scalar";
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseComputePath(const char* s, ComputePath* path, GemmIsa* isa) {
  if (s == nullptr) return false;
  const std::string v(s);
  if (v == "reference") {
    *path = ComputePath::kReference;
    *isa = GemmIsa::kAuto;
  } else if (v == "int8") {
    *path = ComputePath::kInt8;
    *isa = GemmIsa::kAuto;
  } else if (v == "scalar") {
    *path = ComputePath::kGemm;
    *isa = GemmIsa::kScalar;
  } else if (v == "avx2") {
    *path = ComputePath::kGemm;
    *isa = GemmIsa::kAvx2;
  } else if (v == "avx512") {
    *path = ComputePath::kGemm;
    *isa = GemmIsa::kAvx512;
  } else {
    return false;
  }
  return true;
}

common::ThreadPool* DefaultComputePool() {
  static common::ThreadPool* pool = []() -> common::ThreadPool* {
    int threads = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* env = std::getenv("ZEUS_NUM_THREADS")) {
      threads = std::atoi(env);
    }
    if (threads <= 1) return nullptr;
    // Leaked intentionally: workers must outlive every static object that
    // might run compute during its destructor; the OS reclaims the threads.
    return new common::ThreadPool(threads);
  }();
  return pool;
}

ComputeContext& GlobalComputeContext() {
  static ComputeContext ctx = [] {
    ComputeContext c;
    c.pool = DefaultComputePool();
    if (const char* env = std::getenv("ZEUS_COMPUTE_PATH")) {
      if (!ParseComputePath(env, &c.path, &c.isa)) {
        ZEUS_LOG(Warning) << "ZEUS_COMPUTE_PATH=" << env
                          << " not understood (want reference|scalar|avx2|"
                             "avx512|int8), ignoring";
      } else {
        ZEUS_LOG(Info) << "compute path forced by ZEUS_COMPUTE_PATH: path="
                       << (c.path == ComputePath::kReference ? "reference"
                           : c.path == ComputePath::kInt8    ? "int8"
                                                             : "gemm")
                       << " isa=" << GemmIsaName(c.isa);
      }
    }
    return c;
  }();
  return ctx;
}

const ComputeContext& EffectiveContext(const ComputeContext* ctx) {
  return ctx != nullptr ? *ctx : GlobalComputeContext();
}

void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, const ComputeContext* ctx) {
  if (m <= 0 || n <= 0) return;
  ZEUS_CHECK(c != nullptr && ldc >= n);
  const ComputeContext& cc = EffectiveContext(ctx);

  // beta pass first, exactly once, so the blocked accumulation below is a
  // pure +=.
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i) {
      std::memset(c + static_cast<size_t>(i) * ldc, 0, sizeof(float) * n);
    }
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* row = c + static_cast<size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  if (k <= 0 || alpha == 0.0f) return;
  ZEUS_CHECK(a != nullptr && b != nullptr);
  ZEUS_CHECK(lda >= (trans_a ? m : k) && ldb >= (trans_b ? k : n));

  const GemmKernels& kern = KernelsFor(ResolveGemmIsa(cc.isa));
  common::ThreadPool* pool = cc.pool;
  const size_t macs = static_cast<size_t>(m) * n * k;
  const int threads = pool != nullptr ? pool->num_threads() : 1;
  if (threads <= 1 || macs < kMinParallelMacs ||
      common::ThreadPool::InWorkerThread()) {
    kern.sgemm_range(trans_a, trans_b, 0, m, 0, n, k, alpha, a, lda, b, ldb,
                     c, ldc, cc.blocking);
    return;
  }

  // Partition the larger C dimension into one contiguous chunk per thread,
  // aligned to the tier's register tile. Each chunk owns a disjoint region
  // of C and runs the identical accumulation order, so the split is
  // bit-exact.
  const bool split_rows = m >= n;
  const int dim = split_rows ? m : n;
  const int tile = split_rows ? kern.mr : kern.nr;
  int chunks = std::min(threads, (dim + tile - 1) / tile);
  const int per = ((dim + chunks - 1) / chunks + tile - 1) / tile * tile;
  chunks = (dim + per - 1) / per;
  common::ParallelFor(pool, chunks, [&](int idx) {
    const int lo = idx * per;
    const int hi = std::min(dim, lo + per);
    if (split_rows) {
      kern.sgemm_range(trans_a, trans_b, lo, hi, 0, n, k, alpha, a, lda, b,
                       ldb, c, ldc, cc.blocking);
    } else {
      kern.sgemm_range(trans_a, trans_b, 0, m, lo, hi, k, alpha, a, lda, b,
                       ldb, c, ldc, cc.blocking);
    }
  });
}

// ---- Int8 quantize + pack --------------------------------------------------

// Both packers run in two passes over contiguous runs — a max-abs scan,
// then round+clamp into a dense int16 row — through the resolved tier's
// SIMD primitives, with a cheap int16 shuffle into the pair-interleaved
// panel layout. The quantize step is the dominant cost of the int8 path
// for thin GEMMs (m of a lowered conv is just the channel count), so it
// must not run one libm lrintf per element.

void QuantizePackA(const float* a, int lda, int m, int k, Int8Panels* out,
                   const ComputeContext* ctx, bool per_row_scale) {
  ZEUS_CHECK(a != nullptr && m >= 0 && k >= 0 && lda >= k);
  const GemmKernels& kern =
      KernelsFor(ResolveGemmIsa(EffectiveContext(ctx).isa));
  std::vector<float> row_max(static_cast<size_t>(m));
  float maxabs = 0.0f;
  for (int r = 0; r < m; ++r) {
    row_max[static_cast<size_t>(r)] =
        kern.maxabs(a + static_cast<size_t>(r) * lda, k);
    maxabs = std::max(maxabs, row_max[static_cast<size_t>(r)]);
  }
  out->scale = maxabs / 127.0f;
  out->row_scales.clear();
  if (per_row_scale) {
    out->row_scales.resize(static_cast<size_t>(m));
    for (int r = 0; r < m; ++r) {
      out->row_scales[static_cast<size_t>(r)] =
          row_max[static_cast<size_t>(r)] / 127.0f;
    }
  }
  out->rows = m;
  out->cols = k;
  out->k_pairs = (k + 1) / 2;
  const int rpanels = (m + kI8RowTile - 1) / kI8RowTile;
  out->data.assign(static_cast<size_t>(rpanels) * out->k_pairs * kI8RowTile *
                       2,
                   0);
  std::vector<int16_t> qrow(k);
  int16_t* dst = out->data.data();
  for (int row = 0; row < m; ++row) {
    const float mx = per_row_scale ? row_max[static_cast<size_t>(row)] : maxabs;
    const float inv = mx > 0.0f ? 127.0f / mx : 0.0f;
    kern.quantize(a + static_cast<size_t>(row) * lda, k, inv, qrow.data());
    const int pr = row / kI8RowTile;
    const int r = row % kI8RowTile;
    int16_t* panel =
        dst + (static_cast<size_t>(pr) * out->k_pairs * kI8RowTile + r) * 2;
    for (int p2 = 0; p2 < out->k_pairs; ++p2) {
      panel[static_cast<size_t>(p2) * kI8RowTile * 2] = qrow[2 * p2];
      if (2 * p2 + 1 < k) {
        panel[static_cast<size_t>(p2) * kI8RowTile * 2 + 1] = qrow[2 * p2 + 1];
      }
    }
  }
}

void QuantizePackB(const float* b, int ldb, bool trans_b, int k, int n,
                   Int8Panels* out, const ComputeContext* ctx) {
  ZEUS_CHECK(b != nullptr && k >= 0 && n >= 0);
  ZEUS_CHECK(ldb >= (trans_b ? k : n));
  const GemmKernels& kern =
      KernelsFor(ResolveGemmIsa(EffectiveContext(ctx).isa));
  // op(B) rows are length-n strided when !trans_b; op(B) columns are
  // length-k contiguous rows of the stored matrix when trans_b. Either way
  // the scan and quantize run over contiguous memory.
  const int nruns = trans_b ? n : k;
  const int runlen = trans_b ? k : n;
  float maxabs = 0.0f;
  for (int r = 0; r < nruns; ++r) {
    maxabs = std::max(maxabs,
                      kern.maxabs(b + static_cast<size_t>(r) * ldb, runlen));
  }
  out->scale = maxabs / 127.0f;
  const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
  out->rows = k;
  out->cols = n;
  out->k_pairs = (k + 1) / 2;
  const int jpanels = (n + kI8ColTile - 1) / kI8ColTile;
  const size_t total =
      static_cast<size_t>(jpanels) * out->k_pairs * kI8ColTile * 2;
  if (trans_b) {
    out->data.assign(total, 0);
  } else {
    // The panel packer writes every slot (including padding), so a reused
    // buffer only needs the right size — skip the O(total) zero fill.
    out->data.resize(total);
  }
  int16_t* dst = out->data.data();
  if (trans_b) {
    // One stored row = one op(B) column: quantize it, then spread its
    // k-pairs down the column's slot in each pair row.
    std::vector<int16_t> qcol(k);
    for (int col = 0; col < n; ++col) {
      kern.quantize(b + static_cast<size_t>(col) * ldb, k, inv, qcol.data());
      const int jp = col / kI8ColTile;
      const int c = col % kI8ColTile;
      int16_t* panel =
          dst +
          (static_cast<size_t>(jp) * out->k_pairs * kI8ColTile + c) * 2;
      for (int p2 = 0; p2 < out->k_pairs; ++p2) {
        panel[static_cast<size_t>(p2) * kI8ColTile * 2] = qcol[2 * p2];
        if (2 * p2 + 1 < k) {
          panel[static_cast<size_t>(p2) * kI8ColTile * 2 + 1] =
              qcol[2 * p2 + 1];
        }
      }
    }
  } else {
    // Fused quantize + pair interleave, one 16-column panel at a time:
    // writes stream through dst and each source cache line is read exactly
    // once (a k-pair-outer loop would re-touch the whole panel buffer per
    // pair and thrash for lowered-conv sizes).
    for (int jp = 0; jp < jpanels; ++jp) {
      const int cols = std::min(kI8ColTile, n - jp * kI8ColTile);
      kern.i8pack_panel(b + static_cast<size_t>(jp) * kI8ColTile, ldb, k, cols,
                        inv,
                        dst + static_cast<size_t>(jp) * out->k_pairs *
                                  kI8ColTile * 2);
    }
  }
}

void QuantizedGemm(int m, int n, int k, const Int8Panels& a,
                   const Int8Panels& b, float* c, int ldc,
                   const ComputeContext* ctx) {
  if (m <= 0 || n <= 0) return;
  ZEUS_CHECK(c != nullptr && ldc >= n);
  ZEUS_CHECK(a.rows == m && a.cols == k && b.rows == k && b.cols == n);
  ZEUS_CHECK(a.k_pairs == b.k_pairs);
  ZEUS_CHECK(a.row_scales.empty() ||
             a.row_scales.size() == static_cast<size_t>(m));
  const ComputeContext& cc = EffectiveContext(ctx);
  const GemmKernels& kern = KernelsFor(ResolveGemmIsa(cc.isa));
  // One dequant factor per C row: a per-tensor A repeats a.scale * b.scale.
  std::vector<float> row_scale(static_cast<size_t>(m), a.scale * b.scale);
  for (size_t i = 0; i < a.row_scales.size(); ++i) {
    row_scale[i] = a.row_scales[i] * b.scale;
  }
  const int jpanels = (n + kI8ColTile - 1) / kI8ColTile;

  common::ThreadPool* pool = cc.pool;
  const size_t macs = static_cast<size_t>(m) * n * k;
  const int threads = pool != nullptr ? pool->num_threads() : 1;
  if (threads <= 1 || macs < kMinParallelMacs ||
      common::ThreadPool::InWorkerThread()) {
    kern.i8gemm_range(m, n, a.k_pairs, 0, jpanels, row_scale.data(),
                      a.data.data(), b.data.data(), c, ldc);
    return;
  }
  // Contiguous column-panel chunks; integer accumulation is exact, so any
  // chunking is trivially bit-identical (and identical across tiers).
  int chunks = std::min(threads, jpanels);
  const int per = (jpanels + chunks - 1) / chunks;
  chunks = (jpanels + per - 1) / per;
  common::ParallelFor(pool, chunks, [&](int idx) {
    const int lo = idx * per;
    const int hi = std::min(jpanels, lo + per);
    kern.i8gemm_range(m, n, a.k_pairs, lo, hi, row_scale.data(),
                      a.data.data(), b.data.data(), c, ldc);
  });
}

}  // namespace zeus::tensor
