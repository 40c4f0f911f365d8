#ifndef ZEUS_TENSOR_GEMM_H_
#define ZEUS_TENSOR_GEMM_H_

// High-performance single-precision GEMM substrate. Every matmul and (via
// im2col/vol2col lowering) every convolution in the NN stack bottoms out in
// Sgemm() below, so this one kernel sets the throughput ceiling for the APFG
// extractors and the DQN Q-network.
//
// Design: classic three-level cache blocking (Goto/BLIS style). The k
// dimension is split into kc-deep panels; within a panel, A is packed into
// column-major micro-panels of MR rows and B into row-major micro-panels of
// NR columns, and a register-tiled MR x NR micro-kernel accumulates into
// local registers before a single write-back per tile. Optional parallelism
// partitions the *larger* of the two C dimensions into contiguous chunks run
// on a common::ThreadPool.
//
// ISA dispatch: the micro-kernels are compiled three times into separate
// translation units with per-file -m flags (see gemm_kernels.h) — a
// baseline x86-64 (SSE2) tier, an AVX2+FMA 4x16 tier, and an AVX-512 6x32
// tier — and the driver picks the best tier the running CPU supports via
// CPUID at runtime, independent of how the rest of the tree was compiled
// (ZEUS_MARCH_NATIVE no longer changes which kernel runs). A concrete tier
// can be forced per-context (ComputeContext::isa) or process-wide via the
// ZEUS_COMPUTE_PATH environment variable, for triage and parity testing.
//
// Determinism: within one ISA tier, each C element is accumulated in a
// fixed order — kc-panel by kc-panel, and within a panel in ascending k —
// that does not depend on the chunking, so results are bit-identical for
// any thread count (including serial execution). Tests assert this exactly.
// Different tiers round differently (FMA contraction, tile shape), so a
// reproducible run across machines should pin the tier.
//
// Numerics: fp32 accumulation (see tensor_ops.h for the documented
// tolerance vs. the naive reference loops). The int8 path (QuantizedGemm)
// is exact integer arithmetic dequantized once at write-back, so it is
// bit-identical across tiers *and* thread counts; its quantization error
// bound is documented in tensor_ops.h next to the fp32 tolerance.

#include <cstdint>
#include <vector>

namespace zeus::common {
class ThreadPool;
}  // namespace zeus::common

namespace zeus::tensor {

// Which implementation the lowered ops use. kReference is the seed's naive
// scalar loop nest, kept for parity testing; kGemm is the blocked fp32
// kernel (parallel when the context carries a pool); kInt8 is the
// symmetric-quantized integer kernel — inference only: layers silently run
// kGemm instead for training forwards and all backwards.
enum class ComputePath {
  kReference,
  kGemm,
  kInt8,
};

// Which fp32 micro-kernel tier Sgemm runs. kAuto resolves to the best tier
// the CPU supports (CPUID, cached); forcing a tier the CPU lacks clamps
// down to the best supported one with a one-time warning.
enum class GemmIsa {
  kAuto,
  kScalar,  // baseline x86-64 (SSE2) — the portable fallback tier
  kAvx2,    // AVX2 + FMA, 4x16 register tile
  kAvx512,  // AVX-512 F/BW/VL, 6x32 register tile
};

// Best tier supported by the running CPU (never kAuto).
GemmIsa DetectGemmIsa();

// req, clamped to the best supported tier (kAuto => DetectGemmIsa()).
// Logs once when a forced tier is unavailable.
GemmIsa ResolveGemmIsa(GemmIsa req);

// "scalar" / "avx2" / "avx512" / "auto".
const char* GemmIsaName(GemmIsa isa);

// Parses a ZEUS_COMPUTE_PATH value: "reference" => kReference;
// "avx2"/"avx512"/"scalar" => kGemm with the forced tier; "int8" => kInt8
// (tier stays kAuto). Returns false (outputs untouched) on anything else.
bool ParseComputePath(const char* s, ComputePath* path, GemmIsa* isa);

// Cache-blocking knobs. Defaults target a ~32KB L1 / ~512KB L2 budget:
// packed A panel = mc*kc floats (64KB), packed B panel = kc*nc floats
// (512KB). The register tile is fixed per ISA tier (gemm_kernels.h).
struct GemmBlocking {
  int mc = 64;
  int kc = 256;
  int nc = 512;
};

// Process-wide compute configuration, threaded through nn::Layer, the APFG
// extractors and core::BatchedExecutor. Callers configure the global
// instance once (thread count, path) and every model picks it up; individual
// layers/models can be pointed at a non-global context for A/B testing.
struct ComputeContext {
  // Pool used for intra-op (GEMM row/col partition) and batch-level
  // (Conv2d/Conv3d minibatch split) parallelism — including inside the
  // BatchedExecutor's batched Q-network and APFG forwards. nullptr =>
  // serial.
  common::ThreadPool* pool = nullptr;
  ComputePath path = ComputePath::kGemm;
  // fp32 micro-kernel tier; kAuto picks the best supported at runtime.
  GemmIsa isa = GemmIsa::kAuto;
  // When false, Conv2d/Conv3d never split the minibatch across the pool
  // (intra-GEMM parallelism only) — benchmarking/debugging knob; results
  // are bit-identical either way.
  bool batch_split = true;
  GemmBlocking blocking;
};

// Lazily-created process-wide default pool, sized to hardware concurrency.
// Honors ZEUS_NUM_THREADS: unset or > 1 => that many workers, "0"/"1" =>
// nullptr (serial). Created on first call and intentionally never
// destroyed (workers must outlive static objects that may run compute in
// their destructors; the OS reclaims the threads at exit).
common::ThreadPool* DefaultComputePool();

// The mutable process-wide default context. Not synchronized: configure it
// before launching compute, not concurrently with it. On first access the
// context's pool defaults to DefaultComputePool(), so every caller that
// does not override it (benches, trainer hot loops, the BatchedExecutor's
// batched forwards) is thread-parallel out of the box; set
// `GlobalComputeContext().pool = nullptr` to force serial execution for
// parity tests. First access also applies ZEUS_COMPUTE_PATH (see
// ParseComputePath) so the whole process can be forced onto one
// path/tier for triage — unparseable values are ignored with a warning.
// The GEMM path is bit-identical across thread counts, so flipping the
// default pool changes wall time only, never results.
ComputeContext& GlobalComputeContext();

// ctx if non-null, else the global context.
const ComputeContext& EffectiveContext(const ComputeContext* ctx);

// C = alpha * op(A) @ op(B) + beta * C, all row-major.
//   op(A) is m x k: A is m x k (lda >= k) when !trans_a, else k x m (lda >= m).
//   op(B) is k x n: B is k x n (ldb >= n) when !trans_b, else n x k (ldb >= k).
//   C is m x n (ldc >= n); with beta == 0, C may be uninitialized.
// Runs on ctx->pool when set (or the global context's pool when ctx is
// null); pass a context with pool == nullptr to force serial execution.
void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, const ComputeContext* ctx = nullptr);

// ---- Int8 quantized GEMM ---------------------------------------------------
//
// Symmetric quantization: q = round(x * 127 / maxabs), no zero point.
// maxabs is taken over the whole operand (one fp32 scale per tensor) or,
// for an A operand packed with per_row_scale, over each row separately; the
// int8 MatMul quantizes its A operand — the activations, one row per
// sample — per row, so a row's result does not depend on what it is
// batched with. The packed operands interleave
// adjacent k-pairs as int16 so the micro-kernel is a single widening
// multiply-add (pmaddwd) per pair: products and pair-sums fit int32
// exactly, the k-loop accumulates in int32 (exact up to k <= 2^17 — far
// above any lowered conv/linear depth here), and the one inexact step is
// the final c = scale_a * scale_b * acc write-back. Integer accumulation
// is associative, so results are bit-identical across ISA tiers and
// thread counts, unlike the fp32 path.

// One quantized + packed GEMM operand, produced by QuantizePack{A,B}.
struct Int8Panels {
  std::vector<int16_t> data;  // k-pair-interleaved micro-panels
  float scale = 0.0f;         // maxabs / 127 (0 for an all-zero tensor)
  // A only, when packed per row: row i's maxabs / 127. Empty when `scale`
  // covers every row.
  std::vector<float> row_scales;
  int rows = 0;               // logical op-shape rows (m for A, k for B)
  int cols = 0;               // logical op-shape cols (k for A, n for B)
  int k_pairs = 0;            // ceil(k / 2), zero-padded for odd k
};

// Quantizes and packs A (m x k row-major, lda >= k) into kI8RowTile-row
// micro-panels for QuantizedGemm, with one scale for the whole tensor or,
// when per_row_scale is set, one per row (at m = 1 the two coincide). ctx
// selects the (SIMD) quantize primitives; the packed bytes are identical
// for every tier.
void QuantizePackA(const float* a, int lda, int m, int k, Int8Panels* out,
                   const ComputeContext* ctx = nullptr,
                   bool per_row_scale = false);

// Quantizes and packs op(B) (k x n; B is k x n when !trans_b, else n x k
// with ldb its row stride) into kI8ColTile-column micro-panels.
void QuantizePackB(const float* b, int ldb, bool trans_b, int k, int n,
                   Int8Panels* out, const ComputeContext* ctx = nullptr);

// C = dequant(packed-A @ packed-B): C is m x n fp32 (ldc >= n),
// overwritten (beta == 0 semantics). Parallel over column panels on
// ctx->pool, with the same nested-ParallelFor inline guard as Sgemm.
void QuantizedGemm(int m, int n, int k, const Int8Panels& a,
                   const Int8Panels& b, float* c, int ldc,
                   const ComputeContext* ctx = nullptr);

}  // namespace zeus::tensor

#endif  // ZEUS_TENSOR_GEMM_H_
