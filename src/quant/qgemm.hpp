// Quantized GEMM entry points.
//
//     C = alpha * deq(q(A) * q(B)) + beta * C
//
// where q() is symmetric int8 quantization (quantize.hpp), the product
// accumulates exactly in int32 (kernels/qkernel.hpp — no intermediate
// rounding for K up to 133,144 on every kernel tier), and deq() applies
// the per-channel scale product sa[r] * sb[c] in the fp32 requantization
// epilogue. beta == 0 never reads C, matching gemm_ex semantics.
//
// ## Accuracy contract
//
// All rounding happens at the two quantization points, so the absolute
// error of one output element is bounded by the quantization noise of K
// products: with per-channel scales sa, sb it concentrates around
// sqrt(K/3) * (sa * max|B_col| + sb * max|A_row|) / 2. Output elements
// whose exact value lands near zero therefore carry arbitrarily large
// *elementwise* relative errors — the contract is stated in the norm
// metric quantized kernels are judged by: for well-conditioned operands
// (e.g. uniform [-1, 1) — no catastrophic cancellation), int8 per-channel
// GEMM stays within **1e-2 relative Frobenius error**
// (common::rel_frobenius_error) **of an fp64 reference** across the
// paper's irregular-shape set, independent of K (both signal and noise
// norms grow as sqrt(K)). The test suite and the crosscheck CLI gate pin
// exactly that bound.
// Per-tensor granularity keeps correctness but loosens per-channel's
// error whenever channel magnitudes differ.
//
// ## When int8 wins
//
// At compute-bound shapes the int8 tier retires 64 MACs per vpdpbusd on
// AVX-512 VNNI hosts (8 per pmaddwd on the SSE2 fallback) against fp32's
// 4-lane mul+add, and moves 4x fewer operand bytes; the bench gate
// (bench_quant) requires >= 1.3x over the fp32 tier on the CI host.
// Memory-bound skinny shapes win mostly on bytes moved: one byte per
// weight, the only copy a QPackedB keeps. int8 loses when operands are
// ill-conditioned (heavy cancellation) or K is tiny (quantize cost
// dominates) — serve keeps fp32 and int8 requests in separate buckets
// precisely so callers choose per request.
#pragma once

#include "common/matrix.hpp"
#include "common/status.hpp"
#include "quant/qpacked.hpp"

namespace autogemm::quant {

struct QGemmOptions {
  float alpha = 1.0f;
  float beta = 1.0f;
  Granularity granularity = Granularity::kPerChannel;
  /// Forces the portable scalar kernel in place of the host's tier
  /// (crosscheck; results are identical bit-for-bit because integer
  /// accumulation is exact on every tier).
  bool force_portable = false;
};

/// Both operands quantized on the fly. A is (M x K) fp32, B (K x N) fp32,
/// C (M x N) fp32.
Status qgemm(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const QGemmOptions& opts = {});

/// Constant-B path: B already quantized+packed (the LLM-serving case — the
/// weight matrix is packed once, activations quantize per call).
Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts = {});

/// Both operands pre-packed.
Status qgemm(const QPackedA& qa, const QPackedB& qb, common::MatrixView c,
             const QGemmOptions& opts = {});

/// bf16-style mixed precision: operands are truncated to 8 significand
/// bits (kernels::bf16_truncate) and the product accumulates in full fp32
/// through the regular host micro-kernels — bfloat16 storage precision,
/// fp32 compute, no integer path. C = alpha * trunc(A) * trunc(B) + beta * C.
Status gemm_bf16(common::ConstMatrixView a, common::ConstMatrixView b,
                 common::MatrixView c, float alpha = 1.0f, float beta = 1.0f);

}  // namespace autogemm::quant
