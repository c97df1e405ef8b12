// Extended BLAS-style entry point: C = alpha * op(A) * op(B) + beta * C
// with op in {identity, transpose}.
//
// Transposed operands are handled the way every packed GEMM does it: the
// packing stage reads the operand transposed, so the micro-kernels always
// see the canonical row-major layout. alpha is folded into the packed A
// block; beta is applied to C before accumulation.
#pragma once

#include "common/matrix.hpp"
#include "common/threadpool.hpp"
#include "core/plan.hpp"

namespace autogemm {

enum class Trans : std::uint8_t { kNo, kYes };

struct GemmExParams {
  Trans trans_a = Trans::kNo;
  Trans trans_b = Trans::kNo;
  float alpha = 1.0f;
  float beta = 1.0f;
};

/// C = alpha * op(A) * op(B) + beta * C.
///
/// Logical shapes: op(A) is M x K, op(B) is K x N, C is M x N — i.e. with
/// trans_a == kYes the `a` view passed in is K x M. The plan describes the
/// logical (M, N, K) problem. Transposition and alpha force the packed
/// path internally regardless of the plan's sigma_packing.
void gemm_ex(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const GemmExParams& params,
             const Plan& plan, common::ThreadPool* pool = nullptr);

namespace detail {
/// Applies beta to C (beta = 0 stores zeros without reading C — the
/// overwrite semantics documented in core/gemm.hpp). Shared by gemm_ex and
/// Context so the accumulate-vs-overwrite behavior is defined in one place.
void scale_c(common::MatrixView c, float beta);
}  // namespace detail

}  // namespace autogemm
