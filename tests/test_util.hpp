// Shared test helpers.
#pragma once

#include <gtest/gtest.h>

#include "common/matrix.hpp"
#include "common/status.hpp"
#include "core/context.hpp"

/// Fails the current test (and returns from it) when `expr`, a Status,
/// is not OK, printing the Status.
#define ASSERT_OK(expr)                                   \
  do {                                                    \
    const ::autogemm::Status assert_ok_status_ = (expr);  \
    ASSERT_TRUE(assert_ok_status_.ok())                   \
        << assert_ok_status_.to_string();                 \
  } while (0)

namespace autogemm::testutil {

/// Acceptance threshold when comparing an fp32 GEMM against the double-
/// precision reference: rounding error of a length-k fp32 dot product grows
/// ~ k * eps, so the bound scales with the reduction depth. (The paper's
/// flat 1e-6 bar compares fp32 libraries against each other, where the
/// error statistics cancel.)
inline double gemm_tolerance(int k) { return 1e-6 + 1e-7 * k; }

/// C = alpha * op(A) * op(B) + beta * C through a fresh serial Context.
inline Status run_serial(common::ConstMatrixView a, common::ConstMatrixView b,
                         common::MatrixView c,
                         const GemmExParams& params = {}) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  return ctx.run(a, b, c, params);
}

}  // namespace autogemm::testutil
