#include "quant/qgemm.hpp"

#include <algorithm>
#include <new>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/qkernel.hpp"
#include "quant/quantize.hpp"

namespace autogemm::quant {

namespace {

Status validate_triple(int m, int n, int k, const void* a_data, long a_ld,
                       int a_cols, const void* b_data, long b_ld, int b_cols,
                       common::MatrixView c) {
  if (a_data == nullptr || b_data == nullptr || c.data == nullptr)
    return InvalidArgumentError("qgemm: null operand data");
  if (m <= 0 || n <= 0 || k <= 0)
    return InvalidArgumentError("qgemm: non-positive extent");
  if (c.rows != m || c.cols != n)
    return InvalidArgumentError("qgemm: C shape does not match A x B");
  if (a_ld < a_cols || b_ld < b_cols || c.ld < c.cols)
    return InvalidArgumentError("qgemm: leading dimension < cols");
  return {};
}

void scale_c(common::MatrixView c, float beta) {
  if (beta == 1.0f) return;
  for (int r = 0; r < c.rows; ++r) {
    for (int j = 0; j < c.cols; ++j)
      c.at(r, j) = beta == 0.0f ? 0.0f : beta * c.at(r, j);
  }
}

/// How many C rows each kernel invocation covers — bounds the int32
/// accumulator scratch so it stays cache-resident for large M.
constexpr int kRowBlock = 64;

StatusOr<std::vector<std::int32_t>> make_acc(int rows, int cols) {
  std::vector<std::int32_t> acc;
  try {
    acc.resize(static_cast<std::size_t>(std::min(kRowBlock, rows)) *
               static_cast<std::size_t>(cols));
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: accumulator allocation failed");
  }
  return acc;
}

/// qgemm over packed int8 rows of A and a packed B: each row block
/// accumulates exactly in int32, then the epilogue requantizes it into C.
/// force_portable runs the reference kernel (crosscheck — the integers
/// are the same).
Status qgemm_packed(const std::int8_t* a, long lda, const float* a_scales,
                    const QPackedB& qb, common::MatrixView c,
                    const QGemmOptions& opts) {
  auto acc = make_acc(c.rows, c.cols);
  if (!acc.ok()) return acc.status();
  for (int r0 = 0; r0 < c.rows; r0 += kRowBlock) {
    const int rows = std::min(kRowBlock, c.rows - r0);
    const std::int8_t* ablk = a + r0 * lda;
    if (opts.force_portable)
      kernels::qgemm_block_portable(rows, c.cols, qb.rows(), ablk, lda,
                                    qb.col(0), qb.col_ld(), acc->data(),
                                    c.cols);
    else
      kernels::qgemm_block(rows, c.cols, qb.rows(), ablk, lda, qb.col(0),
                           qb.col_ld(), qb.col_sums(), acc->data(), c.cols);
    kernels::requantize_block(c.block(r0, 0, rows, c.cols), acc->data(),
                              c.cols, a_scales + r0, qb.scales(), opts.alpha,
                              opts.beta);
  }
  return {};
}

}  // namespace

Status qgemm(common::ConstMatrixView a, common::ConstMatrixView b,
             common::MatrixView c, const QGemmOptions& opts) {
  if (Status s = validate_triple(a.rows, b.cols, a.cols, a.data, a.ld, a.cols,
                                 b.data, b.ld, b.cols, c);
      !s.ok())
    return s;
  if (a.cols != b.rows)
    return InvalidArgumentError("qgemm: inner dimensions disagree");
  auto qb = QPackedB::create(b, opts.granularity);
  if (!qb.ok()) return qb.status();
  return qgemm(a, *qb, c, opts);
}

Status qgemm(common::ConstMatrixView a, const QPackedB& qb,
             common::MatrixView c, const QGemmOptions& opts) {
  if (qb.empty()) return InvalidArgumentError("qgemm: empty QPackedB");
  if (Status s = validate_triple(a.rows, qb.cols(), a.cols, a.data, a.ld,
                                 a.cols, qb.col(0), qb.col_ld(), qb.rows(), c);
      !s.ok())
    return s;
  if (a.cols != qb.rows())
    return InvalidArgumentError("qgemm: A cols != packed B rows");
  // Activations quantize per call; only A's rows are packed, so the scratch
  // is M x padded-K — small next to the cached weight pack.
  const long lda = kernels::qpacked_ld(a.cols);
  const std::size_t count =
      static_cast<std::size_t>(a.rows) * static_cast<std::size_t>(lda);
  std::vector<float> a_scales;
  try {
    a_scales = opts.granularity == Granularity::kPerChannel
                   ? per_row_scales(a)
                   : std::vector<float>(static_cast<std::size_t>(a.rows),
                                        per_tensor_scale(a));
    std::vector<std::int8_t> qa(count);
    kernels::qpack_rows(a, a_scales.data(), qa.data(), lda);
    return qgemm_packed(qa.data(), lda, a_scales.data(), qb, c, opts);
  } catch (const std::bad_alloc&) {
    return ResourceExhaustedError("qgemm: activation pack allocation failed");
  }
}

Status qgemm(const QPackedA& qa, const QPackedB& qb, common::MatrixView c,
             const QGemmOptions& opts) {
  if (qa.empty() || qb.empty())
    return InvalidArgumentError("qgemm: empty packed operand");
  if (Status s = validate_triple(qa.rows(), qb.cols(), qa.cols(), qa.row(0),
                                 qa.row_ld(), qa.cols(), qb.col(0),
                                 qb.col_ld(), qb.rows(), c);
      !s.ok())
    return s;
  if (qa.cols() != qb.rows())
    return InvalidArgumentError("qgemm: packed inner dimensions disagree");
  return qgemm_packed(qa.row(0), qa.row_ld(), qa.scales(), qb, c, opts);
}

Status gemm_bf16(common::ConstMatrixView a, common::ConstMatrixView b,
                 common::MatrixView c, float alpha, float beta) {
  if (Status s = validate_triple(a.rows, b.cols, a.cols, a.data, a.ld, a.cols,
                                 b.data, b.ld, b.cols, c);
      !s.ok())
    return s;
  if (a.cols != b.rows)
    return InvalidArgumentError("gemm_bf16: inner dimensions disagree");
  const int m = a.rows, n = b.cols, k = a.cols;
  common::Matrix at(m, k), bt(k, n), tmp(m, n);
  for (int r = 0; r < m; ++r)
    kernels::bf16_truncate_buffer(a.data + static_cast<long>(r) * a.ld,
                                  at.view().data + static_cast<long>(r) * k,
                                  static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r)
    kernels::bf16_truncate_buffer(b.data + static_cast<long>(r) * b.ld,
                                  bt.view().data + static_cast<long>(r) * n,
                                  static_cast<std::size_t>(n));
  // tmp starts zeroed (Matrix zero-fills); the host fp32 register tiles
  // accumulate trunc(A) * trunc(B) into it in full fp32.
  constexpr int kMr = 6, kNr = 16;
  for (int j0 = 0; j0 < n; j0 += kNr) {
    const int jn = std::min(kNr, n - j0);
    for (int i0 = 0; i0 < m; i0 += kMr) {
      const int in = std::min(kMr, m - i0);
      kernels::run_tile(in, jn, at.view().data + static_cast<long>(i0) * k, k,
                        bt.view().data + j0, n,
                        tmp.view().data + static_cast<long>(i0) * n + j0, n,
                        k);
    }
  }
  scale_c(c, beta);
  for (int r = 0; r < m; ++r)
    for (int j = 0; j < n; ++j) c.at(r, j) += alpha * tmp.view().at(r, j);
  return {};
}

}  // namespace autogemm::quant
