// Quantized packed operand formats.
//
// QPackedA / QPackedB are the int8 mirrors of core's PackedA / PackedB:
// built once per constant operand, cached by the Context's packed-operand
// LRU under the same pointer-identity + invalidate(ptr) contract, and
// reused across calls. Each carries the quantized int8 blocks *and* the
// per-channel fp32 scales the requantization epilogue needs — quantization
// happens at pack time, so a cached weight matrix is quantized exactly
// once no matter how many requests hit it.
//
// Layout is the dot-product formulation of kernels/qkernel.hpp: QPackedA
// rows and QPackedB columns are k-contiguous, leading dimension padded to
// kernels::kQKStep with zeroed tails (dtype-generic packing contract —
// buffers hold count * ld int8 *elements*, one byte per weight and no
// second image). QPackedB also carries one exact int32 sum per column,
// computed while it packs: the VNNI kernel multiplies A as u8 (a + 128)
// and subtracts 128 * colsum to get the signed product back.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/status.hpp"

namespace autogemm::quant {

/// Per-channel (per row of A / per column of B) or one scale for the whole
/// tensor. Per-channel is the default everywhere; per-tensor exists for the
/// error-ordering comparison and for weights quantized off-line by systems
/// that only ship one scale.
enum class Granularity { kPerChannel, kPerTensor };

/// A (M x K) quantized symmetric int8 with per-row scales, rows packed
/// k-contiguous.
class QPackedA {
 public:
  QPackedA() = default;

  /// Validated construction mirroring PackedA::create: rejects null data,
  /// non-positive extents or ld < cols as kInvalidArgument; allocation
  /// failure is kResourceExhausted.
  static StatusOr<QPackedA> create(common::ConstMatrixView a,
                                   Granularity g = Granularity::kPerChannel);

  const std::int8_t* row(int r) const { return data_.data() + r * ld_; }
  long row_ld() const { return ld_; }
  /// Per-row scales, rows() entries (per-tensor replicates one value).
  const float* scales() const { return scales_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

 private:
  std::vector<std::int8_t> data_;
  std::vector<float> scales_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

/// B (K x N) quantized symmetric int8 with per-column scales, columns
/// packed k-contiguous (stored transposed).
class QPackedB {
 public:
  QPackedB() = default;

  /// Validated construction; see QPackedA::create.
  static StatusOr<QPackedB> create(common::ConstMatrixView b,
                                   Granularity g = Granularity::kPerChannel);

  const std::int8_t* col(int c) const { return data_.data() + c * ld_; }
  long col_ld() const { return ld_; }
  /// Per-column scales, cols() entries.
  const float* scales() const { return scales_.data(); }
  /// Exact sum of each packed column, cols() entries.
  const std::int32_t* col_sums() const { return col_sums_.data(); }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

 private:
  std::vector<std::int8_t> data_;
  std::vector<float> scales_;
  std::vector<std::int32_t> col_sums_;
  int rows_ = 0, cols_ = 0;
  long ld_ = 0;
};

}  // namespace autogemm::quant
