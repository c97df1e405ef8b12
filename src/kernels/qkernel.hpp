// int8 dot-product micro-kernels and quantize-as-you-pack routines.
//
// The int8 tier uses the dot-product formulation: packed A rows and packed
// B *columns* are both k-contiguous, so one int8 x int8 inner product per
// C element accumulates exactly in int32 (no intermediate rounding), and a
// single fp32 requantization epilogue applies alpha/beta and the per-channel
// scales. This is the widening structure ARM's integer dot-product and
// matrix extensions expose (sdot/smmla on NEON, the SME integer fmopa
// family). On x86 the kernel is picked once per process by cpuid:
//
//   * avx512-vnni: vpdpbusd on zmm, 64 multiply-accumulates per
//     instruction. It multiplies *unsigned* by signed bytes, so A is
//     flipped to u8 in the register (a ^ 0x80 == a + 128) and the exact
//     int32 column sums QPackedB stores undo the offset:
//       sum_k a*b = sum_k (a + 128)*b - 128 * colsum(b).
//     The register tile comes from the paper's budget with one zmm
//     accumulator per C element, mr*nr + mr + nr <= 32, at the largest
//     Eqn-2 intensity for the rows at hand (1x15 for a decode row, 4x5
//     once M >= 4).
//   * sse2: sign-extension + pmaddwd, 8 multiply-accumulates per
//     instruction — the fallback on x86 hosts without VNNI.
//   * portable: the scalar reference semantics, and the tier on every
//     other host.
// All three compute the same integers, so results are bit-identical on
// every tier.
//
// Packed-layout contract (dtype-generic mirror of packing.hpp): a packed
// buffer holds `count * ld` *elements* of the packed element type — int8_t
// here, with no second image in any wider type. Leading dimensions are
// padded to kQKStep and the tail zeroed, so kernels stream whole vectors
// with no scalar remainder loop (zeros add nothing to a dot product).
//
// Overflow contract: |a|,|b| <= 127, so the exact sum grows by at most
// 127*127 = 16129 per k step and fits int32 for K <= 133,144 — far beyond
// any GEMM K this library serves (the tests pin K = 16384 and 70,000).
// The u8*s8 intermediate of the VNNI tier grows by up to 255*127 per
// step, so it leaves the int32 range above K = 66,311. That needs no
// K slicing: vpdpbusd is the non-saturating form, the lane reduction and
// the offset correction wrap modulo 2^32 too, and a value known to fit
// int32 is recovered exactly from its residue. The tier tests run the
// VNNI kernel on saturated operands at K = 70,000 against the portable one.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"

namespace autogemm::kernels {

/// k-dimension padding quantum for packed int8 buffers. Leading dimensions
/// rounded up to this keep the SIMD kernels remainder-free.
inline constexpr int kQKStep = 16;

/// Rounds a k extent up to the packed leading dimension.
inline long qpacked_ld(int k) {
  return (static_cast<long>(k) + kQKStep - 1) / kQKStep * kQKStep;
}

/// Quantizes one fp32 value against `scale` into a saturated int8 in
/// [-127, 127] (symmetric — -128 is never produced, so negation is safe).
std::int8_t quantize_value(float x, float scale);

/// Quantize-and-pack rows of src: dst row r holds src(r, :) quantized with
/// row_scales[r], k-contiguous. dst must hold src.rows * dst_ld int8
/// elements (dst_ld >= qpacked_ld(src.cols)); the [cols, dst_ld) tail of
/// every row is zeroed.
void qpack_rows(common::ConstMatrixView src, const float* row_scales,
                std::int8_t* dst, long dst_ld);

/// Quantize-and-pack columns of src transposed: dst row c holds src(:, c)
/// quantized with col_scales[c], k-contiguous. dst must hold
/// src.cols * dst_ld int8 elements (dst_ld >= qpacked_ld(src.rows)); tails
/// zeroed as in qpack_rows. col_sums[c] receives the exact int32 sum of
/// dst row c — the correction term of the VNNI tier's u8 offset.
void qpack_cols(common::ConstMatrixView src, const float* col_scales,
                std::int8_t* dst, long dst_ld, std::int32_t* col_sums);

/// Portable reference kernel: acc(r, c) = sum_k a[r*lda + k] * b[c*ldb + k]
/// over k in [0, kc), widening every product to int32. Overwrites acc
/// (rows x cols, leading dimension ldacc). Both operands are packed
/// k-contiguous (b rows are logical B columns).
void qgemm_block_portable(int rows, int cols, int kc, const std::int8_t* a,
                          long lda, const std::int8_t* b, long ldb,
                          std::int32_t* acc, long ldacc);

/// The int8 kernel tiers, as named in bench output.
enum class QTier { kAvx512Vnni, kSse2, kPortable };
const char* qtier_name(QTier tier);

/// The tier qgemm_block runs on this host, chosen once by cpuid.
QTier qgemm_tier();

/// The fast kernel: the same acc as qgemm_block_portable, on qgemm_tier().
/// Requires lda/ldb >= qpacked_ld(kc) with zeroed tails, and
/// b_col_sums[c] == sum over k < kc of b[c*ldb + k] (the packers guarantee
/// both; qpack_cols computes the sums).
void qgemm_block(int rows, int cols, int kc, const std::int8_t* a, long lda,
                 const std::int8_t* b, long ldb,
                 const std::int32_t* b_col_sums, std::int32_t* acc,
                 long ldacc);

namespace detail {

/// Test-only: runs qgemm_block on the named tier instead of the host's
/// pick, so the tier tests can hold every supported tier to the portable
/// kernel. Returns false, touching nothing, when this host cannot run it.
bool qgemm_block_on(QTier tier, int rows, int cols, int kc,
                    const std::int8_t* a, long lda, const std::int8_t* b,
                    long ldb, const std::int32_t* b_col_sums,
                    std::int32_t* acc, long ldacc);

}  // namespace detail

/// Requantization epilogue:
///   c(r, c) = alpha * a_scales[r] * b_scales[c] * acc(r, c) + beta * c(r, c)
/// beta == 0 never reads C (NaN/uninitialized storage is fine, matching
/// gemm_ex semantics).
void requantize_block(common::MatrixView c, const std::int32_t* acc,
                      long ldacc, const float* a_scales, const float* b_scales,
                      float alpha, float beta);

/// bf16-style mantissa truncation: zeroes the low 16 bits of the IEEE-754
/// encoding (round-toward-zero to 8 significand bits), keeping sign and
/// exponent — the storage precision of bfloat16 with fp32 accumulate.
float bf16_truncate(float x);

/// Truncates n values from src into dst (src == dst allowed).
void bf16_truncate_buffer(const float* src, float* dst, std::size_t n);

}  // namespace autogemm::kernels
