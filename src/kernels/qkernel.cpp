#include "kernels/qkernel.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "codegen/tile_sizes.hpp"
#include "simd/vec.hpp"  // for the AUTOGEMM_SIMD_* platform guards

#if defined(AUTOGEMM_SIMD_SSE) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace autogemm::kernels {

namespace {

/// The quantizer body over a precomputed reciprocal — packing multiplies
/// instead of dividing (a division per element would dominate the per-call
/// activation-quantization cost). lrintf uses the current rounding mode
/// (round-to-nearest-even, never changed by this library).
inline std::int8_t quantize_inv(float x, float inv_scale) {
  const long q = lrintf(x * inv_scale);
  const long clamped = q < -127 ? -127 : (q > 127 ? 127 : q);
  return static_cast<std::int8_t>(clamped);
}

}  // namespace

std::int8_t quantize_value(float x, float scale) {
  if (scale <= 0.0f) return 0;
  return quantize_inv(x, 1.0f / scale);
}

void qpack_rows(common::ConstMatrixView src, const float* row_scales,
                std::int8_t* dst, long dst_ld) {
  assert(dst_ld >= qpacked_ld(src.cols));
  for (int r = 0; r < src.rows; ++r) {
    std::int8_t* drow = dst + static_cast<long>(r) * dst_ld;
    const float inv = row_scales[r] > 0.0f ? 1.0f / row_scales[r] : 0.0f;
    const float* srow = src.data + static_cast<long>(r) * src.ld;
    for (int k = 0; k < src.cols; ++k) drow[k] = quantize_inv(srow[k], inv);
    std::memset(drow + src.cols, 0,
                static_cast<std::size_t>(dst_ld - src.cols));
  }
}

void qpack_cols(common::ConstMatrixView src, const float* col_scales,
                std::int8_t* dst, long dst_ld, std::int32_t* col_sums) {
  assert(dst_ld >= qpacked_ld(src.rows));
  for (int c = 0; c < src.cols; ++c) {
    std::int8_t* drow = dst + static_cast<long>(c) * dst_ld;
    const float inv = col_scales[c] > 0.0f ? 1.0f / col_scales[c] : 0.0f;
    std::int32_t sum = 0;
    for (int k = 0; k < src.rows; ++k) {
      drow[k] = quantize_inv(src.at(k, c), inv);
      sum += drow[k];
    }
    col_sums[c] = sum;
    std::memset(drow + src.rows, 0,
                static_cast<std::size_t>(dst_ld - src.rows));
  }
}

void qgemm_block_portable(int rows, int cols, int kc, const std::int8_t* a,
                          long lda, const std::int8_t* b, long ldb,
                          std::int32_t* acc, long ldacc) {
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* arow = a + static_cast<long>(r) * lda;
    std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    for (int c = 0; c < cols; ++c) {
      const std::int8_t* bcol = b + static_cast<long>(c) * ldb;
      std::int32_t sum = 0;
      for (int k = 0; k < kc; ++k)
        sum += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(bcol[k]);
      accrow[c] = sum;
    }
  }
}

namespace {

#if defined(AUTOGEMM_SIMD_SSE)

/// Sign-extends 16 int8 lanes into two int16x8 registers. The unpack-with-
/// self + arithmetic-shift idiom is the SSE2 spelling of sxtl/sxtl2.
inline void widen_i8_to_i16(__m128i v, __m128i* lo, __m128i* hi) {
  *lo = _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
  *hi = _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
}

inline std::int32_t hsum_epi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

/// The x86 fallback without VNNI: int8 widened to int16 in the loop, then
/// pmaddwd.
void qgemm_block_sse2(int rows, int cols, int kc, const std::int8_t* a,
                      long lda, const std::int8_t* b, long ldb,
                      std::int32_t* acc, long ldacc) {
  // The packers pad both leading dimensions to kQKStep and zero the tails,
  // so streaming ceil(kc / 16) whole chunks is exact — zero lanes
  // contribute nothing.
  const int kchunks = static_cast<int>((kc + kQKStep - 1) / kQKStep);
  assert(lda >= static_cast<long>(kchunks) * kQKStep);
  assert(ldb >= static_cast<long>(kchunks) * kQKStep);
  // 2x4 register block: per k chunk the four widened B columns are reused
  // across two A rows, so the widening cost (the SSE2 tax pmaddwd does not
  // pay on sdot/smmla hardware) amortizes over 8 accumulators; each
  // pmaddwd retires 8 multiply-accumulates.
  int r = 0;
  for (; r + 2 <= rows; r += 2) {
    const std::int8_t* a0 = a + static_cast<long>(r) * lda;
    const std::int8_t* a1 = a0 + lda;
    std::int32_t* acc0row = acc + static_cast<long>(r) * ldacc;
    std::int32_t* acc1row = acc0row + ldacc;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const std::int8_t* bp[4] = {b + static_cast<long>(c) * ldb,
                                  b + static_cast<long>(c + 1) * ldb,
                                  b + static_cast<long>(c + 2) * ldb,
                                  b + static_cast<long>(c + 3) * ldb};
      __m128i s0[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      __m128i s1[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * kQKStep;
        __m128i a0lo, a0hi, a1lo, a1hi;
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + off)),
            &a0lo, &a0hi);
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + off)),
            &a1lo, &a1hi);
        for (int j = 0; j < 4; ++j) {
          __m128i blo, bhi;
          widen_i8_to_i16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp[j] + off)),
              &blo, &bhi);
          s0[j] = _mm_add_epi32(s0[j], _mm_madd_epi16(a0lo, blo));
          s0[j] = _mm_add_epi32(s0[j], _mm_madd_epi16(a0hi, bhi));
          s1[j] = _mm_add_epi32(s1[j], _mm_madd_epi16(a1lo, blo));
          s1[j] = _mm_add_epi32(s1[j], _mm_madd_epi16(a1hi, bhi));
        }
      }
      for (int j = 0; j < 4; ++j) {
        acc0row[c + j] = hsum_epi32(s0[j]);
        acc1row[c + j] = hsum_epi32(s1[j]);
      }
    }
    for (; c < cols; ++c) {
      const std::int8_t* bcol = b + static_cast<long>(c) * ldb;
      __m128i sv0 = _mm_setzero_si128(), sv1 = _mm_setzero_si128();
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * kQKStep;
        __m128i alo, ahi, blo, bhi;
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bcol + off)),
            &blo, &bhi);
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + off)), &alo,
            &ahi);
        sv0 = _mm_add_epi32(sv0, _mm_madd_epi16(alo, blo));
        sv0 = _mm_add_epi32(sv0, _mm_madd_epi16(ahi, bhi));
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + off)), &alo,
            &ahi);
        sv1 = _mm_add_epi32(sv1, _mm_madd_epi16(alo, blo));
        sv1 = _mm_add_epi32(sv1, _mm_madd_epi16(ahi, bhi));
      }
      acc0row[c] = hsum_epi32(sv0);
      acc1row[c] = hsum_epi32(sv1);
    }
  }
  // Remainder row: 1x4 blocking, the widened A chunk reused across columns.
  for (; r < rows; ++r) {
    const std::int8_t* arow = a + static_cast<long>(r) * lda;
    std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const std::int8_t* bp[4] = {b + static_cast<long>(c) * ldb,
                                  b + static_cast<long>(c + 1) * ldb,
                                  b + static_cast<long>(c + 2) * ldb,
                                  b + static_cast<long>(c + 3) * ldb};
      __m128i sv[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                       _mm_setzero_si128(), _mm_setzero_si128()};
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * kQKStep;
        __m128i alo, ahi;
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + off)),
            &alo, &ahi);
        for (int j = 0; j < 4; ++j) {
          __m128i blo, bhi;
          widen_i8_to_i16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp[j] + off)),
              &blo, &bhi);
          sv[j] = _mm_add_epi32(sv[j], _mm_madd_epi16(alo, blo));
          sv[j] = _mm_add_epi32(sv[j], _mm_madd_epi16(ahi, bhi));
        }
      }
      for (int j = 0; j < 4; ++j) accrow[c + j] = hsum_epi32(sv[j]);
    }
    for (; c < cols; ++c) {
      const std::int8_t* bcol = b + static_cast<long>(c) * ldb;
      __m128i accv = _mm_setzero_si128();
      for (int ch = 0; ch < kchunks; ++ch) {
        const long off = static_cast<long>(ch) * kQKStep;
        __m128i alo, ahi, blo, bhi;
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + off)),
            &alo, &ahi);
        widen_i8_to_i16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bcol + off)),
            &blo, &bhi);
        accv = _mm_add_epi32(accv, _mm_madd_epi16(alo, blo));
        accv = _mm_add_epi32(accv, _mm_madd_epi16(ahi, bhi));
      }
      accrow[c] = hsum_epi32(accv);
    }
  }
}

#endif  // AUTOGEMM_SIMD_SSE

#if defined(AUTOGEMM_SIMD_SSE) && defined(__GNUC__)
#define AUTOGEMM_QKERNEL_VNNI 1
// Compiled for AVX-512 VNNI whatever the build's -m flags; only called once
// cpuid has confirmed the host runs it.
#define AUTOGEMM_VNNI_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

/// One register tile of the VNNI kernel: mr rows by nr columns of C.
struct VnniTile {
  int mr, nr;
};

/// The paper's register-budget pick (Table II, Eqn 2) for `rows` rows of C
/// with one zmm accumulator per C element — the lanes = 1 case of
/// codegen::registers_needed: the feasible tile with mr <= rows of highest
/// intensity, the smaller mr on ties. The zmm file has 32 registers, as
/// the modeled Arm chips' vector files do.
constexpr VnniTile vnni_tile(int rows) {
  VnniTile best{1, 1};
  for (int mr = 1; mr <= rows && mr <= codegen::kVectorRegisters - 2; ++mr)
    for (int nr = 1;
         codegen::registers_needed(mr, nr, 1) <= codegen::kVectorRegisters;
         ++nr)
      if (codegen::ai_max(mr, nr) > codegen::ai_max(best.mr, best.nr))
        best = {mr, nr};
  return best;
}

/// The tile for any M the budget can fill; blocks of fewer rows take
/// vnni_tile(rows % kVnniMr) through the switch in qgemm_block_vnni.
constexpr int kVnniMr = vnni_tile(codegen::kVectorRegisters).mr;
static_assert(kVnniMr == 4 && vnni_tile(kVnniMr).nr == 5 &&
                  vnni_tile(1).nr == 15,
              "the register budget picks 4x5, and 1x15 for a decode row");

/// out[j] = lane sum of v[j] modulo 2^32 (the overflow contract in
/// qkernel.hpp) for j < 16: an add tree that transposes as it folds, 45
/// shuffles and adds for 16 sums where folding one vector at a time costs
/// 8 apiece. The shuffles are the zero-masked forms with every lane
/// selected: GCC 12's unmasked ones pass an undefined operand and trip
/// -Wuninitialized. Kept out of line: inlined into the tile epilogue, it
/// costs the k loop its register allocation (accumulators copied and
/// spilled every step).
AUTOGEMM_VNNI_TARGET __attribute__((noinline)) void hsum16(
    const __m512i* v, std::uint32_t* out) {
  constexpr __mmask8 k8 = 0xff;
  constexpr __mmask16 k16 = 0xffff;
  // Per 128-bit lane: a[p] holds v[2p] and v[2p+1], each folded 4 -> 2.
  __m512i a[8], b[4], c[2];
  for (int p = 0; p < 8; ++p)
    a[p] = _mm512_add_epi32(
        _mm512_maskz_unpacklo_epi32(k16, v[2 * p], v[2 * p + 1]),
        _mm512_maskz_unpackhi_epi32(k16, v[2 * p], v[2 * p + 1]));
  // Per 128-bit lane L: b[q] = [v[4q] .. v[4q+3]] summed over lane L.
  for (int q = 0; q < 4; ++q)
    b[q] = _mm512_add_epi32(
        _mm512_maskz_unpacklo_epi64(k8, a[2 * q], a[2 * q + 1]),
        _mm512_maskz_unpackhi_epi64(k8, a[2 * q], a[2 * q + 1]));
  // Fold the four 128-bit lanes: lane q of the result holds b[q]'s total.
  for (int t = 0; t < 2; ++t)
    c[t] = _mm512_add_epi32(
        _mm512_maskz_shuffle_i32x4(k16, b[2 * t], b[2 * t + 1], 0x88),
        _mm512_maskz_shuffle_i32x4(k16, b[2 * t], b[2 * t + 1], 0xdd));
  _mm512_storeu_si512(
      out, _mm512_add_epi32(_mm512_maskz_shuffle_i32x4(k16, c[0], c[1], 0x88),
                            _mm512_maskz_shuffle_i32x4(k16, c[0], c[1], 0xdd)));
}

/// acc(MR x NR) = a(MR rows) . b(NR columns) over the packed k extent, 64
/// bytes of k per step: A flipped to u8 (a ^ 0x80 == a + 128), one
/// vpdpbusd per C element, and the offset taken back out through the
/// column sums. The last step loads only the rest of the 16-padded extent.
template <int MR, int NR>
AUTOGEMM_VNNI_TARGET void vnni_tile_kernel(int kc, const std::int8_t* a,
                                           long lda, const std::int8_t* b,
                                           long ldb,
                                           const std::int32_t* col_sums,
                                           std::int32_t* acc, long ldacc) {
  const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
  __m512i s[MR][NR];
#pragma GCC unroll 32
  for (int i = 0; i < MR; ++i)
#pragma GCC unroll 32
    for (int j = 0; j < NR; ++j) s[i][j] = _mm512_setzero_si512();
  const long kp = qpacked_ld(kc);
  for (long k = 0; k < kp; k += 64) {
    const __mmask64 m =
        kp - k >= 64 ? ~__mmask64{0} : (__mmask64{1} << (kp - k)) - 1;
    __m512i av[MR];
#pragma GCC unroll 32
    for (int i = 0; i < MR; ++i)
      av[i] = _mm512_xor_si512(_mm512_maskz_loadu_epi8(m, a + i * lda + k),
                               flip);
#pragma GCC unroll 32
    for (int j = 0; j < NR; ++j) {
      const __m512i bv = _mm512_maskz_loadu_epi8(m, b + j * ldb + k);
#pragma GCC unroll 32
      for (int i = 0; i < MR; ++i)
        s[i][j] = _mm512_dpbusd_epi32(s[i][j], av[i], bv);
    }
  }
  // Reduce the tile 16 accumulators at a time, zero-padded to whole groups.
  constexpr int kGroups = (MR * NR + 15) / 16;
  alignas(64) __m512i flat[kGroups * 16];
  alignas(64) std::uint32_t sums[kGroups * 16];
#pragma GCC unroll 64
  for (int t = 0; t < kGroups * 16; ++t)
    flat[t] = t < MR * NR ? s[t / NR][t % NR] : _mm512_setzero_si512();
  for (int g = 0; g < kGroups; ++g) hsum16(flat + 16 * g, sums + 16 * g);
  for (int i = 0; i < MR; ++i)
    for (int j = 0; j < NR; ++j)
      acc[i * ldacc + j] = static_cast<std::int32_t>(
          sums[i * NR + j] - 128u * static_cast<std::uint32_t>(col_sums[j]));
}

/// `blocks` row blocks of MR rows across every column, in vnni_tile(MR)
/// panels and then single columns. Column panels are the outer loop, so
/// each B panel stays in L1 while the row blocks of A pass over it.
template <int MR>
AUTOGEMM_VNNI_TARGET void vnni_rows(int blocks, int cols, int kc,
                                    const std::int8_t* a, long lda,
                                    const std::int8_t* b, long ldb,
                                    const std::int32_t* col_sums,
                                    std::int32_t* acc, long ldacc) {
  constexpr int NR = vnni_tile(MR).nr;
  int c = 0;
  for (; c + NR <= cols; c += NR)
    for (int i = 0; i < blocks; ++i)
      vnni_tile_kernel<MR, NR>(kc, a + i * MR * lda, lda, b + c * ldb, ldb,
                               col_sums + c, acc + i * MR * ldacc + c, ldacc);
  for (; c < cols; ++c)
    for (int i = 0; i < blocks; ++i)
      vnni_tile_kernel<MR, 1>(kc, a + i * MR * lda, lda, b + c * ldb, ldb,
                              col_sums + c, acc + i * MR * ldacc + c, ldacc);
}

AUTOGEMM_VNNI_TARGET void qgemm_block_vnni(int rows, int cols, int kc,
                                           const std::int8_t* a, long lda,
                                           const std::int8_t* b, long ldb,
                                           const std::int32_t* col_sums,
                                           std::int32_t* acc, long ldacc) {
  const int blocks = rows / kVnniMr;
  vnni_rows<kVnniMr>(blocks, cols, kc, a, lda, b, ldb, col_sums, acc, ldacc);
  const long r = static_cast<long>(blocks) * kVnniMr;
  a += r * lda;
  acc += r * ldacc;
  switch (rows - r) {
    case 1:
      return vnni_rows<1>(1, cols, kc, a, lda, b, ldb, col_sums, acc, ldacc);
    case 2:
      return vnni_rows<2>(1, cols, kc, a, lda, b, ldb, col_sums, acc, ldacc);
    case 3:
      return vnni_rows<3>(1, cols, kc, a, lda, b, ldb, col_sums, acc, ldacc);
  }
}

#endif  // AUTOGEMM_SIMD_SSE && __GNUC__

}  // namespace

const char* qtier_name(QTier tier) {
  switch (tier) {
    case QTier::kAvx512Vnni:
      return "avx512-vnni";
    case QTier::kSse2:
      return "sse2";
    case QTier::kPortable:
      break;
  }
  return "portable";
}

QTier qgemm_tier() {
  static const QTier tier = [] {
#if defined(AUTOGEMM_QKERNEL_VNNI)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni"))
      return QTier::kAvx512Vnni;
#endif
#if defined(AUTOGEMM_SIMD_SSE)
    return QTier::kSse2;
#else
    return QTier::kPortable;
#endif
  }();
  return tier;
}

void qgemm_block(int rows, int cols, int kc, const std::int8_t* a, long lda,
                 const std::int8_t* b, long ldb,
                 const std::int32_t* b_col_sums, std::int32_t* acc,
                 long ldacc) {
  detail::qgemm_block_on(qgemm_tier(), rows, cols, kc, a, lda, b, ldb,
                         b_col_sums, acc, ldacc);
}

bool detail::qgemm_block_on(QTier tier, int rows, int cols, int kc,
                            const std::int8_t* a, long lda,
                            const std::int8_t* b, long ldb,
                            [[maybe_unused]] const std::int32_t* b_col_sums,
                            std::int32_t* acc, long ldacc) {
  assert(lda >= qpacked_ld(kc) && ldb >= qpacked_ld(kc));
  switch (tier) {
    case QTier::kAvx512Vnni:
#if defined(AUTOGEMM_QKERNEL_VNNI)
      if (qgemm_tier() != QTier::kAvx512Vnni) return false;
      qgemm_block_vnni(rows, cols, kc, a, lda, b, ldb, b_col_sums, acc,
                       ldacc);
      return true;
#else
      return false;
#endif
    case QTier::kSse2:
#if defined(AUTOGEMM_SIMD_SSE)
      qgemm_block_sse2(rows, cols, kc, a, lda, b, ldb, acc, ldacc);
      return true;
#else
      return false;
#endif
    case QTier::kPortable:
      break;
  }
  qgemm_block_portable(rows, cols, kc, a, lda, b, ldb, acc, ldacc);
  return true;
}

void requantize_block(common::MatrixView c, const std::int32_t* acc,
                      long ldacc, const float* a_scales, const float* b_scales,
                      float alpha, float beta) {
  for (int r = 0; r < c.rows; ++r) {
    const std::int32_t* accrow = acc + static_cast<long>(r) * ldacc;
    const float sa = alpha * a_scales[r];
    if (beta == 0.0f) {
      for (int j = 0; j < c.cols; ++j)
        c.at(r, j) = sa * b_scales[j] * static_cast<float>(accrow[j]);
    } else {
      for (int j = 0; j < c.cols; ++j)
        c.at(r, j) = sa * b_scales[j] * static_cast<float>(accrow[j]) +
                     beta * c.at(r, j);
    }
  }
}

float bf16_truncate(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits &= 0xffff0000u;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

void bf16_truncate_buffer(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_truncate(src[i]);
}

}  // namespace autogemm::kernels
