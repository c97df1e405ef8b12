// The quantized tier: symmetric int8 primitives (scales, round trip,
// granularity ordering), qgemm's accuracy contract against the fp64
// reference, bit identity across the int8 kernel tiers, the Context entry
// points and
// their packed-cache/invalidate contract, the tuning-records dtype axis
// (never cross-resolving), serve's (shape, dtype) bucketing, the obs
// dtype labels, and the transformer block that strings the GEMM
// census together.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/transformer.hpp"
#include "kernels/qkernel.hpp"
#include "obs/metrics.hpp"
#include "quant/qgemm.hpp"
#include "quant/qpacked.hpp"
#include "quant/quantize.hpp"
#include "serve/engine.hpp"
#include "tune/records.hpp"

namespace autogemm {
namespace {

using common::ConstMatrixView;
using common::DType;
using common::Matrix;

// Irregular shapes in the paper's style: prime-ish dims, skinny-M decode
// rows, wide-N FC panels.
struct Shape {
  int m, n, k;
};
const Shape kIrregular[] = {
    {5, 10, 17}, {3, 7, 23},  {33, 200, 17}, {1, 27, 64},
    {7, 22, 96}, {64, 64, 64}, {2, 30, 129},
};

double qgemm_err(int m, int n, int k, unsigned seed,
                 const quant::QGemmOptions& opts) {
  Matrix a(m, k), b(k, n), c(m, n), ref(m, n);
  common::fill_random(a.view(), seed);
  common::fill_random(b.view(), seed + 1);
  common::reference_gemm(a.view(), b.view(), ref.view());
  quant::QGemmOptions o = opts;
  o.beta = 0.0f;
  EXPECT_TRUE(quant::qgemm(a.view(), b.view(), c.view(), o).ok());
  return common::rel_frobenius_error(c.view(), ref.view());
}

// ---------------------------------------------------------------------
// Quantization primitives

TEST(Quantize, RoundTripStaysWithinReportedBound) {
  Matrix a(9, 37);
  common::fill_random(a.view(), 11);
  const std::vector<float> scales = quant::per_row_scales(a.view());
  std::vector<std::int8_t> q(9 * 37);
  quant::quantize_rows(a.view(), scales.data(), q.data(), 37);
  Matrix back(9, 37);
  quant::dequantize_rows(q.data(), 37, scales.data(), back.view());
  const float bound = quant::round_trip_bound(scales.data(), scales.size());
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      EXPECT_LE(std::fabs(a.at(r, c) - back.at(r, c)), bound + 1e-7f)
          << "(" << r << "," << c << ")";
}

TEST(Quantize, AllZeroChannelQuantizesExactly) {
  Matrix a(3, 8);  // Matrix storage zero-initializes
  const std::vector<float> scales = quant::per_row_scales(a.view());
  for (float s : scales) EXPECT_GT(s, 0.0f);  // division always defined
  std::vector<std::int8_t> q(3 * 8, 99);
  quant::quantize_rows(a.view(), scales.data(), q.data(), 8);
  for (std::int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(Quantize, PerChannelNeverWorseThanPerTensor) {
  // Rows of wildly different magnitude: per-tensor's single scale wastes
  // resolution on the small rows; per-channel tracks each.
  Matrix a(4, 64), b(64, 16);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  for (int c = 0; c < 64; ++c) a.at(2, c) *= 100.0f;
  Matrix ref(4, 16), c_chan(4, 16), c_tens(4, 16);
  common::reference_gemm(a.view(), b.view(), ref.view());
  quant::QGemmOptions o;
  o.beta = 0.0f;
  o.granularity = quant::Granularity::kPerChannel;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_chan.view(), o).ok());
  o.granularity = quant::Granularity::kPerTensor;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_tens.view(), o).ok());
  EXPECT_LE(common::rel_frobenius_error(c_chan.view(), ref.view()),
            common::rel_frobenius_error(c_tens.view(), ref.view()) + 1e-9);
}

// ---------------------------------------------------------------------
// qgemm accuracy contract

TEST(QGemm, IrregularShapesMeetFrobeniusContract) {
  for (const Shape& s : kIrregular) {
    const double err = qgemm_err(s.m, s.n, s.k, 17, {});
    EXPECT_LE(err, 1e-2) << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(QGemm, DeepKAccumulatesWithoutOverflow) {
  // K = 16384 stresses the int32 accumulator: 16384 * 127 * 127 ~ 2.6e8,
  // well inside int32 — and the noise-vs-signal ratio must stay flat in K
  // (both norms grow as sqrt(K)).
  EXPECT_LE(qgemm_err(3, 5, 16384, 29, {}), 1e-2);
}

TEST(QGemm, PortableAndSimdBitIdentical) {
  for (const Shape& s : kIrregular) {
    Matrix a(s.m, s.k), b(s.k, s.n), c_port(s.m, s.n), c_simd(s.m, s.n);
    common::fill_random(a.view(), 41);
    common::fill_random(b.view(), 42);
    quant::QGemmOptions o;
    o.beta = 0.0f;
    o.force_portable = true;
    ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_port.view(), o).ok());
    o.force_portable = false;
    ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c_simd.view(), o).ok());
    for (int r = 0; r < s.m; ++r)
      for (int cc = 0; cc < s.n; ++cc)
        ASSERT_EQ(c_port.at(r, cc), c_simd.at(r, cc))
            << s.m << "x" << s.n << "x" << s.k << " @ " << r << "," << cc;
  }
}

// ---------------------------------------------------------------------
// int8 kernel tiers: every tier the host runs computes the portable
// kernel's integers

/// `count` int8 rows of k values in the kernels' packed layout (ld padded
/// to kQKStep, zero tails) with each row's exact sum — what qpack_cols
/// produces, with the values chosen directly.
struct QRows {
  std::vector<std::int8_t> data;
  std::vector<std::int32_t> sums;
  long ld = 0;
};

enum class QFill { kRandom, kPlus127, kMinus127, kAlternating };

QRows make_qrows(int count, int k, QFill fill, std::mt19937& rng) {
  QRows q;
  q.ld = kernels::qpacked_ld(k);
  q.data.assign(static_cast<std::size_t>(count * q.ld), 0);
  q.sums.assign(static_cast<std::size_t>(count), 0);
  std::uniform_int_distribution<int> dist(-127, 127);
  for (int r = 0; r < count; ++r)
    for (int i = 0; i < k; ++i) {
      const int v = fill == QFill::kRandom     ? dist(rng)
                    : fill == QFill::kPlus127  ? 127
                    : fill == QFill::kMinus127 ? -127
                                               : (i % 2 ? 127 : -127);
      q.data[static_cast<std::size_t>(r * q.ld + i)] =
          static_cast<std::int8_t>(v);
      q.sums[static_cast<std::size_t>(r)] += v;
    }
  return q;
}

/// Runs every tier on (a, b) and expects each one this host supports to
/// reproduce the portable kernel's accumulators exactly; true when the
/// host's own pick (qgemm_tier) was among them.
bool expect_tiers_match_portable(int m, int n, int k, const QRows& a,
                                 const QRows& b) {
  std::vector<std::int32_t> want(static_cast<std::size_t>(m * n));
  kernels::qgemm_block_portable(m, n, k, a.data.data(), a.ld, b.data.data(),
                                b.ld, want.data(), n);
  bool host_tier_ran = false;
  for (kernels::QTier tier :
       {kernels::QTier::kAvx512Vnni, kernels::QTier::kSse2,
        kernels::QTier::kPortable}) {
    std::vector<std::int32_t> got(want.size(), -1);
    if (!kernels::detail::qgemm_block_on(tier, m, n, k, a.data.data(), a.ld,
                                         b.data.data(), b.ld, b.sums.data(),
                                         got.data(), n))
      continue;
    host_tier_ran |= tier == kernels::qgemm_tier();
    EXPECT_EQ(got, want) << kernels::qtier_name(tier) << " " << m << "x" << n
                         << "x" << k;
  }
  return host_tier_ran;
}

TEST(QKernelTiers, EveryHostTierBitIdenticalToPortable) {
  // Rows around the 4-row VNNI block and qgemm's 64-row block; columns
  // leaving a ragged tail after every tile width (15, 10, 7, 5, 4); K on
  // both sides of the 16-byte pad and the 64-byte zmm step, up to deep K.
  // Fills cycle through random and saturated +-127 operands: a = +127 is
  // the largest u8 after the offset flip, a = -127 the smallest.
  const QFill fills[] = {QFill::kRandom, QFill::kPlus127, QFill::kMinus127,
                         QFill::kAlternating};
  std::mt19937 rng(97);
  int cases = 0;
  for (int m : {1, 2, 3, 4, 5, 64, 65})
    for (int n : {1, 6, 16, 37})
      for (int k : {1, 17, 63, 64, 65, 131, 768, 16384}) {
        const QRows a = make_qrows(m, k, fills[cases % 4], rng);
        const QRows b = make_qrows(n, k, fills[(cases / 4 + cases) % 4], rng);
        ASSERT_TRUE(expect_tiers_match_portable(m, n, k, a, b));
        ++cases;
        if (HasFailure()) return;
      }
}

TEST(QKernelTiers, KPastTheU8BoundStaysExact) {
  // 255 * 127 * 70'000 > 2^31: the VNNI tier's biased u8 * s8 sum leaves
  // int32 here while the true sum (<= 127 * 127 * 70'000) does not. Every
  // tier must still match the portable kernel.
  constexpr int kM = 3, kN = 5, kK = 70'000;
  std::mt19937 rng(5);
  for (const auto& [fa, fb] :
       {std::pair{QFill::kPlus127, QFill::kPlus127},
        std::pair{QFill::kPlus127, QFill::kMinus127},
        std::pair{QFill::kAlternating, QFill::kAlternating},
        std::pair{QFill::kRandom, QFill::kRandom}}) {
    const QRows a = make_qrows(kM, kK, fa, rng);
    const QRows b = make_qrows(kN, kK, fb, rng);
    EXPECT_TRUE(expect_tiers_match_portable(kM, kN, kK, a, b));
  }
}

TEST(QGemm, BetaZeroOverwritesGarbageAndAlphaScales) {
  Matrix a(4, 16), b(16, 6), c(4, 6), ref(4, 6);
  common::fill_random(a.view(), 5);
  common::fill_random(b.view(), 6);
  common::reference_gemm(a.view(), b.view(), ref.view());
  for (int r = 0; r < 4; ++r)
    for (int cc = 0; cc < 6; ++cc) c.at(r, cc) = 1e30f;  // must never be read
  quant::QGemmOptions o;
  o.alpha = 2.0f;
  o.beta = 0.0f;
  ASSERT_TRUE(quant::qgemm(a.view(), b.view(), c.view(), o).ok());
  Matrix ref2(4, 6);
  for (int r = 0; r < 4; ++r)
    for (int cc = 0; cc < 6; ++cc) ref2.at(r, cc) = 2.0f * ref.at(r, cc);
  EXPECT_LE(common::rel_frobenius_error(c.view(), ref2.view()), 1e-2);
}

TEST(QGemm, Bf16PathMeetsLooserContract) {
  // 8 significand bits: worst-case relative error per product ~ 2^-8; the
  // norm ratio stays well under 1e-2 on well-conditioned data.
  Matrix a(6, 48), b(48, 10), c(6, 10), ref(6, 10);
  common::fill_random(a.view(), 51);
  common::fill_random(b.view(), 52);
  common::reference_gemm(a.view(), b.view(), ref.view());
  ASSERT_TRUE(quant::gemm_bf16(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());
  EXPECT_LE(common::rel_frobenius_error(c.view(), ref.view()), 1e-2);
}

TEST(QPacked, CreateValidatesLikePackedB) {
  EXPECT_EQ(quant::QPackedB::create(ConstMatrixView{nullptr, 4, 4, 4})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Matrix b(8, 8);
  ConstMatrixView bad = b.view();
  bad.ld = 4;  // ld < cols
  EXPECT_EQ(quant::QPackedB::create(bad).status().code(),
            StatusCode::kInvalidArgument);
  auto ok = quant::QPackedB::create(b.view());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().cols(), 8);
}

// ---------------------------------------------------------------------
// Context entry points + packed cache

TEST(ContextQuant, RunI8MatchesReferenceWithinContract) {
  Context ctx(ContextOptions{});
  Matrix a(9, 33), b(33, 14), c(9, 14), ref(9, 14);
  common::fill_random(a.view(), 61);
  common::fill_random(b.view(), 62);
  common::reference_gemm(a.view(), b.view(), ref.view());
  ASSERT_TRUE(ctx.run_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());
  EXPECT_LE(common::rel_frobenius_error(c.view(), ref.view()), 1e-2);
}

TEST(ContextQuant, ConstBCachesQuantizedPackAndInvalidateDropsBothTiers) {
  Context ctx(ContextOptions{});
  Matrix a(5, 24), b(24, 12), c(5, 12);
  common::fill_random(a.view(), 71);
  common::fill_random(b.view(), 72);

  // fp32 and int8 const-B packings of the SAME buffer must coexist.
  GemmExParams p;
  p.beta = 0.0f;
  ASSERT_TRUE(ctx.run_const_b(a.view(), b.view(), c.view(), p).ok());
  ASSERT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
  EXPECT_EQ(ctx.packed_cache_size(), 2u);
  const std::uint64_t misses = ctx.stats().packed_misses;

  // Second int8 call: cache hit, no new pack.
  ASSERT_TRUE(ctx.run_const_b_i8(a.view(), b.view(), c.view(), 1, 0).ok());
  EXPECT_EQ(ctx.stats().packed_misses, misses);
  EXPECT_GE(ctx.stats().packed_hits, 1u);

  // invalidate(ptr) is dtype-blind: one call drops both tiers' entries.
  EXPECT_EQ(ctx.invalidate(b.view().data), 2u);
  EXPECT_EQ(ctx.packed_cache_size(), 0u);
}

TEST(ContextQuant, RunI8ValidatesOperands) {
  Context ctx(ContextOptions{});
  Matrix a(4, 8), b(8, 4), c(4, 5);  // C shape mismatch
  EXPECT_EQ(ctx.run_i8(a.view(), b.view(), c.view()).code(),
            StatusCode::kInvalidArgument);
  Matrix c2(4, 4);
  EXPECT_EQ(ctx.run_i8(a.view(), b.view(), c2.view(), 1.0f,
                       std::nanf("")).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Tuning records: dtype is a key axis, never cross-resolved

TEST(RecordsDType, SameShapeDifferentDTypesCoexistAndNeverCross) {
  tune::TuningRecords recs;
  tune::Candidate f32;
  f32.mc = 64;
  f32.nc = 64;
  f32.kc = 64;
  tune::Candidate i8 = f32;
  i8.mc = 128;
  i8.dtype = DType::kI8;
  const tune::ShapeKey shape{64, 64, 64};
  EXPECT_TRUE(recs.add(shape, f32, 1.0));
  EXPECT_TRUE(recs.add(shape, i8, 2.0));  // not an improvement fight: new slot
  EXPECT_EQ(recs.size(), 2u);

  const auto got_f32 =
      recs.lookup(shape, backend::BackendId::kNeon, DType::kF32);
  const auto got_i8 = recs.lookup(shape, backend::BackendId::kNeon, DType::kI8);
  ASSERT_TRUE(got_f32.has_value());
  ASSERT_TRUE(got_i8.has_value());
  EXPECT_EQ(got_f32->mc, 64);
  EXPECT_EQ(got_i8->mc, 128);

  // Nearest-shape fallback must stay inside the dtype: an fp32-only table
  // never resolves an int8 caller, however close the shape.
  tune::TuningRecords f32_only;
  EXPECT_TRUE(f32_only.add(shape, f32, 1.0));
  EXPECT_TRUE(f32_only
                  .lookup_nearest({65, 64, 64}, 1.0, backend::BackendId::kNeon,
                                  DType::kF32)
                  .has_value());
  EXPECT_FALSE(f32_only
                   .lookup_nearest({65, 64, 64}, 1.0, backend::BackendId::kNeon,
                                   DType::kI8)
                   .has_value());
}

TEST(RecordsDType, DTypeSurvivesSaveLoadRoundTrip) {
  tune::TuningRecords recs;
  tune::Candidate i8;
  i8.mc = 96;
  i8.nc = 48;
  i8.kc = 32;
  i8.dtype = DType::kI8;
  EXPECT_TRUE(recs.add({33, 200, 17}, i8, 0.5));
  std::stringstream ss;
  ASSERT_TRUE(recs.save(ss).ok());
  tune::TuningRecords loaded;
  tune::TuningRecords::LoadReport rep;
  ASSERT_TRUE(loaded.load(ss, &rep).ok());
  EXPECT_EQ(rep.skipped, 0u);
  EXPECT_FALSE(
      loaded.lookup({33, 200, 17}, backend::BackendId::kNeon, DType::kF32)
          .has_value());
  const auto got =
      loaded.lookup({33, 200, 17}, backend::BackendId::kNeon, DType::kI8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->mc, 96);
  EXPECT_EQ(got->dtype, DType::kI8);
}

// ---------------------------------------------------------------------
// Serve: (shape, dtype) buckets

TEST(ServeQuant, SameShapeDifferentDTypeNeverCoBatch) {
  Context ctx(ContextOptions{});
  serve::EngineOptions opts;
  opts.start_paused = true;  // build the backlog, then release at once
  opts.max_batch_delay_ns = 0;
  serve::Engine engine(ctx, opts);

  struct Req {
    Matrix a, b, c, ref;
    Req(int m, int n, int k, int seed)
        : a(m, k), b(k, n), c(m, n), ref(m, n) {
      common::fill_random(a.view(), seed);
      common::fill_random(b.view(), seed + 1);
      common::reference_gemm(a.view(), b.view(), ref.view());
    }
  };
  std::vector<std::unique_ptr<Req>> reqs;
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(std::make_unique<Req>(8, 8, 8, 80 + i));
    serve::GemmRequest r;
    r.a = reqs.back()->a.view();
    r.b = reqs.back()->b.view();
    r.c = reqs.back()->c.view();
    r.dtype = i < 4 ? DType::kF32 : DType::kI8;
    fs.push_back(engine.submit(r));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();
  const serve::ServerStats st = engine.stats();
  // One shape, two dtypes: exactly two batches, never one mixed batch.
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.batched_requests, 8u);
  EXPECT_TRUE(st.accounting_clean());
  for (int i = 0; i < 8; ++i) {
    const double tol = i < 4 ? 1e-5 : 1e-2;
    EXPECT_LE(common::rel_frobenius_error(reqs[i]->c.view(),
                                          reqs[i]->ref.view()),
              tol)
        << "request " << i;
  }
}

TEST(ServeQuant, Bf16RequestsRejectedAtAdmission) {
  Context ctx(ContextOptions{});
  serve::Engine engine(ctx);
  Matrix a(4, 4), b(4, 4), c(4, 4);
  serve::GemmRequest r;
  r.a = a.view();
  r.b = b.view();
  r.c = c.view();
  r.dtype = DType::kBf16;
  EXPECT_EQ(engine.submit(r).get().code(), StatusCode::kInvalidArgument);
  engine.shutdown();
  EXPECT_TRUE(engine.stats().accounting_clean());
}

TEST(ServeQuant, HotShapesAggregateAcrossDTypes) {
  Context ctx(ContextOptions{});
  serve::Engine engine(ctx);
  Matrix a(8, 8), b(8, 8);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  std::vector<Matrix> cs;
  for (int i = 0; i < 6; ++i) cs.emplace_back(8, 8);
  for (int i = 0; i < 6; ++i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = cs[i].view();
    r.dtype = i % 2 == 0 ? DType::kF32 : DType::kI8;
    EXPECT_TRUE(engine.submit(r).get().ok());
  }
  const auto hot = engine.hot_shapes(4);
  ASSERT_EQ(hot.size(), 1u);  // one logical shape, both dtypes merged
  EXPECT_EQ(hot[0].requests, 6u);
  engine.shutdown();
}

// ---------------------------------------------------------------------
// Obs: dtype labels

TEST(ObsQuant, GemmSecondsDtypeTwinsObserveOnMatchingTier) {
  // A process-unique shape so this test owns its label (the FCFS cap set
  // is process-wide).
  constexpr int kM = 19, kN = 21, kK = 43;
  const std::string f32_name =
      "autogemm_gemm_seconds{shape=\"19x21x43\",dtype=\"f32\"}";
  const std::string i8_name =
      "autogemm_gemm_seconds{shape=\"19x21x43\",dtype=\"i8\"}";
  auto& reg = obs::default_registry();
  const std::uint64_t f32_before = reg.histogram(f32_name).snapshot().count;
  const std::uint64_t i8_before = reg.histogram(i8_name).snapshot().count;

  Context ctx(ContextOptions{});
  Matrix a(kM, kK), b(kK, kN), c(kM, kN);
  common::fill_random(a.view(), 91);
  common::fill_random(b.view(), 92);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  ASSERT_TRUE(ctx.run_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());
  ASSERT_TRUE(ctx.run_i8(a.view(), b.view(), c.view(), 1.0f, 0.0f).ok());

  EXPECT_EQ(reg.histogram(f32_name).snapshot().count, f32_before + 1);
  EXPECT_EQ(reg.histogram(i8_name).snapshot().count, i8_before + 2);
}

TEST(ObsQuant, ServeBatchCounterDtypeTwinSplitsByTier) {
  auto& reg = obs::default_registry();
  const std::uint64_t i8_before =
      reg.counter("autogemm_serve_batches_total{dtype=\"i8\"}").value();
  const std::uint64_t f32_before =
      reg.counter("autogemm_serve_batches_total{dtype=\"f32\"}").value();

  Context ctx(ContextOptions{});
  serve::EngineOptions opts;
  opts.start_paused = true;
  opts.max_batch_delay_ns = 0;
  serve::Engine engine(ctx, opts);
  Matrix a(6, 6), b(6, 6);
  common::fill_random(a.view(), 7);
  common::fill_random(b.view(), 8);
  std::vector<Matrix> cs;
  for (int i = 0; i < 4; ++i) cs.emplace_back(6, 6);
  std::vector<std::future<Status>> fs;
  for (int i = 0; i < 4; ++i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = cs[i].view();
    r.dtype = DType::kI8;
    fs.push_back(engine.submit(r));
  }
  engine.resume();
  for (auto& f : fs) EXPECT_TRUE(f.get().ok());
  engine.shutdown();

  EXPECT_EQ(reg.counter("autogemm_serve_batches_total{dtype=\"i8\"}").value(),
            i8_before + 1);
  EXPECT_EQ(reg.counter("autogemm_serve_batches_total{dtype=\"f32\"}").value(),
            f32_before);
}

// ---------------------------------------------------------------------
// Transformer block

TEST(Transformer, ForwardRunsAtAllDTypeChoicesAndTracksFP32) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.n_heads = 4;
  cfg.d_ff = 64;
  const int tokens = 11;
  Matrix x(tokens, cfg.d_model);
  common::fill_random(x.view(), 101);
  Context ctx(ContextOptions{});

  dnn::TransformerBlock fp32_block(cfg);
  Matrix y_fp32(tokens, cfg.d_model);
  ASSERT_TRUE(fp32_block.forward(x.view(), y_fp32.view(), ctx).ok());

  dnn::TransformerConfig qcfg = cfg;
  qcfg.qkv_dtype = DType::kI8;
  qcfg.attn_out_dtype = DType::kI8;
  qcfg.ff_dtype = DType::kI8;
  dnn::TransformerBlock i8_block(qcfg);
  Matrix y_i8(tokens, cfg.d_model);
  ASSERT_TRUE(i8_block.forward(x.view(), y_i8.view(), ctx).ok());

  // Same seed => same weights; the int8-weight block must track the fp32
  // one within the quantized tier's norm contract, loosened for the
  // nonlinear stages (softmax/gelu amplify nothing here — residuals
  // dominate the norm).
  EXPECT_LE(common::rel_frobenius_error(y_i8.view(), y_fp32.view()), 5e-2);
  EXPECT_GT(common::rel_frobenius_error(y_i8.view(), y_fp32.view()), 0.0);
}

TEST(Transformer, ValidationRejectsBadShapesAndDTypes) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 16;
  cfg.n_heads = 4;
  cfg.d_ff = 32;
  dnn::TransformerBlock block(cfg);
  Context ctx(ContextOptions{});
  Matrix x(5, 16), y_bad(5, 8);
  EXPECT_EQ(block.forward(x.view(), y_bad.view(), ctx).code(),
            StatusCode::kInvalidArgument);
  dnn::TransformerConfig bad = cfg;
  bad.ff_dtype = DType::kBf16;  // no Context entry point
  dnn::TransformerBlock bad_block(bad);
  Matrix y(5, 16);
  EXPECT_EQ(bad_block.forward(x.view(), y.view(), ctx).code(),
            StatusCode::kInvalidArgument);
}

TEST(Transformer, GemmShapeCensusMatchesConfig) {
  dnn::TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 256;
  const auto shapes = dnn::TransformerBlock::gemm_shapes(1, cfg);
  // QKV + 2 per head + out + FC1 + FC2.
  ASSERT_EQ(shapes.size(), 4u + 2u * 4u);
  EXPECT_EQ(shapes.front(), (std::array<int, 3>{1, 192, 64}));
  EXPECT_EQ(shapes.back(), (std::array<int, 3>{1, 64, 256}));
  EXPECT_TRUE(dnn::TransformerBlock::gemm_shapes(0, cfg).empty());
}

}  // namespace
}  // namespace autogemm
