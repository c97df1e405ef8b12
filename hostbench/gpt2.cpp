// gpt2_generate: token generation through one GPT-2-small decoder block.
//
// A serial Context runs a dnn::TransformerBlock with the FFN weights in
// int8 and the QKV and out-projection in fp32. Each generation is one
// 64-token prefill followed by 1-token decode steps, each step fed the
// previous step's output. Decode GEMMs are skinny (M = 1) and reuse
// constant weights, so the packed-operand cache (run_const_b,
// run_const_b_i8) and the int8 tier do the work, and neither the pool nor
// fresh packing does any; the prefill is the M = 64 contrast.
//
// The traced run alternates traced and untraced generations
// (obs.trace_overhead_frac) and, in traced ones, replays the block's GEMM
// census through the same Context (dnn.*) and the FFN GEMMs through
// quant::qgemm with prebuilt QPackedB (quant.*).
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dnn/transformer.hpp"
#include "quant/qgemm.hpp"

namespace hostbench {

namespace {

using autogemm::Context;
using autogemm::common::ConstMatrixView;
using autogemm::common::DType;
using autogemm::common::Matrix;
using autogemm::dnn::TransformerBlock;
using autogemm::dnn::TransformerConfig;

constexpr int kPrompt = 64;
constexpr int kDecodeSteps = 32;
constexpr int kPrompts = 4;
// A set-up is mostly first-call GEMM work, slowed by neighbours on the
// host like any timed pass; the median of five moved by up to a quarter
// between ten-run sets of the same code, so it is the median of nine.
constexpr int kSetupReps = 9;
constexpr int kMinGenerations = 20;
// The first decode steps after a prefill run on weights the prefill pushed
// out of cache, so p90 falls on the edge between the warm and the cold
// steps and did not repeat within a tenth across runs; p75 did.
constexpr double kTailPct = 75;
// Neighbours on a shared host slow stretches of a run by up to a third:
// across runs of the same code the median prefill moved by a quarter, its
// fast decile by a tenth or less. gflops is therefore read at the fast
// decile of the prefill time; kMinGenerations leaves two prefills below it.
constexpr double kPrefillPct = 10;
constexpr int kCheckedDecodes = 6;
constexpr int kReplays = 8;

TransformerConfig block_config(std::uint64_t seed) {
  TransformerConfig cfg;  // GPT-2 small: d_model 768, 12 heads, d_ff 3072
  cfg.ff_dtype = DType::kI8;
  cfg.seed = static_cast<unsigned>(seed % 1000003) + 1;
  return cfg;
}

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  autogemm::common::fill_random(m.view(), seed);
  return m;
}

/// The block's weight GEMMs with benchmark-owned weights of the same
/// shapes, for replaying its GEMM census through the Context.
struct Census {
  const TransformerConfig cfg;
  Matrix w_qkv, w_out, w_fc1, w_fc2;
  Census(const TransformerConfig& c, std::uint64_t seed)
      : cfg(c),
        w_qkv(random_matrix(c.d_model, 3 * c.d_model, seed)),
        w_out(random_matrix(c.d_model, c.d_model, seed + 1)),
        w_fc1(random_matrix(c.d_model, c.d_ff, seed + 2)),
        w_fc2(random_matrix(c.d_ff, c.d_model, seed + 3)) {}

  /// B operand of a census shape: a constant weight for the four weight
  /// families, nullptr for the attention GEMMs (activation x activation).
  const Matrix* weight(int n, int k) const {
    const int d = cfg.d_model;
    if (n == 3 * d && k == d) return &w_qkv;
    if (n == d && k == d) return &w_out;
    if (n == cfg.d_ff && k == d) return &w_fc1;
    if (n == d && k == cfg.d_ff) return &w_fc2;
    return nullptr;
  }
  bool int8(int n, int k) const {
    const Matrix* w = weight(n, k);
    return w == &w_fc1 || w == &w_fc2;
  }
  /// The Context entry point forward() uses for a census GEMM.
  const char* entry_point(int n, int k) const {
    if (int8(n, k)) return "core.run_const_b_i8";
    return weight(n, k) ? "core.run_const_b" : "core.run";
  }
};

/// One census GEMM through the same entry point forward() uses.
autogemm::Status census_call(Context& ctx, const Census& census,
                             ConstMatrixView a, ConstMatrixView b,
                             autogemm::common::MatrixView c) {
  if (census.int8(b.cols, b.rows))
    return ctx.run_const_b_i8(a, b, c, 1.0f, 0.0f);
  autogemm::GemmExParams p;
  p.beta = 0.0f;
  if (census.weight(b.cols, b.rows)) return ctx.run_const_b(a, b, c, p);
  return ctx.run(a, b, c, p);
}

/// Operands of one token count's census, built once.
struct CensusOperands {
  std::vector<std::array<int, 3>> shapes;
  std::vector<Matrix> a, b_act, c;
  CensusOperands(const Census& census, int tokens, std::uint64_t seed) {
    shapes = TransformerBlock::gemm_shapes(tokens, census.cfg);
    for (const auto& s : shapes) {
      a.push_back(random_matrix(s[0], s[2], seed++));
      b_act.push_back(census.weight(s[1], s[2])
                          ? Matrix()
                          : random_matrix(s[2], s[1], seed++));
      c.push_back(Matrix(s[0], s[1]));
    }
  }
  ConstMatrixView b(const Census& census, std::size_t i) const {
    const Matrix* w = census.weight(shapes[i][1], shapes[i][2]);
    return w ? w->view() : b_act[i].view();
  }
};

}  // namespace

Outcome run_gpt2(const RunOptions& opt, SpanLog& log) {
  Outcome out;
  Rng rng(opt.seed);
  const TransformerConfig cfg = block_config(rng.next());
  std::vector<Matrix> prompts;
  for (int i = 0; i < kPrompts; ++i)
    prompts.push_back(random_matrix(kPrompt, cfg.d_model, rng.next()));
  const Census census(cfg, rng.next());
  CensusOperands decode_ops(census, 1, rng.next());
  CensusOperands prefill_ops(census, kPrompt, rng.next());
  double prefill_flops = 0;
  for (const auto& s : prefill_ops.shapes) prefill_flops += gemm_flops(s[0], s[1], s[2]);

  Matrix y(kPrompt, cfg.d_model), x(1, cfg.d_model), x_next(1, cfg.d_model);
  auto forward = [&](const TransformerBlock& blk, Context& ctx,
                     ConstMatrixView in, autogemm::common::MatrixView o) {
    const bool ok = blk.forward(in, o, ctx).ok();
    out.count(ok);
    return ok;
  };
  auto last_row = [&](Matrix& dst) {
    for (int c = 0; c < cfg.d_model; ++c) dst.at(0, c) = y.at(kPrompt - 1, c);
  };

  // ---- set-up: construction, weight packing and every distinct shape ----
  std::unique_ptr<Context> ctx;
  std::unique_ptr<TransformerBlock> block;
  std::vector<double> setup_s;
  double first_prefill = 0, first_decode = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    block.reset();
    ctx.reset();
    ScopedSpan span(log, "setup", rep);
    const std::uint64_t t0 = now_ns();
    ctx = std::make_unique<Context>(context_options(1));
    block = std::make_unique<TransformerBlock>(cfg);
    forward(*block, *ctx, prompts[0].view(), y.view());
    const std::uint64_t t1 = now_ns();
    last_row(x);
    forward(*block, *ctx, x.view(), x_next.view());
    const std::uint64_t t2 = now_ns();
    setup_s.push_back(double(t2 - t0) * 1e-9);
    first_prefill = double(t1 - t0);
    first_decode = double(t2 - t1);
  }
  if (log.enabled()) {
    std::uint64_t t0 = now_ns();
    forward(*block, *ctx, prompts[0].view(), y.view());
    const double warm_prefill = double(now_ns() - t0);
    last_row(x);
    t0 = now_ns();
    forward(*block, *ctx, x.view(), x_next.view());
    const double warm_decode = double(now_ns() - t0);
    out.layer["core.setup_resolve_ms"] =
        (first_prefill - warm_prefill + first_decode - warm_decode) * 1e-6;
  }

  // Prebuilt int8 FFN weights for the quant.* probe (traced run only).
  autogemm::quant::QPackedB q_fc1, q_fc2;
  Matrix q_a1 = random_matrix(1, cfg.d_model, rng.next());
  Matrix q_a2 = random_matrix(1, cfg.d_ff, rng.next());
  Matrix q_c1(1, cfg.d_ff), q_c2(1, cfg.d_model);
  if (log.enabled()) {
    const std::uint64_t t0 = now_ns();
    auto a = autogemm::quant::QPackedB::create(census.w_fc1.view());
    auto b = autogemm::quant::QPackedB::create(census.w_fc2.view());
    out.layer["quant.qpack_ms"] = double(now_ns() - t0) * 1e-6;
    out.count(a.ok() && b.ok());
    if (a.ok() && b.ok()) {
      q_fc1 = std::move(*a);
      q_fc2 = std::move(*b);
    }
  }

  // ---- timed window ----
  struct Sample {
    Matrix in, got;
  };
  std::vector<Sample> samples;
  auto keep = [&](ConstMatrixView in, ConstMatrixView got) {
    Sample s{Matrix(in.rows, in.cols), Matrix(got.rows, got.cols)};
    for (int r = 0; r < in.rows; ++r)
      for (int c = 0; c < in.cols; ++c) {
        s.in.at(r, c) = in.at(r, c);
        s.got.at(r, c) = got.at(r, c);
      }
    samples.push_back(std::move(s));
  };
  // Replays a census kReplays times back to back and keeps the second
  // half: the block's own weights stay cache-warm across decode steps, and
  // the replay's weights take a few repetitions to become as warm.
  auto replay = [&](CensusOperands& ops, const char* name, std::uint64_t req,
                    std::vector<double>& warm_ms) {
    for (int rep = 0; rep < kReplays; ++rep) {
      ScopedSpan s(log, name, req);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < ops.shapes.size(); ++i) {
        const auto b = ops.b(census, i);
        ScopedSpan call(log, census.entry_point(b.cols, b.rows), req);
        out.count(census_call(*ctx, census, ops.a[i].view(), b, ops.c[i].view())
                      .ok());
      }
      if (rep >= kReplays / 2) warm_ms.push_back(double(now_ns() - t0) * 1e-6);
    }
  };

  SpanLog untraced(false);
  std::vector<double> prefill_ms, decode_ms, decode_ms_untraced;
  std::vector<double> decode_gemm_ms, prefill_gemm_ms, qgemm_us;
  double decode_total_ms = 0;
  std::size_t decode_count = 0;
  const auto before = ctx->stats();
  const std::uint64_t start = now_ns();
  std::uint64_t gen = 0;
  for (;; ++gen) {
    const double elapsed = double(now_ns() - start) * 1e-9;
    if ((elapsed >= opt.seconds && gen >= kMinGenerations) ||
        elapsed >= 3 * opt.seconds)
      break;
    const bool traced = log.enabled() && gen % 2 == 0;
    SpanLog& l = log.enabled() && !traced ? untraced : log;
    ScopedSpan g(l, "generation", gen);
    const Matrix& prompt = prompts[rng.below(kPrompts)];
    {
      ScopedSpan s(l, "dnn.prefill", gen);
      const std::uint64_t t0 = now_ns();
      forward(*block, *ctx, prompt.view(), y.view());
      prefill_ms.push_back(double(now_ns() - t0) * 1e-6);
    }
    if (gen < 2) keep(prompt.view(), y.view());
    last_row(x);
    const int checked_step =
        gen < kCheckedDecodes ? int(rng.below(kDecodeSteps)) : -1;
    for (int step = 0; step < kDecodeSteps; ++step) {
      ScopedSpan s(l, "dnn.decode", gen);
      const std::uint64_t t0 = now_ns();
      forward(*block, *ctx, x.view(), x_next.view());
      const double ms = double(now_ns() - t0) * 1e-6;
      (log.enabled() && !traced ? decode_ms_untraced : decode_ms).push_back(ms);
      decode_total_ms += ms;
      ++decode_count;
      if (step == checked_step) keep(x.view(), x_next.view());
      std::swap(x, x_next);
    }
    if (!traced) continue;
    replay(decode_ops, "dnn.decode_gemm", gen, decode_gemm_ms);
    replay(prefill_ops, "dnn.prefill_gemm", gen, prefill_gemm_ms);
    if (q_fc1.empty()) continue;
    autogemm::quant::QGemmOptions qo;
    qo.beta = 0.0f;
    for (int rep = 0; rep < kReplays; ++rep) {
      ScopedSpan s(log, "quant.qgemm", gen);
      const std::uint64_t t0 = now_ns();
      out.count(autogemm::quant::qgemm(q_a1.view(), q_fc1, q_c1.view(), qo).ok());
      out.count(autogemm::quant::qgemm(q_a2.view(), q_fc2, q_c2.view(), qo).ok());
      if (rep >= kReplays / 2) qgemm_us.push_back(double(now_ns() - t0) * 1e-3);
    }
  }
  const auto delta = stats_delta(ctx->stats(), before);

  // ---- output checks, after the window ----
  // Whole-block outputs against the same block with fp32 FFN weights (the
  // weights depend only on the config's dimensions and seed).
  {
    TransformerConfig cfg32 = cfg;
    cfg32.ff_dtype = DType::kF32;
    Context ref_ctx(context_options(1));
    const TransformerBlock ref_block(cfg32);
    for (const Sample& s : samples) {
      Matrix want(s.got.rows(), s.got.cols());
      const bool ok = forward(ref_block, ref_ctx, s.in.view(), want.view());
      out.count(ok && close_i8(s.got.view(), want.view()));
    }
  }
  // The decode census through the warm Context against reference_gemm.
  for (std::size_t i = 0; i < decode_ops.shapes.size(); ++i) {
    const ConstMatrixView b = decode_ops.b(census, i);
    Matrix c(decode_ops.shapes[i][0], decode_ops.shapes[i][1]);
    const bool ok =
        census_call(*ctx, census, decode_ops.a[i].view(), b, c.view()).ok();
    const Matrix want = reference(decode_ops.a[i].view(), b);
    out.count(ok && (census.int8(b.cols, b.rows)
                         ? close_i8(c.view(), want.view())
                         : close_f32(c.view(), want.view(), b.rows)));
  }

  const double decode_p50 = median(decode_ms);
  const double prefill_fast = percentile(prefill_ms, kPrefillPct);
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["gflops"] = prefill_flops / (prefill_fast * 1e6);
  out.e2e["ops_per_s"] = double(decode_count) / (decode_total_ms * 1e-3);
  out.e2e["latency_ms_p50"] = decode_p50;
  out.e2e["latency_ms_tail"] = percentile(decode_ms, kTailPct);
  if (!log.enabled())
    out.require_tail("gpt2_generate decode steps", decode_ms.size(), kTailPct);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "gpt2_generate: prefill_ms_p10=%.3f prefill_ms_p50=%.3f "
                "decode_ms_p50=%.4f decode_ms_p75=%.4f (generations=%llu, "
                "decode steps=%zu, checked outputs=%zu)",
                prefill_fast, median(prefill_ms), decode_p50,
                percentile(decode_ms, kTailPct),
                static_cast<unsigned long long>(gen), decode_ms.size(),
                samples.size());
  out.notes.push_back(buf);
  if (!log.enabled()) return out;

  const double decode_gemm = median(decode_gemm_ms);
  const double prefill_gemm = median(prefill_gemm_ms);
  out.layer["dnn.decode_gemm_ms"] = decode_gemm;
  out.layer["dnn.decode_other_ms"] = decode_p50 - decode_gemm;
  out.layer["dnn.prefill_gemm_ms"] = prefill_gemm;
  out.layer["dnn.prefill_other_ms"] = median(prefill_ms) - prefill_gemm;
  out.layer["quant.qgemm_us"] = median(qgemm_us);
  out.layer["core.verify_probes"] = double(ctx->health().probes);
  out.layer["obs.trace_overhead_frac"] = decode_p50 / median(decode_ms_untraced) - 1;
  add_core_counters(out, delta, double(gen));
  std::vector<std::array<int, 3>> shapes = decode_ops.shapes;
  shapes.insert(shapes.end(), prefill_ops.shapes.begin(), prefill_ops.shapes.end());
  add_kernel_layers(out, *ctx, shapes);
  return out;
}

}  // namespace hostbench
