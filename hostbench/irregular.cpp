// irregular_fp32: warm, closed-loop Context::run over the paper's traffic.
//
// Each round runs the 20 ResNet-50 Table V shapes once on a pooled Context
// and once on a serial one, then the Fig 8 small cubes on the serial one.
// The ResNet passes put kernels, packing and the pool to work; on the cubes
// the per-call cost of core (plan lookup, validation, dispatch) dominates.
// serve, quant and dnn are not touched.
//
// The traced run adds, per round, a replay of the serial pass through the
// free packing and packed-GEMM functions (kernels.*), the cubes through the
// free gemm() (core.run_overhead_ns), and an untraced pooled pass
// (obs.trace_overhead_frac).
#include <memory>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dnn/shapes.hpp"

namespace hostbench {

namespace {

using autogemm::Context;
using autogemm::common::Matrix;

constexpr int kCubes[] = {2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128};
// One small pass calls every cube this many times, so a pass lasts
// milliseconds rather than a handful of timer ticks.
constexpr int kCubeReps = 20;
// A set-up is mostly first-call GEMM work, slowed by neighbours on the
// host like any timed pass; the median of five moved by up to a quarter
// between ten-run sets of the same code, so it is the median of nine.
constexpr int kSetupReps = 9;
// The latency tail is p75 of the serial passes: with at least 40 passes
// it leaves 10 samples beyond it.
constexpr int kMinRounds = 40;
constexpr double kTailPct = 75;

struct Operand {
  int m, n, k;
  Matrix a, b, c_pool, c_serial;
  Operand(int m_, int n_, int k_, std::uint64_t seed)
      : m(m_), n(n_), k(k_), a(m_, k_), b(k_, n_), c_pool(m_, n_),
        c_serial(m_, n_) {
    autogemm::common::fill_random(a.view(), seed);
    autogemm::common::fill_random(b.view(), seed + 1);
    c_pool.set_zero();
    c_serial.set_zero();
  }
};

/// Per-request sums of `name` spans whose parent span is named `parent`.
std::map<std::uint64_t, double> sum_under(const std::vector<Span>& spans,
                                          const char* name,
                                          const char* parent) {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans)
    if (std::string(s.name) == name && s.parent >= 0 &&
        std::string(spans[s.parent].name) == parent)
      out[s.req] += s.dur_ns();
  return out;
}

std::vector<double> values(const std::map<std::uint64_t, double>& m,
                           double scale) {
  std::vector<double> v;
  for (const auto& [k, x] : m) v.push_back(x * scale);
  return v;
}

}  // namespace

Outcome run_irregular(const RunOptions& opt, SpanLog& log) {
  Outcome out;
  Rng rng(opt.seed);
  std::vector<std::unique_ptr<Operand>> resnet, cubes;
  for (const auto& l : autogemm::dnn::resnet50_layers())
    resnet.push_back(std::make_unique<Operand>(int(l.m), int(l.n), int(l.k),
                                               rng.next()));
  for (int s : kCubes)
    cubes.push_back(std::make_unique<Operand>(s, s, s, rng.next()));
  double resnet_flops = 0, cube_flops = 0;
  std::vector<std::array<int, 3>> shapes;
  for (const auto& o : resnet) {
    resnet_flops += gemm_flops(o->m, o->n, o->k);
    shapes.push_back({o->m, o->n, o->k});
  }
  for (const auto& o : cubes) {
    cube_flops += gemm_flops(o->m, o->n, o->k) * kCubeReps;
    shapes.push_back({o->m, o->n, o->k});
  }

  // The pool's caller participates, so nproc - 1 workers fill the cores.
  const unsigned workers = opt.nproc > 1 ? opt.nproc - 1 : 1;
  out.extra_threads = workers > 1 ? workers : 0;
  const unsigned participants = workers > 1 ? workers + 1 : 1;

  auto run = [&](Context& ctx, Operand& o, Matrix& c) {
    const bool ok = ctx.run(o.a.view(), o.b.view(), c.view()).ok();
    out.count(ok);
  };
  std::unique_ptr<Context> pooled, serial;
  // Every shape once, in set-up order; returns each call's time in ns.
  auto each_shape = [&] {
    std::vector<double> ns;
    auto timed = [&](Context& ctx, Operand& o, Matrix& c) {
      const std::uint64_t t0 = now_ns();
      run(ctx, o, c);
      ns.push_back(double(now_ns() - t0));
    };
    for (auto& o : resnet) {
      timed(*pooled, *o, o->c_pool);
      timed(*serial, *o, o->c_serial);
    }
    for (auto& o : cubes) timed(*serial, *o, o->c_serial);
    return ns;
  };

  // ---- set-up: construction plus the first call of every shape ----
  std::vector<double> setup_s, first_ns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pooled.reset();
    serial.reset();
    ScopedSpan span(log, "setup", rep);
    const std::uint64_t t0 = now_ns();
    pooled = std::make_unique<Context>(context_options(workers));
    serial = std::make_unique<Context>(context_options(1));
    first_ns = each_shape();
    setup_s.push_back(double(now_ns() - t0) * 1e-9);
  }
  if (log.enabled()) {
    // First call minus a warm call of the same shape, in the same order.
    const std::vector<double> warm_ns = each_shape();
    double resolve_ns = 0;
    for (std::size_t i = 0; i < warm_ns.size(); ++i)
      resolve_ns += first_ns[i] - warm_ns[i];
    out.layer["core.setup_resolve_ms"] = resolve_ns * 1e-6;
  }

  std::vector<std::shared_ptr<const autogemm::Plan>> serial_plans, cube_plans;
  for (auto& o : resnet) serial_plans.push_back(serial->plan_for(o->m, o->n, o->k));
  for (auto& o : cubes) cube_plans.push_back(serial->plan_for(o->m, o->n, o->k));

  // ---- timed window ----
  std::vector<std::size_t> order(resnet.size()), cube_order(cubes.size());
  std::iota(order.begin(), order.end(), 0);
  std::iota(cube_order.begin(), cube_order.end(), 0);
  std::vector<double> pooled_gf, pooled_gf_untraced, serial_ms, small_cps;
  std::vector<std::vector<double>> cube_run_ns(cubes.size()),
      cube_free_ns(cubes.size());
  SpanLog untraced(false);
  const auto before_pool = pooled->stats();
  const auto before_serial = serial->stats();
  const std::uint64_t start = now_ns();
  std::uint64_t round = 0;
  for (;; ++round) {
    const double elapsed = double(now_ns() - start) * 1e-9;
    if ((elapsed >= opt.seconds && round >= kMinRounds) ||
        elapsed >= 3 * opt.seconds)
      break;
    rng.shuffle(order);
    rng.shuffle(cube_order);
    auto pooled_pass = [&](SpanLog& l) {
      ScopedSpan pass(l, "pass.pooled", round);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i : order) {
        ScopedSpan s(l, "core.run", round);
        run(*pooled, *resnet[i], resnet[i]->c_pool);
      }
      return resnet_flops / double(now_ns() - t0);
    };
    pooled_gf.push_back(pooled_pass(log));
    if (log.enabled()) pooled_gf_untraced.push_back(pooled_pass(untraced));
    {
      ScopedSpan pass(log, "pass.serial", round);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i : order) {
        ScopedSpan s(log, "core.run", round);
        run(*serial, *resnet[i], resnet[i]->c_serial);
      }
      serial_ms.push_back(double(now_ns() - t0) * 1e-6);
    }
    {
      ScopedSpan pass(log, "pass.small", round);
      const std::uint64_t t0 = now_ns();
      for (int r = 0; r < kCubeReps; ++r)
        for (std::size_t i : cube_order) {
          ScopedSpan s(log, "core.run", round);
          const std::uint64_t c0 = log.enabled() ? now_ns() : 0;
          run(*serial, *cubes[i], cubes[i]->c_serial);
          if (log.enabled()) cube_run_ns[i].push_back(double(now_ns() - c0));
        }
      small_cps.push_back(kCubeReps * double(cubes.size()) * 1e9 /
                          double(now_ns() - t0));
    }
    if (!log.enabled()) continue;
    {
      ScopedSpan pass(log, "pass.small_free", round);
      for (int r = 0; r < kCubeReps; ++r)
        for (std::size_t i : cube_order) {
          Operand& o = *cubes[i];
          const std::uint64_t c0 = now_ns();
          autogemm::gemm(o.a.view(), o.b.view(), o.c_serial.view(),
                         *cube_plans[i]);
          cube_free_ns[i].push_back(double(now_ns() - c0));
        }
    }
    {
      ScopedSpan pass(log, "pass.replay", round);
      for (std::size_t i : order) {
        Operand& o = *resnet[i];
        const autogemm::Plan& plan = *serial_plans[i];
        {
          ScopedSpan s(log, "kernels.pack_a", round);
          out.count(autogemm::PackedA::create(o.a.view(), plan).ok());
        }
        autogemm::StatusOr<autogemm::PackedB> pb = [&] {
          ScopedSpan s(log, "kernels.pack_b", round);
          return autogemm::PackedB::create(o.b.view(), plan);
        }();
        out.count(pb.ok());
        if (!pb.ok()) continue;
        ScopedSpan s(log, "kernels.gemm_packed_b", round);
        autogemm::gemm(o.a.view(), *pb, o.b.view(), o.c_serial.view(), plan);
      }
    }
  }
  const auto d_pool = stats_delta(pooled->stats(), before_pool);
  const auto d_serial = stats_delta(serial->stats(), before_serial);

  // ---- output check: every shape on both contexts, after the window ----
  Rng rows(opt.seed + 1);  // apart from `rng`, whose draws follow the rounds
  for (auto* ctx : {pooled.get(), serial.get()}) {
    for (auto& o : resnet) {
      Matrix& c = ctx == pooled.get() ? o->c_pool : o->c_serial;
      c.set_zero();
      const bool ok = ctx->run(o->a.view(), o->b.view(), c.view()).ok();
      bool close = ok;
      for (int s = 0; s < 4 && close; ++s) {
        const int r = int(rows.below(std::size_t(o->m)));
        const Matrix ref = reference(o->a.cview().block(r, 0, 1, o->k), o->b.view());
        close = close_f32(c.cview().block(r, 0, 1, o->n), ref.view(), o->k);
      }
      out.count(close);
    }
  }
  for (auto& o : cubes) {
    o->c_serial.set_zero();
    const bool ok = serial->run(o->a.view(), o->b.view(), o->c_serial.view()).ok();
    const Matrix ref = reference(o->a.view(), o->b.view());
    out.count(ok && close_f32(o->c_serial.view(), ref.view(), o->k));
  }

  const double gf = median(pooled_gf);
  const double serial_gf = resnet_flops / (median(serial_ms) * 1e6);
  // A pooled pass needs all four cores at once, and on a shared host some
  // of them are often busy with a neighbour for part of a pass: the median
  // pass moved by 2x between runs while the fast decile moved far less.
  const double gf_fast = percentile(pooled_gf, 90);
  // A cube pass lasts ~10 ms, short enough that it runs either wholly
  // beside a busy neighbour or wholly without one; the fastest pass is the
  // library's own per-call cost.
  const double cps_best = percentile(small_cps, 100);
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["gflops"] = gf_fast;
  out.e2e["ops_per_s"] = cps_best;
  out.e2e["latency_ms_p50"] = median(serial_ms);
  out.e2e["latency_ms_tail"] = percentile(serial_ms, kTailPct);
  if (!log.enabled())
    out.require_tail("irregular_fp32 serial passes", serial_ms.size(), kTailPct);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "irregular_fp32: gflops=%.2f (p90 pass; median %.2f) "
                "gflops_1t=%.2f small_gflops=%.2f (rounds=%llu, tail=p%.0f, "
                "pool participants=%u)",
                gf_fast, gf, serial_gf,
                cube_flops / (kCubeReps * double(cubes.size())) * cps_best * 1e-9,
                static_cast<unsigned long long>(round), kTailPct, participants);
  out.notes.push_back(buf);
  if (!log.enabled()) return out;

  // ---- per-layer figures from the spans ----
  const auto& spans = log.spans();
  const auto self = self_times_ns(spans);
  const auto run_serial = sum_under(spans, "core.run", "pass.serial");
  const auto pack_a = sum_under(spans, "kernels.pack_a", "pass.replay");
  const auto pack_b = sum_under(spans, "kernels.pack_b", "pass.replay");
  const auto gemm_pb = sum_under(spans, "kernels.gemm_packed_b", "pass.replay");
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "pass.serial") continue;
    const std::uint64_t r = spans[i].req;
    const double w = spans[i].dur_ns();
    const double runs = run_serial.count(r) ? run_serial.at(r) : 0;
    const double pb = pack_b.count(r) ? pack_b.at(r) : 0;
    const double g = gemm_pb.count(r) ? gemm_pb.at(r) : 0;
    const double u = runs - pb - g;
    // The pass's wall clock is the packed replay, what it leaves
    // unattributed, and the loop's own self time; that loop must be thin.
    if (!parts_sum_to(w, {pb, g, u, self[i]}, 1e-6) || self[i] > 0.02 * w)
      out.invalid.push_back("irregular_fp32: serial pass " + std::to_string(r) +
                            " parts do not sum to its wall clock");
    if (runs > 0) unattributed.push_back(u / runs);
  }
  out.layer["core.unattributed_frac"] = median(unattributed);
  out.layer["kernels.pack_a_ms"] = median(values(pack_a, 1e-6));
  out.layer["kernels.pack_b_ms"] = median(values(pack_b, 1e-6));
  out.layer["kernels.gemm_packed_b_ms"] = median(values(gemm_pb, 1e-6));
  double overhead = 0;
  for (std::size_t i = 0; i < cubes.size(); ++i)
    overhead += median(cube_run_ns[i]) - median(cube_free_ns[i]);
  out.layer["core.run_overhead_ns"] = overhead / double(cubes.size());
  out.layer["core.verify_probes"] =
      double(pooled->health().probes + serial->health().probes);
  auto d = d_pool;
  d.plan_hits += d_serial.plan_hits;
  d.plan_misses += d_serial.plan_misses;
  d.packed_hits += d_serial.packed_hits;
  d.packed_misses += d_serial.packed_misses;
  add_core_counters(out, d,
                    double(pooled_gf.size() + pooled_gf_untraced.size()));
  out.layer["common.pool_speedup"] = gf / serial_gf;
  out.layer["common.pool_efficiency"] = gf / serial_gf / participants;
  out.layer["obs.trace_overhead_frac"] = median(pooled_gf_untraced) / gf - 1;
  add_kernel_layers(out, *serial, shapes);
  return out;
}

}  // namespace hostbench
