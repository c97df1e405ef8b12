#include <sys/resource.h>

#include <algorithm>
#include <map>

#include "bench.hpp"
#include "common/reference_gemm.hpp"
#include "kernels/dispatch.hpp"

namespace hostbench {

using autogemm::common::ConstMatrixView;
using autogemm::common::Matrix;

autogemm::ContextOptions context_options(unsigned threads) {
  autogemm::ContextOptions o;
  o.threads = threads;
  o.backend = autogemm::backend::BackendId::kNeon;
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool close_f32(ConstMatrixView got, ConstMatrixView ref, int k) {
  return autogemm::common::max_rel_error(got, ref) <= 1e-6 + 1e-7 * k;
}

bool close_i8(ConstMatrixView got, ConstMatrixView ref) {
  return autogemm::common::rel_frobenius_error(got, ref) <= 1e-2;
}

Matrix reference(ConstMatrixView a, ConstMatrixView b) {
  Matrix c(a.rows, b.cols);
  c.set_zero();
  autogemm::common::reference_gemm(a, b, c.view());
  return c;
}

double gemm_flops(int m, int n, int k) { return 2.0 * m * n * k; }

namespace {

/// Warm Context::plan_for cost per call, over the given shapes.
double plan_lookup_ns(autogemm::Context& ctx,
                      const std::vector<std::array<int, 3>>& shapes) {
  if (shapes.empty()) return 0;
  for (const auto& s : shapes) ctx.plan_for(s[0], s[1], s[2]);  // warm
  constexpr int kRounds = 200;
  std::vector<double> per_round;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kRounds; ++i)
      for (const auto& s : shapes) ctx.plan_for(s[0], s[1], s[2]);
    per_round.push_back(static_cast<double>(now_ns() - t0) /
                        (kRounds * static_cast<double>(shapes.size())));
  }
  return median(per_round);
}

/// GFLOP/s of kernels::run_tile on an L1-resident block of the plan's most
/// used micro-tile; the median over the given plans.
double tile_gflops(autogemm::Context& ctx,
                   const std::vector<std::array<int, 3>>& shapes) {
  std::vector<double> rates;
  Rng rng(7);
  for (const auto& s : shapes) {
    const auto plan = ctx.plan_for(s[0], s[1], s[2]);
    if (!plan) continue;
    const auto& cfg = plan->config();
    const int bm = std::min(cfg.mc, s[0]);
    const int bn = std::min(cfg.nc, s[1]);
    const int bk = std::min(cfg.kc, s[2]);
    // The plan's most used micro-tile, weighted by the C area it covers.
    std::map<std::pair<int, int>, long> area;
    for (const auto& t : plan->block_tiling(bm, bn, bk).tiles)
      area[{t.mr, t.nr}] += static_cast<long>(t.rows_used) * t.cols_used;
    if (area.empty()) continue;
    const auto [mr, nr] =
        std::max_element(area.begin(), area.end(), [](auto& x, auto& y) {
          return x.second < y.second;
        })->first;
    // A and B blocks fit half of a 48 KiB L1 data cache.
    const int kc = std::max(1, std::min(bk, 6144 / (mr + nr)));
    Matrix a(mr, kc), b(kc, nr), c(mr, nr);
    for (int r = 0; r < mr; ++r)
      for (int x = 0; x < kc; ++x) a.at(r, x) = float(rng.uniform() - 0.5);
    for (int r = 0; r < kc; ++r)
      for (int x = 0; x < nr; ++x) b.at(r, x) = float(rng.uniform() - 0.5);
    c.set_zero();
    const double flops = gemm_flops(mr, nr, kc);
    const long calls = std::max(16L, static_cast<long>(4e6 / flops));
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t t0 = now_ns();
      for (long i = 0; i < calls; ++i)
        autogemm::kernels::run_tile(mr, nr, a.data(), a.ld(), b.data(), b.ld(),
                                    c.data(), c.ld(), kc);
      reps.push_back(flops * calls / static_cast<double>(now_ns() - t0));
    }
    rates.push_back(median(reps));
  }
  return median(rates);
}

/// Hit ratio of a cache from counter deltas; 0 when there were no lookups.
double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses ? static_cast<double>(hits) / double(hits + misses) : 0;
}

}  // namespace

void add_kernel_layers(Outcome& out, autogemm::Context& ctx,
                       const std::vector<std::array<int, 3>>& shapes) {
  const HostPeak peak = measure_host_peak();
  out.layer["host.peak_gflops_sse"] = peak.sse;
  out.layer["host.peak_gflops_avx2"] = peak.avx2;
  out.layer["host.peak_gflops_avx512"] = peak.avx512;
  const double tile = tile_gflops(ctx, shapes);
  out.layer["kernels.tile_gflops"] = tile;
  out.layer["kernels.pct_peak"] = peak.best() > 0 ? 100 * tile / peak.best() : 0;
  out.layer["core.plan_lookup_ns"] = plan_lookup_ns(ctx, shapes);
}

autogemm::ContextStats stats_delta(const autogemm::ContextStats& after,
                                   const autogemm::ContextStats& before) {
  autogemm::ContextStats d;
  d.plan_hits = after.plan_hits - before.plan_hits;
  d.plan_misses = after.plan_misses - before.plan_misses;
  d.packed_hits = after.packed_hits - before.packed_hits;
  d.packed_misses = after.packed_misses - before.packed_misses;
  d.strategy_serial = after.strategy_serial - before.strategy_serial;
  d.strategy_blocks = after.strategy_blocks - before.strategy_blocks;
  d.strategy_ksplit = after.strategy_ksplit - before.strategy_ksplit;
  return d;
}

void add_core_counters(Outcome& out, const autogemm::ContextStats& d,
                       double units) {
  out.layer["core.plan_hit_ratio"] = hit_ratio(d.plan_hits, d.plan_misses);
  out.layer["core.packed_hit_ratio"] = hit_ratio(d.packed_hits, d.packed_misses);
  if (units <= 0) return;
  out.layer["core.strategy_serial"] = double(d.strategy_serial) / units;
  out.layer["core.strategy_blocks"] = double(d.strategy_blocks) / units;
  out.layer["core.strategy_ksplit"] = double(d.strategy_ksplit) / units;
}

}  // namespace hostbench
