// Shared harness of the host benchmark: run options, the outcome a
// workload reports, and helpers every workload uses (Context set-up,
// output checks, per-layer probes).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "core/context.hpp"
#include "probe.hpp"
#include "stats.hpp"

namespace hostbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;
};

/// What one workload run reports. `e2e` and `layer` are keyed by the metric
/// names listed in main.cpp; a layer the workload does not exercise is left
/// out and printed as 0.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons the run cannot be trusted (generator fell behind, span
  /// accounting does not close). Any entry makes the result incorrect.
  std::vector<std::string> invalid;
  /// Threads the workload starts besides the calling one.
  unsigned extra_threads = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Marks the run invalid when a reported tail percentile `pct` of `n`
  /// samples keeps fewer than ten samples beyond it.
  void require_tail(const char* what, std::size_t n, double pct) {
    if (pct > tail_percentile(n))
      invalid.push_back(std::string(what) + ": p" + std::to_string(int(pct)) +
                        " of " + std::to_string(n) +
                        " samples has fewer than 10 beyond it");
  }
};

Outcome run_irregular(const RunOptions& opt, SpanLog& log);
Outcome run_gpt2(const RunOptions& opt, SpanLog& log);
Outcome run_serve(const RunOptions& opt, SpanLog& log);

/// Context options of every benchmark Context: the backend is named
/// explicitly so the environment cannot select another one.
autogemm::ContextOptions context_options(unsigned threads);

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// fp32 output against the fp64-accumulated reference, at the library's
/// test tolerance for reduction depth k.
bool close_f32(autogemm::common::ConstMatrixView got,
               autogemm::common::ConstMatrixView ref, int k);
/// int8 output against the fp32 reference: relative Frobenius <= 1e-2.
bool close_i8(autogemm::common::ConstMatrixView got,
              autogemm::common::ConstMatrixView ref);

/// C = A * B through common::reference_gemm.
autogemm::common::Matrix reference(autogemm::common::ConstMatrixView a,
                                   autogemm::common::ConstMatrixView b);

double gemm_flops(int m, int n, int k);

/// Fills the metrics every workload reports the same way: host ceiling,
/// micro-kernel rate and its share of the ceiling, and plan lookup cost.
void add_kernel_layers(Outcome& out, autogemm::Context& ctx,
                       const std::vector<std::array<int, 3>>& shapes);

/// Counter deltas between two stats() snapshots.
autogemm::ContextStats stats_delta(const autogemm::ContextStats& after,
                                   const autogemm::ContextStats& before);

/// Adds the plan/packed hit ratios and the per-unit strategy counts of a
/// stats delta over `units` units of work (passes, generations, requests).
void add_core_counters(Outcome& out, const autogemm::ContextStats& d,
                       double units);

/// splitmix64: the benchmark's own seeded source of shape orders, lanes
/// and samples.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  std::size_t below(std::size_t n) { return n ? next() % n : 0; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

}  // namespace hostbench
