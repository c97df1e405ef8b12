// Quickstart: the 60-second tour of the public API.
//
//   build/examples/quickstart
//
// Multiplies two irregular matrices with autoGEMM, checks the result
// against the reference, and prints the achieved host GFLOPS.
#include <cstdio>

#include "common/matrix.hpp"
#include "common/reference_gemm.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/context.hpp"

int main() {
  using namespace autogemm;

  // A tall-skinny problem from the paper's irregular taxonomy.
  const int m = 256, n = 784, k = 64;
  common::Matrix a(m, k), b(k, n), c(m, n), c_ref(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);

  // The one entry point: a Context caches a plan per shape (and packed
  // constant operands), owns the thread pool, and returns every failure as
  // a Status. GemmExParams carries the BLAS-style transposes, alpha and
  // beta; the default (beta = 1) accumulates, beta = 0 overwrites C.
  Context ctx;
  GemmExParams overwrite;
  overwrite.beta = 0.0f;  // C = A * B
  const Status s = ctx.run(a.view(), b.view(), c.view(), overwrite);
  if (!s.ok()) {
    std::fprintf(stderr, "gemm failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // Verify against the double-precision reference.
  common::reference_gemm(a.view(), b.view(), c_ref.view());
  std::printf("max relative error vs reference: %.2e\n",
              common::max_rel_error(c.view(), c_ref.view()));

  // Repeated calls on the shape hit the cached plan.
  const int reps = 20;
  common::Timer timer;
  for (int i = 0; i < reps; ++i) {
    if (!ctx.run(a.view(), b.view(), c.view(), overwrite).ok()) return 1;
  }
  const double seconds = timer.seconds() / reps;
  std::printf("host: %.3f ms per call, %.2f GFLOPS\n", seconds * 1e3,
              common::gemm_flops(m, n, k) / seconds / 1e9);

  const auto stats = ctx.stats();
  std::printf("context: %llu plan hit(s), %llu miss(es) over %d calls\n",
              static_cast<unsigned long long>(stats.plan_hits),
              static_cast<unsigned long long>(stats.plan_misses), reps + 1);

  // The cached Plan fixes the Table III parameters: cache blocking, loop
  // order, packing, and the dynamic micro-tiling of every cache block.
  const auto plan = ctx.plan_for(m, n, k);
  std::printf("plan: mc=%d nc=%d kc=%d loop=%s packing=%d, projected %.0f "
              "model cycles\n",
              plan->config().mc, plan->config().nc, plan->config().kc,
              loop_order_name(plan->config().loop_order),
              static_cast<int>(plan->config().packing),
              plan->projected_cycles());
  return 0;
}
