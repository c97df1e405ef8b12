// Host ceiling probe: a register-resident multiply-add chain per SIMD
// width, timed on the calling thread. It is the yardstick every kernel
// figure is divided by, so it is measured on the machine in each run
// rather than taken from a datasheet. Each width is compiled through a
// target attribute and gated by cpuid, so the library's build flags stay
// as they are.
#include "probe.hpp"

#include <immintrin.h>

#include <algorithm>

#include "stats.hpp"

namespace hostbench {

namespace {

// Ten independent accumulators cover the 4-cycle latency of two pipelined
// FMA ports; the multiplier just below 1 keeps the values normal.
constexpr int kAccs = 10;

/// Tells the compiler that memory behind `p` is read and written here, so
/// loads from and stores to it stay on their side of the clock reads.
inline void clobber(float* p) { asm volatile("" : : "r"(p) : "memory"); }

double sse_chain(long iters, float* sink) {
  __m128 acc[kAccs];
  const __m128 x = _mm_set1_ps(0.999999f);
  const __m128 y = _mm_set1_ps(1e-7f);
  const std::uint64_t t0 = now_ns();
  clobber(sink);
  for (int i = 0; i < kAccs; ++i) acc[i] = _mm_loadu_ps(sink + i * 4);
  for (long it = 0; it < iters; ++it)
    for (int i = 0; i < kAccs; ++i)
      acc[i] = _mm_add_ps(_mm_mul_ps(acc[i], x), y);
  for (int i = 0; i < kAccs; ++i) _mm_storeu_ps(sink + i * 4, acc[i]);
  clobber(sink);
  const std::uint64_t t1 = now_ns();
  return 2.0 * 4 * kAccs * static_cast<double>(iters) /
         static_cast<double>(t1 - t0);
}

__attribute__((target("avx2,fma"))) double avx2_chain(long iters, float* sink) {
  __m256 acc[kAccs];
  const __m256 x = _mm256_set1_ps(0.999999f);
  const __m256 y = _mm256_set1_ps(1e-7f);
  const std::uint64_t t0 = now_ns();
  clobber(sink);
  for (int i = 0; i < kAccs; ++i) acc[i] = _mm256_loadu_ps(sink + i * 8);
  for (long it = 0; it < iters; ++it)
    for (int i = 0; i < kAccs; ++i) acc[i] = _mm256_fmadd_ps(acc[i], x, y);
  for (int i = 0; i < kAccs; ++i) _mm256_storeu_ps(sink + i * 8, acc[i]);
  clobber(sink);
  const std::uint64_t t1 = now_ns();
  return 2.0 * 8 * kAccs * static_cast<double>(iters) /
         static_cast<double>(t1 - t0);
}

__attribute__((target("avx512f"))) double avx512_chain(long iters,
                                                       float* sink) {
  __m512 acc[kAccs];
  const __m512 x = _mm512_set1_ps(0.999999f);
  const __m512 y = _mm512_set1_ps(1e-7f);
  const std::uint64_t t0 = now_ns();
  clobber(sink);
  for (int i = 0; i < kAccs; ++i) acc[i] = _mm512_loadu_ps(sink + i * 16);
  for (long it = 0; it < iters; ++it)
    for (int i = 0; i < kAccs; ++i) acc[i] = _mm512_fmadd_ps(acc[i], x, y);
  for (int i = 0; i < kAccs; ++i) _mm512_storeu_ps(sink + i * 16, acc[i]);
  clobber(sink);
  const std::uint64_t t1 = now_ns();
  return 2.0 * 16 * kAccs * static_cast<double>(iters) /
         static_cast<double>(t1 - t0);
}

/// Best of `reps` timed chains: a ceiling is the fastest the core ran.
/// The chain loads its accumulators from `sink` after the first clock read
/// and stores them before the second (see clobber), so the compiler cannot
/// move the arithmetic out of the timed interval.
template <typename Chain>
double best_of(Chain chain, long iters, int reps) {
  alignas(64) float sink[kAccs * 16];
  for (int i = 0; i < kAccs * 16; ++i) sink[i] = 1.0f + 0.01f * i;
  double best = 0;
  for (int r = 0; r < reps; ++r) best = std::max(best, chain(iters, sink));
  return best;
}

}  // namespace

HostPeak measure_host_peak() {
  constexpr long kIters = 2'000'000;
  constexpr int kReps = 5;
  HostPeak p;
  p.sse = best_of(sse_chain, kIters, kReps);
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    p.avx2 = best_of(avx2_chain, kIters, kReps);
  if (__builtin_cpu_supports("avx512f"))
    p.avx512 = best_of(avx512_chain, kIters, kReps);
  return p;
}

}  // namespace hostbench
