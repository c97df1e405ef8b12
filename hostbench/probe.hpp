// Single-core arithmetic ceiling of the host, per SIMD width.
#pragma once

#include <algorithm>

namespace hostbench {

/// GFLOP/s of one core; 0 for a width the CPU does not support.
/// `sse` is 128-bit multiply then add (the instructions the library's SSE2
/// kernels execute); `avx2` and `avx512` are 256- and 512-bit fused
/// multiply-add.
struct HostPeak {
  double sse = 0;
  double avx2 = 0;
  double avx512 = 0;
  double best() const { return std::max({sse, avx2, avx512}); }
};

HostPeak measure_host_peak();

}  // namespace hostbench
