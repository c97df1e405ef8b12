// Host benchmark of the autoGEMM library: one process runs one workload and
// prints its metrics as the last line of standard output.
//
//   hostbench --workload irregular_fp32|gpt2_generate|serve_open
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 records spans around every public call the workload makes and
// prints the per-layer metrics instead; FILE receives the spans as JSON
// lines at exit. See README.md for what each metric means per workload.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace hostbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed on every workload. The end-to-end names are generic because each
// workload reports its own headline through them (README.md has the map).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"gflops", "GFLOP/s"},      {"ops_per_s", "1/s"},
    {"latency_ms_p50", "ms"},   {"latency_ms_tail", "ms"},
};

// Printed on every workload; a layer the workload bypasses reads 0.
constexpr MetricDef kPerLayer[] = {
    {"fail_frac", "ratio"},
    {"core.plan_lookup_ns", "ns"},
    {"core.run_overhead_ns", "ns"},
    {"core.setup_resolve_ms", "ms"},
    {"core.verify_probes", "count"},
    {"core.plan_hit_ratio", "ratio"},
    {"core.packed_hit_ratio", "ratio"},
    {"core.strategy_serial", "count"},
    {"core.strategy_blocks", "count"},
    {"core.strategy_ksplit", "count"},
    {"core.unattributed_frac", "ratio"},
    {"kernels.pack_a_ms", "ms"},
    {"kernels.pack_b_ms", "ms"},
    {"kernels.gemm_packed_b_ms", "ms"},
    {"kernels.tile_gflops", "GFLOP/s"},
    {"kernels.pct_peak", "%"},
    {"host.peak_gflops_sse", "GFLOP/s"},
    {"host.peak_gflops_avx2", "GFLOP/s"},
    {"host.peak_gflops_avx512", "GFLOP/s"},
    {"common.pool_speedup", "x"},
    {"common.pool_efficiency", "ratio"},
    {"quant.qgemm_us", "us"},
    {"quant.qpack_ms", "ms"},
    {"dnn.decode_gemm_ms", "ms"},
    {"dnn.decode_other_ms", "ms"},
    {"dnn.prefill_gemm_ms", "ms"},
    {"dnn.prefill_other_ms", "ms"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.exec_us_p50", "us"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p99", "ms"},
    {"serve.queue_hist_ms_p50", "ms"},
    {"serve.queue_hist_ms_p99", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.single_frac", "ratio"},
    {"serve.max_queue_depth", "count"},
    {"serve.steals", "count"},
    {"serve.shed_moderate", "count"},
    {"serve.rejected_moderate", "count"},
    {"serve.expired_moderate", "count"},
    {"serve.shed_overload", "count"},
    {"serve.rejected_overload", "count"},
    {"serve.expired_overload", "count"},
    {"serve.gen_late_ms_p99", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
};

[[noreturn]] void die(const std::string& step, const std::string& why) {
  std::fprintf(stderr, "hostbench: step '%s' failed: %s\n", step.c_str(),
               why.c_str());
  std::exit(2);
}

unsigned online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

RunOptions parse(int argc, char** argv, std::string* trace_out) {
  RunOptions o;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) die("arguments", "missing value after " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have[1] = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have[2] = *end == '\0' && o.seconds > 0 && o.seconds <= 600;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") die("arguments", "--trace takes 0 or 1");
      o.trace = v == "1";
      have[3] = true;
    } else if (a == "--trace-out") {
      *trace_out = v;
    } else {
      die("arguments", "unknown option " + a);
    }
  }
  for (bool h : have)
    if (!h)
      die("arguments",
          "need --workload NAME --seed N --seconds S (0 < S <= 600) "
          "--trace 0|1");
  return o;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) die("trace", "cannot write " + path);
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"req\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.req));
  if (std::fclose(f) != 0) die("trace", "cannot write " + path);
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  // The library reads these at run time; any of them would change what is
  // measured (failpoints, tracing, backend, label caps).
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "AUTOGEMM_", 9) == 0)
      die("environment", std::string("refusing to run with ") + *e);

  std::string trace_out;
  RunOptions opt = parse(argc, argv, &trace_out);
  opt.nproc = online_cpus();

  SpanLog log(opt.trace);
  Outcome out;
  if (opt.workload == "irregular_fp32")
    out = run_irregular(opt, log);
  else if (opt.workload == "gpt2_generate")
    out = run_gpt2(opt, log);
  else if (opt.workload == "serve_open")
    out = run_serve(opt, log);
  else
    die("arguments", "unknown workload " + opt.workload);
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  out.layer["fail_frac"] =
      out.attempted ? double(out.failed) / double(out.attempted) : 0;

  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"gcc %s\" threads=%u\n",
              opt.nproc, cpu_model().c_str(), __VERSION__,
              1 + out.extra_threads);
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  for (const std::string& why : out.invalid)
    std::printf("invalid: %s\n", why.c_str());
  std::printf("checked: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (opt.trace && !trace_out.empty()) write_spans(trace_out, log.spans());

  bool correct = out.failed == 0 && out.invalid.empty() && out.attempted > 0;
  std::string metrics;
  auto emit = [&](const MetricDef& d, double v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = out.layer.find(d.name);
      const double v = it == out.layer.end() ? 0.0 : it->second;
      emit(d, std::isfinite(v) ? v : 0.0);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = out.e2e.find(d.name);
      double v = it == out.e2e.end() ? 0.0 : it->second;
      if (!std::isfinite(v) || v <= 0) {
        // Infinite latency (failed requests) or a missing figure: keep the
        // line parseable and the result incorrect.
        std::printf("invalid: %s is %g\n", d.name, v);
        correct = false;
        v = std::isinf(v) ? 1e9 : 0.0;
      }
      emit(d, v);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
