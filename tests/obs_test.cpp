// obs subsystem: metric exactness under concurrency, histogram bucket
// geometry, exporter formats, span ring semantics, the integration paths
// (Context counters, sim virtual timeline), and the one-family-per-quantity
// rule over the whole default registry. The tracer is process
// state shared with other suites, so every tracing test runs through
// TraceFixture, which saves and restores the enabled flag and lane
// capacity and clears retained spans on both sides.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend_id.hpp"
#include "codegen/generator.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "hw/chip_database.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "sim/pipeline.hpp"

namespace autogemm {
namespace {

// ---------------------------------------------------------------- metrics

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, DeltaAddsAccumulate) {
  obs::Counter c;
  c.add(5);
  c.add(0);
  c.add(37);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.set(7.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(ObsHistogram, BucketBoundariesAreExactPowersOfTwo) {
  obs::Histogram h(1e-6);
  // Bucket i spans (scale*2^(i-1), scale*2^i]: a value exactly on a bound
  // belongs to that bucket, one ulp above belongs to the next.
  EXPECT_EQ(h.bucket_index(1e-6), 0);
  EXPECT_EQ(h.bucket_index(std::nextafter(1e-6, 1.0)), 1);
  EXPECT_EQ(h.bucket_index(2e-6), 1);
  EXPECT_EQ(h.bucket_index(4e-6), 2);
  // Below scale and degenerate values collapse into bucket 0.
  EXPECT_EQ(h.bucket_index(1e-9), 0);
  EXPECT_EQ(h.bucket_index(0.0), 0);
  EXPECT_EQ(h.bucket_index(-3.0), 0);
  // Beyond the covered range everything lands in the last bucket.
  EXPECT_EQ(h.bucket_index(1e12), obs::Histogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(h.bucket_bound(obs::Histogram::kBuckets - 1)));
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(h.bucket_bound(10), 1e-6 * 1024);
}

TEST(ObsHistogram, ObserveCountsAndSums) {
  obs::Histogram h(1e-6);
  h.observe(1e-6);
  h.observe(3e-6);   // bucket 2: (2e-6, 4e-6]
  h.observe(3.5e-6);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 7.5e-6, 1e-12);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
}

TEST(ObsHistogram, SnapshotsMergeAndQuantile) {
  obs::Histogram a(1e-6), b(1e-6);
  for (int i = 0; i < 90; ++i) a.observe(1.5e-6);  // bucket 1
  for (int i = 0; i < 10; ++i) b.observe(100e-6);  // far tail
  auto sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 100u);
  // p50 sits in the dense bucket; p99 must reach the tail bucket's bound.
  EXPECT_LE(sa.quantile(0.5), 2e-6);
  EXPECT_GE(sa.quantile(0.99), 100e-6);
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  obs::Registry r;
  obs::Counter& c1 = r.counter("test_total");
  c1.add(3);
  obs::Counter& c2 = r.counter("test_total");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
  EXPECT_EQ(r.counter_count(), 1u);
  r.histogram("test_seconds").observe(5e-6);
  EXPECT_EQ(r.histogram_count(), 1u);
}

TEST(ObsRegistry, PrometheusTextExposition) {
  obs::Registry r;
  r.counter("demo_total{kind=\"x\"}").add(2);
  r.gauge("demo_gauge").set(1.5);
  r.histogram("demo_seconds").observe(3e-6);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total{kind=\"x\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 1"), std::string::npos);
  // Cumulative buckets must end at +Inf.
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshotHasAllSections) {
  obs::Registry r;
  r.counter("j_total").add(7);
  r.gauge("j_gauge").set(2.0);
  r.histogram("j_seconds").observe(1e-5);
  const std::string j = r.json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"j_total\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"buckets\""), std::string::npos);
}

// ---------------------------------------------------------------- tracing

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::trace_enabled();
    old_capacity_ = obs::Tracer::instance().lane_capacity();
    obs::set_trace_enabled(false);
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_lane_capacity(old_capacity_);
    obs::set_trace_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
  std::size_t old_capacity_ = 0;
};

using ObsTrace = TraceFixture;

TEST_F(ObsTrace, DisabledModeRecordsNothing) {
  {
    obs::SpanScope s("should.not.appear", 1, 2);
    obs::SpanScope inner("also.not");
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 0u);
  EXPECT_EQ(obs::Tracer::instance().active_lane_count(), 0u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_EQ(j.find("should.not.appear"), std::string::npos);
}

TEST_F(ObsTrace, NestedSpansCarryDepthAndNames) {
  obs::set_trace_enabled(true);
  {
    obs::SpanScope outer("outer", 11, 22);
    {
      obs::SpanScope inner("inner");
    }
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 2u);
  EXPECT_EQ(obs::Tracer::instance().active_lane_count(), 1u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"outer\""), std::string::npos);
  EXPECT_NE(j.find("\"inner\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  // The span args travel into the export.
  EXPECT_NE(j.find("\"arg0\": 11"), std::string::npos);
}

TEST_F(ObsTrace, RingKeepsOnlyTheLastCapacitySpans) {
  obs::Tracer::instance().set_lane_capacity(8);
  obs::Tracer::instance().clear();  // rebuild this lane at the new capacity
  obs::set_trace_enabled(true);
  for (int i = 0; i < 20; ++i) {
    obs::SpanScope s("wrap", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 8u);
  // The survivors are the *last* 8 (args 12..19): arg0 12 present, 5 gone.
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"arg0\": 19"), std::string::npos);
  EXPECT_EQ(j.find("\"arg0\": 5,"), std::string::npos);
}

TEST_F(ObsTrace, ClearDropsSpansAndLaneRecordsAgain) {
  obs::set_trace_enabled(true);
  { obs::SpanScope s("before"); }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 1u);
  obs::Tracer::instance().clear();
  EXPECT_EQ(obs::Tracer::instance().span_count(), 0u);
  { obs::SpanScope s("after"); }
  EXPECT_EQ(obs::Tracer::instance().span_count(), 1u);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_EQ(j.find("\"before\""), std::string::npos);
  EXPECT_NE(j.find("\"after\""), std::string::npos);
}

TEST_F(ObsTrace, VirtualSpanExportsOnSimPid) {
  obs::set_trace_enabled(true);
  obs::emit_virtual_span("sim-kernel", "virtual.work", 10.0, 5.0);
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"virtual.work\""), std::string::npos);
  EXPECT_NE(j.find("\"sim-kernel\""), std::string::npos);
  EXPECT_NE(j.find("\"pid\": 2"), std::string::npos);
}

TEST_F(ObsTrace, WorkerLaneNaming) {
  obs::set_trace_enabled(true);
  obs::name_this_lane_worker(/*slot=*/3, /*participants=*/5);
  { obs::SpanScope s("named"); }
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"worker-3\""), std::string::npos);
  obs::name_this_lane_worker(/*slot=*/4, /*participants=*/5);
  EXPECT_NE(obs::Tracer::instance().chrome_json().find("\"caller\""),
            std::string::npos);
}

// ----------------------------------------------------------- integration

TEST_F(ObsTrace, ContextRunFeedsDefaultRegistry) {
  ContextOptions opts;
  opts.threads = 1;
  Context ctx(opts);
  obs::Registry& reg = obs::default_registry();
  obs::Counter& serial = reg.counter(
      "autogemm_strategy_total{strategy=\"serial\",backend=\"" +
      std::string(backend::backend_name(ctx.backend_id())) + "\"}");
  const std::uint64_t calls0 = reg.counter("autogemm_gemm_calls_total").value();
  const std::uint64_t serial0 = serial.value();
  const std::uint64_t flops0 = reg.counter("autogemm_gemm_flops_total").value();

  const int m = 24, n = 20, k = 16;
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());

  EXPECT_EQ(reg.counter("autogemm_gemm_calls_total").value(), calls0 + 2);
  EXPECT_EQ(serial.value(), serial0 + 2);
  EXPECT_EQ(reg.counter("autogemm_gemm_flops_total").value(),
            flops0 + 2ull * 2 * m * n * k);
  // The per-shape latency histogram materialised and saw both calls.
  const std::string prom = reg.prometheus_text();
  EXPECT_NE(prom.find("shape=\"24x20x16\",dtype=\"f32\""),
            std::string::npos);
}

TEST_F(ObsTrace, TracedContextRunEmitsPhaseSpans) {
  ContextOptions opts;
  opts.threads = 1;
  opts.trace = true;  // flips the global switch on construction
  Context ctx(opts);
  ASSERT_TRUE(obs::trace_enabled());
  obs::Tracer::instance().clear();
  // N*K must clear the plan's packing threshold (64*64) so the pack_a /
  // pack_b sites actually run (small-N shapes skip packing by design).
  const int m = 80, n = 80, k = 80;
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 3);
  common::fill_random(b.view(), 4);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"context.run\""), std::string::npos);
  EXPECT_NE(j.find("\"context.execute\""), std::string::npos);
  EXPECT_NE(j.find("\"gemm.serial\""), std::string::npos);
  EXPECT_NE(j.find("\"kernel\""), std::string::npos);
  EXPECT_NE(j.find("\"pack_a\""), std::string::npos);
  EXPECT_NE(j.find("\"pack_b\""), std::string::npos);
}

TEST_F(ObsTrace, SimulatorEmitsVirtualTimeline) {
  obs::set_trace_enabled(true);
  obs::Tracer::instance().clear();
  const int kc = 16;
  const auto mk = codegen::generate_microkernel(5, 16, kc, 4);
  auto hw = hw::chip_model(hw::Chip::kReference);
  sim::SimOptions sopts;
  sopts.lda = codegen::padded_k_a(kc, 4);
  sopts.ldb = 16;
  sopts.ldc = 16;
  sopts.mainloop_begin = mk.mainloop_begin;
  sopts.epilogue_begin = mk.epilogue_begin;
  sim::SimStats stats;
  ASSERT_TRUE(sim::simulate_checked(mk.program, hw, sopts, stats).ok());
  const std::string j = obs::Tracer::instance().chrome_json();
  EXPECT_NE(j.find("\"sim.simulate\""), std::string::npos);
  EXPECT_NE(j.find("\"prologue\""), std::string::npos);
  EXPECT_NE(j.find("\"mainloop\""), std::string::npos);
  EXPECT_NE(j.find("\"epilogue\""), std::string::npos);
  EXPECT_NE(j.find("\"sim-kernel\""), std::string::npos);
}

// ------------------------------------------------------ metric families

/// A parsed Prometheus exposition: every sample by series name, and per
/// family (the base name on its `# TYPE` line) the label-key sets its
/// series carry (`le` dropped) and how many TYPE lines named it.
struct Exposition {
  std::map<std::string, double> samples;
  std::map<std::string, std::set<std::set<std::string>>> label_keys;
  std::map<std::string, int> type_lines;

  /// Sum over every series of `name`, whatever its labels.
  double sum(const std::string& name) const {
    double total = 0;
    for (const auto& [series, v] : samples)
      if (series.substr(0, series.find('{')) == name) total += v;
    return total;
  }
};

Exposition parse_prometheus(const std::string& text) {
  Exposition e;
  std::istringstream in(text);
  std::string line, family;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
      ++e.type_lines[family];
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    const std::string series = line.substr(0, sp);
    e.samples[series] = std::stod(line.substr(sp + 1));
    std::set<std::string> keys;
    // key="value" pairs; no value this library exports holds a quote.
    std::size_t pos = series.find('{');
    while (pos != std::string::npos && series[pos] != '}') {
      const std::size_t eq = series.find('=', pos + 1);
      const std::string key = series.substr(pos + 1, eq - pos - 1);
      if (key != "le") keys.insert(key);
      pos = series.find('"', eq + 2) + 1;  // ',' or '}'
    }
    e.label_keys[family].insert(keys);
  }
  return e;
}

/// One metric family per quantity: every family exports one label-key set
/// under one TYPE line, so a sum over a family counts each event once.
/// Drives every instrumented layer in one process (a serial Context, a
/// standalone Engine, a 2-shard ShardedEngine, two paused Engines), then
/// checks the whole registry and the sums against the layers' own stats.
TEST(ObsFamilies, OneLabelKeySetPerFamilyAndSumsMatchTheTruth) {
  obs::Registry& reg = obs::default_registry();
  const Exposition before = parse_prometheus(reg.prometheus_text());
  obs::Gauge& depth = reg.gauge("autogemm_serve_queue_depth");
  // Calls that time one latency sample: every fp32 plan execution (one
  // ContextStats strategy increment each; run_batched members are not
  // timed) plus every int8 call (int8 has no batched path).
  std::uint64_t non_batched = 0;
  std::uint64_t i8_calls = 0;
  std::uint64_t submitted = 0;
  const auto fp32_executions = [](const Context& c) {
    const ContextStats st = c.stats();
    return st.strategy_serial + st.strategy_blocks + st.strategy_ksplit;
  };

  ContextOptions copts;
  copts.threads = 1;
  Context ctx(copts);
  common::Matrix a(24, 16), b(16, 20);
  common::fill_random(a.view(), 11);
  common::fill_random(b.view(), 12);
  std::vector<std::unique_ptr<common::Matrix>> cs;
  const auto fresh_c = [&cs] {
    cs.push_back(std::make_unique<common::Matrix>(24, 20));
    return cs.back()->view();
  };
  ASSERT_TRUE(ctx.run(a.view(), b.view(), fresh_c()).ok());
  ASSERT_TRUE(ctx.run_i8(a.view(), b.view(), fresh_c(), 1.0f, 0.0f).ok());
  ASSERT_TRUE(ctx.run_batched({BatchItem{a.view(), b.view(), fresh_c()},
                               BatchItem{a.view(), b.view(), fresh_c()}})
                  .ok());
  ++i8_calls;

  const auto request = [&](int i) {
    serve::GemmRequest r;
    r.a = a.view();
    r.b = b.view();
    r.c = fresh_c();
    r.dtype = common::DType::kF32;
    if (i % 4 == 3) {
      r.dtype = common::DType::kI8;
      ++i8_calls;
    }
    return r;
  };
  {
    serve::Engine engine(ctx);
    std::vector<std::future<Status>> fs;
    for (int i = 0; i < 6; ++i) fs.push_back(engine.submit(request(i)));
    for (auto& f : fs) ASSERT_TRUE(f.get().ok());
    engine.shutdown();
    submitted += engine.stats().submitted;
  }
  {
    serve::ShardedEngineOptions o;
    o.shards = 2;
    o.context.threads = 1;
    auto fleet = serve::ShardedEngine::create(o).value();
    std::vector<std::future<Status>> fs;
    for (int i = 0; i < 40; ++i) fs.push_back(fleet->submit(request(i)));
    for (auto& f : fs) ASSERT_TRUE(f.get().ok());
    ASSERT_TRUE(fleet->drain().ok());
    const serve::ServerStats agg = fleet->stats().aggregate;
    ASSERT_TRUE(agg.accounting_clean());
    submitted += agg.submitted;
    for (std::size_t i = 0; i < fleet->shards(); ++i)
      non_batched += fp32_executions(fleet->shard_context(i));
  }
  {
    // The depth gauge is the sum over live engines, not the last writer.
    const double depth0 = depth.value();
    serve::EngineOptions po;
    po.start_paused = true;
    serve::Engine e1(ctx, po), e2(ctx, po);
    std::vector<std::future<Status>> fs;
    for (int i = 0; i < 3; ++i) fs.push_back(e1.submit(request(0)));
    fs.push_back(e2.submit(request(0)));
    EXPECT_EQ(depth.value(), depth0 + 4);
    e1.resume();
    e2.resume();
    for (auto& f : fs) ASSERT_TRUE(f.get().ok());
    e1.shutdown();
    e2.shutdown();
    EXPECT_EQ(depth.value(), depth0);  // stopped engines withdraw
    submitted += e1.stats().submitted + e2.stats().submitted;
  }
  non_batched += fp32_executions(ctx) + i8_calls;

  const Exposition after = parse_prometheus(reg.prometheus_text());
  for (const auto& [family, key_sets] : after.label_keys) {
    EXPECT_EQ(key_sets.size(), 1u) << family << " exports twin label sets";
    EXPECT_EQ(after.type_lines.at(family), 1) << family;
  }
  EXPECT_EQ(after.sum("autogemm_gemm_seconds_count") -
                before.sum("autogemm_gemm_seconds_count"),
            static_cast<double>(non_batched));
  EXPECT_EQ(after.sum("autogemm_serve_submitted_total") -
                before.sum("autogemm_serve_submitted_total"),
            static_cast<double>(submitted));
}

}  // namespace
}  // namespace autogemm
