// serve_open: an open-loop Poisson stream into a 2-shard ShardedEngine.
//
// One generator thread submits on a schedule from serve::arrival_offsets_ns
// whatever the engine is doing, so a slow engine builds a queue instead of
// slowing the load. The mix is the Fig 8 small cubes plus the GPT-2 decode
// census at 1/12 width; its weight GEMMs are offered at fp32 and int8 (same
// shape, never batched together) on both lanes. Requests this small put
// admission, coalescing and dispatch ahead of the kernel.
//
// Two phases at fixed rates: a moderate one, where every request must
// succeed and latency is measured from each request's due time, and an
// overload one above the engine's saturation, where shedding is expected
// and OK completions per second (goodput) is the figure.
//
// The traced run adds a direct replay of the mix through a serial
// Context::run (serve.exec_us_p50) and records a request span (due ->
// completion) with the submit span inside it for every request.
#include <immintrin.h>

#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dnn/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/load_gen.hpp"
#include "serve/router.hpp"

namespace hostbench {

namespace {

using autogemm::Context;
using autogemm::Status;
using autogemm::StatusCode;
using autogemm::common::DType;
using autogemm::common::Matrix;
using autogemm::serve::Lane;

constexpr int kCubes[] = {2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128};
constexpr double kInteractiveFrac = 0.25;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCapacity = 1024;
// Output buffers per mix entry, reused round-robin. The generator waits
// for a buffer still in flight (counted), which the admission bound makes
// rare: at most 2 x kQueueCapacity requests are queued in the fleet.
constexpr std::size_t kRing = 512;
constexpr int kSetupReps = 5;
// Rates in requests/s. The moderate rate keeps both shards well below
// saturation; the overload rate sits above the fleet's measured capacity.
constexpr double kModerateRps = 6'000;
constexpr double kOverloadRps = 100'000;
// Shares of --seconds spent in all moderate and all overload phases.
constexpr double kModerateShare = 0.45;
constexpr double kOverloadShare = 0.4;
// p99 from due time did not repeat within a tenth across runs on a shared
// 4-core host (p50 did), so the reported tail is the next percentile down;
// p99 is still printed on the summary line.
constexpr double kTailPct = 90;
// The run alternates short moderate and overload phases this many times.
// Each figure is read from the faster quartile of the phases of its kind:
// neighbours on a shared host only ever slow a phase down, often for
// seconds, while a slower library slows every phase.
constexpr int kCycles = 10;
/// The quartile of per-phase figures on the good side.
double fast_quartile(const std::vector<double>& v, bool higher_is_better) {
  return percentile(v, higher_is_better ? 75 : 25);
}
constexpr std::size_t kChecksPerPhase = 50;
// Generator lateness (p99, moderate phases) beyond which the run is invalid.
constexpr double kMaxLateMs = 20;

struct Entry {
  int m, n, k;
  DType dtype;
  double weight;
  Matrix a, b, want;
  std::vector<Matrix> ring;
  std::unique_ptr<std::atomic<bool>[]> busy;
  std::size_t next = 0;

  Entry(int m_, int n_, int k_, DType dt, double w, std::uint64_t seed)
      : m(m_), n(n_), k(k_), dtype(dt), weight(w), a(m_, k_), b(k_, n_),
        busy(new std::atomic<bool>[kRing]) {
    autogemm::common::fill_random(a.view(), seed);
    autogemm::common::fill_random(b.view(), seed + 1);
    want = reference(a.view(), b.view());
    for (std::size_t i = 0; i < kRing; ++i) {
      ring.emplace_back(m, n);
      ring.back().set_zero();
      busy[i] = false;
    }
  }
  double flops() const { return gemm_flops(m, n, k); }
  bool matches(const Matrix& c) const {
    return dtype == DType::kI8 ? close_i8(c.view(), want.view())
                               : close_f32(c.view(), want.view(), k);
  }
};

/// Fig 8 cubes plus the 1/12-width GPT-2 decode census, half of the
/// offered requests each. Weight GEMMs are offered at fp32 and int8.
std::vector<std::unique_ptr<Entry>> build_mix(Rng& rng) {
  std::vector<std::unique_ptr<Entry>> mix;
  const double cube_w = 1.0 / std::size(kCubes);
  for (int s : kCubes)
    mix.push_back(std::make_unique<Entry>(s, s, s, DType::kF32, cube_w, rng.next()));
  autogemm::dnn::TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.n_heads = 4;
  cfg.d_ff = 256;
  std::map<std::array<int, 3>, int> census;
  for (const auto& s : autogemm::dnn::TransformerBlock::gemm_shapes(1, cfg))
    ++census[s];
  const double census_w = 1.0 / 12;  // gemm_shapes(1) has 12 GEMMs
  for (const auto& [s, count] : census) {
    const double w = census_w * count;
    // A weight GEMM has neither free dimension equal to the token count.
    if (s[1] != 1 && s[2] != 1) {
      mix.push_back(std::make_unique<Entry>(s[0], s[1], s[2], DType::kF32,
                                            w / 2, rng.next()));
      mix.push_back(std::make_unique<Entry>(s[0], s[1], s[2], DType::kI8,
                                            w / 2, rng.next()));
    } else {
      mix.push_back(std::make_unique<Entry>(s[0], s[1], s[2], DType::kF32, w,
                                            rng.next()));
    }
  }
  return mix;
}

std::size_t draw(const std::vector<std::unique_ptr<Entry>>& mix, Rng& rng) {
  double u = rng.uniform() * 2.0;  // the two halves each sum to 1
  for (std::size_t i = 0; i < mix.size(); ++i) {
    u -= mix[i]->weight;
    if (u <= 0) return i;
  }
  return mix.size() - 1;
}

autogemm::serve::GemmRequest request(Entry& e, Matrix& c, Lane lane) {
  autogemm::serve::GemmRequest r;
  r.a = e.a.view();
  r.b = e.b.view();
  r.c = c.view();
  r.dtype = e.dtype;
  r.lane = lane;
  return r;
}

void spin_until(std::uint64_t t) {
  while (now_ns() < t) _mm_pause();
}

/// One open-loop phase. Its buffers outlive every callback: run() waits
/// for all of them, and the engine is destroyed before any Phase is.
struct Phase {
  double rate;
  std::size_t n = 0;
  std::vector<std::uint64_t> due, submit0, submit1;
  std::vector<std::uint32_t> entry;
  std::vector<std::int32_t> slot;  // ring slot, or -1 - index into checks
  std::vector<Lane> lane;
  std::unique_ptr<std::atomic<std::uint64_t>[]> done;
  std::unique_ptr<std::atomic<int>[]> code;
  std::atomic<std::size_t> resolved{0};
  std::vector<Matrix> checks;
  std::uint64_t slot_waits = 0;
  std::uint64_t start = 0;

  explicit Phase(double r) : rate(r) {}

  void plan(std::vector<std::unique_ptr<Entry>>& mix, double seconds, Rng& rng) {
    n = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    autogemm::serve::LoadGenOptions lo;
    lo.offered_rps = rate;
    lo.requests = n;
    lo.arrivals = autogemm::serve::ArrivalProcess::kPoisson;
    lo.seed = rng.next();
    due = autogemm::serve::arrival_offsets_ns(lo);
    submit0.assign(n, 0);
    submit1.assign(n, 0);
    entry.resize(n);
    slot.assign(n, 0);
    lane.resize(n);
    done.reset(new std::atomic<std::uint64_t>[n]);
    code.reset(new std::atomic<int>[n]);
    const double check_p = double(kChecksPerPhase) / double(n);
    for (std::size_t i = 0; i < n; ++i) {
      entry[i] = static_cast<std::uint32_t>(draw(mix, rng));
      lane[i] = rng.uniform() < kInteractiveFrac ? Lane::kInteractive : Lane::kBulk;
      done[i] = 0;
      code[i] = -1;
      if (checks.size() < kChecksPerPhase && rng.uniform() < check_p) {
        const Entry& e = *mix[entry[i]];
        checks.emplace_back(e.m, e.n);
        checks.back().set_zero();
        slot[i] = -1 - static_cast<std::int32_t>(checks.size() - 1);
      }
    }
  }

  /// Submits every request at its due time; returns false when some
  /// request did not resolve within `timeout_s` after the last submit.
  bool run(autogemm::serve::ShardedEngine& engine,
           std::vector<std::unique_ptr<Entry>>& mix, double timeout_s) {
    start = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      due[i] += start;
      spin_until(due[i]);
      submit0[i] = now_ns();
      Entry& e = *mix[entry[i]];
      Matrix* c;
      std::int32_t s = slot[i];
      if (s < 0) {
        c = &checks[static_cast<std::size_t>(-1 - s)];
      } else {
        s = static_cast<std::int32_t>(e.next++ % kRing);
        if (e.busy[s].load(std::memory_order_acquire)) {
          ++slot_waits;
          while (e.busy[s].load(std::memory_order_acquire)) _mm_pause();
        }
        e.busy[s].store(true, std::memory_order_relaxed);
        slot[i] = s;
        c = &e.ring[s];
      }
      engine.submit(request(e, *c, lane[i]), [this, i, &e, s](Status st) {
        code[i].store(static_cast<int>(st.code()), std::memory_order_relaxed);
        done[i].store(now_ns(), std::memory_order_relaxed);
        if (s >= 0) e.busy[s].store(false, std::memory_order_release);
        resolved.fetch_add(1, std::memory_order_release);
      });
      submit1[i] = now_ns();
    }
    const std::uint64_t limit =
        now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    while (resolved.load(std::memory_order_acquire) < n && now_ns() < limit)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return resolved.load(std::memory_order_acquire) == n;
  }

  bool ok(std::size_t i) const { return code[i].load() == int(StatusCode::kOk); }

  std::vector<double> latency_ms() const {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = due_latency_ms(due[i], done[i].load(), ok(i));
    return v;
  }
  std::vector<double> late_ms() const {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = double(submit0[i] - due[i]) * 1e-6;
    return v;
  }
  /// OK completions per second, weighted by `weight(entry)`, between the
  /// first tenth of the offered interval (while queues fill) and the last
  /// arrival (after which the queues only drain).
  template <typename Weight>
  double rate_ok(Weight weight) const {
    const double t = double(due[n - 1] - start);
    const double lo = double(start) + 0.1 * t, hi = double(due[n - 1]);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double at = double(done[i].load());
      if (ok(i) && at >= lo && at < hi) sum += weight(entry[i]);
    }
    return sum / ((hi - lo) * 1e-9);
  }
  /// Realised submission rate over the offered one.
  double pacing() const {
    const double s = double(submit0[n - 1] - start) * 1e-9;
    return s > 0 ? double(n - 1) / s / rate : 1.0;
  }
};

autogemm::serve::ShardedEngineOptions engine_options() {
  autogemm::serve::ShardedEngineOptions so;
  so.shards = kShards;
  so.context = context_options(1);
  so.worker.queue_capacity = kQueueCapacity;
  return so;
}

autogemm::obs::Histogram::Snapshot queue_snapshot() {
  auto& r = autogemm::obs::default_registry();
  auto s = r.histogram("autogemm_serve_queue_seconds{lane=\"interactive\"}").snapshot();
  s.merge(r.histogram("autogemm_serve_queue_seconds{lane=\"bulk\"}").snapshot());
  return s;
}

}  // namespace

Outcome run_serve(const RunOptions& opt, SpanLog& log) {
  Outcome out;
  Rng rng(opt.seed);
  auto mix = build_mix(rng);
  // The generator is the calling thread; each shard runs a dispatcher and
  // a supervision monitor, and its serial Context starts no pool.
  out.extra_threads = 2 * kShards;

  std::vector<std::unique_ptr<Phase>> moderate, overload;
  for (int c = 0; c < kCycles; ++c) {
    moderate.push_back(std::make_unique<Phase>(kModerateRps));
    moderate.back()->plan(mix, opt.seconds * kModerateShare / kCycles, rng);
    overload.push_back(std::make_unique<Phase>(kOverloadRps));
    overload.back()->plan(mix, opt.seconds * kOverloadShare / kCycles, rng);
  }

  // ---- set-up: engine construction plus the first request of every entry ----
  std::unique_ptr<autogemm::serve::ShardedEngine> engine;
  std::vector<double> setup_s;
  double first_ns = 0;
  auto submit_all = [&] {
    for (auto& e : mix) {
      Status s = engine->submit(request(*e, e->ring[0], Lane::kBulk)).get();
      out.count(s.ok());
    }
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    ScopedSpan span(log, "setup", rep);
    const std::uint64_t t0 = now_ns();
    auto made = autogemm::serve::ShardedEngine::create(engine_options());
    out.count(made.ok());
    if (!made.ok()) {
      out.invalid.push_back("serve_open: engine construction failed: " +
                            made.status().message());
      return out;
    }
    engine = std::move(*made);
    const std::uint64_t t1 = now_ns();
    submit_all();
    setup_s.push_back(double(now_ns() - t0) * 1e-9);
    first_ns = double(now_ns() - t1);
  }
  if (log.enabled()) {
    const std::uint64_t t0 = now_ns();
    submit_all();
    out.layer["core.setup_resolve_ms"] = (first_ns - double(now_ns() - t0)) * 1e-6;
  }

  auto core_stats = [&] {
    autogemm::ContextStats sum;
    for (std::size_t i = 0; i < engine->shards(); ++i) {
      const auto s = engine->shard_context(i).stats();
      sum.plan_hits += s.plan_hits;
      sum.plan_misses += s.plan_misses;
      sum.packed_hits += s.packed_hits;
      sum.packed_misses += s.packed_misses;
      sum.strategy_serial += s.strategy_serial;
      sum.strategy_blocks += s.strategy_blocks;
      sum.strategy_ksplit += s.strategy_ksplit;
    }
    return sum;
  };

  // ---- timed phases, alternating ----
  // Counter deltas are summed per kind of phase.
  autogemm::serve::ServerStats d_mod, d_over;
  std::uint64_t steals_mod = 0, max_depth_mod = 0;
  auto hist_mod = queue_snapshot();
  for (auto& b : hist_mod.buckets) b = 0;
  hist_mod.count = 0;
  hist_mod.sum = 0;
  auto add = [](autogemm::serve::ServerStats& d, const autogemm::serve::ServerStats& a,
                const autogemm::serve::ServerStats& b) {
    d.shed += a.shed - b.shed;
    d.rejected += a.rejected - b.rejected;
    d.expired += a.expired - b.expired;
    d.batches += a.batches - b.batches;
    d.batched_requests += a.batched_requests - b.batched_requests;
    d.single_dispatches += a.single_dispatches - b.single_dispatches;
  };
  const auto core0 = core_stats();
  bool resolved = true;
  for (int c = 0; c < kCycles; ++c) {
    const auto f0 = engine->stats();
    const auto h0 = queue_snapshot();
    resolved &= moderate[c]->run(*engine, mix, 30);
    const auto h1 = queue_snapshot();
    const auto f1 = engine->stats();
    resolved &= overload[c]->run(*engine, mix, 30);
    const auto f2 = engine->stats();
    add(d_mod, f1.aggregate, f0.aggregate);
    add(d_over, f2.aggregate, f1.aggregate);
    steals_mod += f1.steals - f0.steals;
    // The depth high-water mark is lifetime, so only the first moderate
    // phase, which precedes every overload, reads it cleanly.
    if (c == 0) max_depth_mod = f1.aggregate.max_queue_depth;
    for (int b = 0; b < autogemm::obs::Histogram::kBuckets; ++b)
      hist_mod.buckets[b] += h1.buckets[b] - h0.buckets[b];
    hist_mod.count += h1.count - h0.count;
    hist_mod.sum += h1.sum - h0.sum;
  }
  const auto core_d = stats_delta(core_stats(), core0);
  if (!resolved) {
    // Resolve the stragglers before the phases' buffers can go away.
    engine->shutdown();
    out.invalid.push_back("serve_open: requests left unresolved");
  }
  if (!engine->stats().accounting_clean())
    out.invalid.push_back("serve_open: engine accounting is not clean");

  // ---- outcomes and output checks ----
  std::vector<double> p50, tail, p99, goodput, gflops, late;
  std::size_t n_mod = 0, n_over = 0;
  std::uint64_t slot_waits = 0;
  double pacing_mod = 1, pacing_over = 1;
  for (int c = 0; c < kCycles; ++c) {
    const Phase& m = *moderate[c];
    const Phase& o = *overload[c];
    for (std::size_t i = 0; i < m.n; ++i) out.count(m.ok(i));
    for (std::size_t i = 0; i < o.n; ++i) {
      const int code = o.code[i].load();
      // Shedding and backpressure are the expected answers to overload.
      out.count(code == int(StatusCode::kOk) ||
                code == int(StatusCode::kUnavailable) ||
                code == int(StatusCode::kResourceExhausted) ||
                code == int(StatusCode::kDeadlineExceeded));
    }
    for (const Phase* p : {&m, &o})
      for (std::size_t i = 0; i < p->n; ++i)
        if (p->slot[i] < 0 && p->ok(i))
          out.count(mix[p->entry[i]]->matches(
              p->checks[static_cast<std::size_t>(-1 - p->slot[i])]));
    const auto l = m.latency_ms();
    p50.push_back(median(l));
    tail.push_back(percentile(l, kTailPct));
    out.require_tail("serve_open moderate phase", l.size(), kTailPct);
    p99.push_back(percentile(l, 99));
    const auto lt = m.late_ms();
    late.insert(late.end(), lt.begin(), lt.end());
    goodput.push_back(o.rate_ok([](std::size_t) { return 1.0; }));
    gflops.push_back(o.rate_ok([&](std::size_t e) { return mix[e]->flops() * 1e-9; }));
    n_mod += m.n;
    n_over += o.n;
    slot_waits += m.slot_waits + o.slot_waits;
    pacing_mod = std::min(pacing_mod, m.pacing());
    pacing_over = std::min(pacing_over, o.pacing());
  }
  const double late_p99 = percentile(late, 99);
  // Latency from due time is only meaningful while the generator keeps to
  // its schedule, and goodput only while the offered load exceeds what the
  // fleet serves, which shows as refused work.
  if (late_p99 > kMaxLateMs || pacing_mod < 0.9)
    out.invalid.push_back("serve_open: generator fell behind in a moderate "
                          "phase (late p99 " + std::to_string(late_p99) +
                          " ms, pacing " + std::to_string(pacing_mod) + ")");
  if (d_over.shed + d_over.rejected == 0)
    out.invalid.push_back("serve_open: the overload phases refused no work");

  out.e2e["setup_s"] = median(setup_s);
  out.e2e["gflops"] = fast_quartile(gflops, true);
  out.e2e["ops_per_s"] = fast_quartile(goodput, true);
  out.e2e["latency_ms_p50"] = fast_quartile(p50, false);
  out.e2e["latency_ms_tail"] = fast_quartile(tail, false);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "serve_open: latency_ms_p50=%.4f latency_ms_p90=%.4f "
                "latency_ms_p99=%.4f at %.0f/s (%zu requests, gen late p99 "
                "%.3f ms); goodput_rps=%.0f at %.0f/s offered (%zu requests, "
                "pacing %.3f); buffer waits %llu",
                fast_quartile(p50, false), fast_quartile(tail, false),
                fast_quartile(p99, false), kModerateRps, n_mod,
                late_p99,
                fast_quartile(goodput, true), kOverloadRps, n_over, pacing_over,
                static_cast<unsigned long long>(slot_waits));
  out.notes.push_back(buf);
  if (!log.enabled()) return out;

  // ---- per-layer figures ----
  // Direct replay of the mix through a serial Context: the execution cost
  // a request would have with no serving layer in front of it.
  std::vector<std::vector<double>> exec_us(mix.size());
  {
    Context ctx(context_options(1));
    auto exec = [&](Entry& e) {
      Matrix& c = e.ring[0];
      const std::uint64_t t0 = now_ns();
      const Status s = e.dtype == DType::kI8
                           ? ctx.run_const_b_i8(e.a.view(), e.b.view(), c.view())
                           : ctx.run(e.a.view(), e.b.view(), c.view());
      out.count(s.ok());
      return double(now_ns() - t0) * 1e-3;
    };
    for (auto& e : mix) exec(*e);
    for (int i = 0; i < 4000; ++i) {
      const std::size_t k = draw(mix, rng);
      exec_us[k].push_back(exec(*mix[k]));
    }
  }
  std::vector<double> exec_all, exec_med(mix.size());
  for (std::size_t k = 0; k < mix.size(); ++k) {
    exec_med[k] = median(exec_us[k]);
    exec_all.insert(exec_all.end(), exec_us[k].begin(), exec_us[k].end());
  }
  std::vector<double> submit_us, wait_ms;
  std::uint64_t id = 0;
  for (int c = 0; c < kCycles; ++c) {
    const Phase& m = *moderate[c];
    const auto l = m.latency_ms();
    for (std::size_t i = 0; i < m.n; ++i) {
      submit_us.push_back(double(m.submit1[i] - m.submit0[i]) * 1e-3);
      wait_ms.push_back(l[i] - exec_med[m.entry[i]] * 1e-3);
    }
    const Phase& o = *overload[c];
    // Every moderate request and every 16th overload one: the overload
    // phases submit ~40000 requests per second of the run.
    for (const Phase* p : {&m, &o})
      for (std::size_t i = 0; i < p->n; ++i, ++id) {
        if (p == &o && id % 16 != 0) continue;
        const int r = log.add("serve.request", p->due[i], p->done[i].load(), -1, id);
        log.add("serve.submit", p->submit0[i], p->submit1[i], r, id);
      }
  }
  out.layer["serve.submit_us_p50"] = median(submit_us);
  out.layer["serve.submit_us_p99"] = percentile(submit_us, 99);
  out.layer["serve.exec_us_p50"] = median(exec_all);
  out.layer["serve.wait_ms_p50"] = median(wait_ms);
  out.layer["serve.wait_ms_p99"] = percentile(wait_ms, 99);
  out.layer["serve.queue_hist_ms_p50"] = hist_mod.quantile(0.5) * 1e3;
  out.layer["serve.queue_hist_ms_p99"] = hist_mod.quantile(0.99) * 1e3;
  out.layer["serve.batch_mean"] =
      d_over.batches ? double(d_over.batched_requests) / double(d_over.batches) : 0;
  const auto dispatched = d_over.batched_requests + d_over.single_dispatches;
  out.layer["serve.single_frac"] =
      dispatched ? double(d_over.single_dispatches) / double(dispatched) : 0;
  out.layer["serve.max_queue_depth"] = double(max_depth_mod);
  out.layer["serve.steals"] = double(steals_mod);
  out.layer["serve.shed_moderate"] = double(d_mod.shed);
  out.layer["serve.rejected_moderate"] = double(d_mod.rejected);
  out.layer["serve.expired_moderate"] = double(d_mod.expired);
  out.layer["serve.shed_overload"] = double(d_over.shed);
  out.layer["serve.rejected_overload"] = double(d_over.rejected);
  out.layer["serve.expired_overload"] = double(d_over.expired);
  out.layer["serve.gen_late_ms_p99"] = late_p99;
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < engine->shards(); ++i)
    probes += engine->shard_context(i).health().probes;
  out.layer["core.verify_probes"] = double(probes);
  add_core_counters(out, core_d, double(n_mod + n_over));
  std::vector<std::array<int, 3>> shapes;
  for (const auto& e : mix) shapes.push_back({e->m, e->n, e->k});
  add_kernel_layers(out, engine->shard_context(0), shapes);
  return out;
}

}  // namespace hostbench
