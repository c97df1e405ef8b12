// Self-test of the benchmark's measurement helpers (stats.hpp). run.py runs
// it before every workload; a failure stops the benchmark before it
// reports numbers computed by a broken helper.
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * (1 + std::abs(b)); }

using namespace hostbench;

void percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(near(percentile(v, 50), 5.5));
  EXPECT(near(percentile(v, 0), 1));
  EXPECT(near(percentile(v, 100), 10));
  EXPECT(near(percentile(v, 90), 9.1));
  EXPECT(near(median({7}), 7));
  EXPECT(percentile({}, 50) == 0);
  // A failed request is infinitely late and must surface in the tail.
  std::vector<double> lat(99, 1.0);
  lat.push_back(kInf);
  EXPECT(near(percentile(lat, 50), 1.0));
  EXPECT(std::isinf(percentile(lat, 100)));
}

void tails() {
  EXPECT(samples_beyond(100, 90) == 10);
  EXPECT(samples_beyond(100, 99) == 1);
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(tail_percentile(10000) == 99.9);
  EXPECT(tail_percentile(1000) == 99);
  EXPECT(tail_percentile(999) == 90);
  EXPECT(tail_percentile(100) == 90);
  EXPECT(tail_percentile(40) == 75);
  EXPECT(tail_percentile(39) == 50);
}

void due_time() {
  // Due at 1 ms, done at 4 ms: 3 ms, whenever the submit happened.
  EXPECT(near(due_latency_ms(1'000'000, 4'000'000, true), 3.0));
  EXPECT(std::isinf(due_latency_ms(1'000'000, 4'000'000, false)));
  EXPECT(due_latency_ms(5, 5, true) == 0);
}

void self_time() {
  std::vector<Span> s = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // overlaps a: the union is counted once
      {"a.x", 15, 20, 1, 1},
      {"late", 90, 120, 0, 1},  // runs past its parent: clipped
  };
  const auto self = self_times_ns(s);
  EXPECT(near(self[0], 100 - 50 - 10));
  EXPECT(near(self[1], 30 - 5));
  EXPECT(near(self[2], 30));
  EXPECT(near(self[3], 5));
}

void parts_sum() {
  EXPECT(parts_sum_to(100, {50, 30, 20}, 1e-9));
  EXPECT(!parts_sum_to(100, {50, 30}, 0.1));
  EXPECT(parts_sum_to(100, {50, 45}, 0.05));
  // A pass: two calls and loop overhead. The packed replay explains 70 of
  // the 90 spent in the calls; the rest is unattributed.
  std::vector<Span> pass = {{"pass", 0, 100, -1, 0},
                            {"run", 2, 50, 0, 0},
                            {"run", 52, 94, 0, 0}};
  const auto self = self_times_ns(pass);
  const double runs = pass[1].dur_ns() + pass[2].dur_ns();
  const double replay = 70, unattributed = runs - replay;
  EXPECT(parts_sum_to(pass[0].dur_ns(), {replay, unattributed, self[0]}, 1e-12));
}

void span_log() {
  SpanLog log(true);
  {
    ScopedSpan a(log, "outer", 3);
    ScopedSpan b(log, "inner", 3);
  }
  const int c = log.add("request", 5, 9, -1, 4);
  log.add("submit", 6, 7, c, 4);
  const auto& s = log.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[0].parent == -1 && s[1].parent == 0 && s[3].parent == 2);
  EXPECT(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
  SpanLog off(false);
  { ScopedSpan a(off, "outer", 1); }
  EXPECT(off.add("x", 1, 2, -1, 0) == -1 && off.spans().empty());
}

}  // namespace

int main() {
  percentiles();
  tails();
  due_time();
  self_time();
  parts_sum();
  span_log();
  if (failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
