// Measurement helpers of the host benchmark: order statistics, the span
// log the traced run records, self time, due-time latency and the
// parts-sum check. Header-only and free of library dependencies so
// selftest.cpp can check them in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace hostbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Percentile p in [0, 100] by linear interpolation between closest ranks
/// (the convention of numpy's default and Python's statistics "inclusive").
/// Infinite samples (failed requests) sort last and propagate when the
/// percentile lands on them. Returns 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Samples strictly above percentile p: the count a reader needs to trust
/// a tail figure.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  return beyond <= 0 ? 0 : static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

/// The highest of the candidate percentiles that leaves at least
/// `min_beyond` samples beyond it; 50 when none does.
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 90.0, 75.0})
    if (samples_beyond(n, p) >= min_beyond) return p;
  return 50.0;
}

/// Open-loop latency of one request, from the instant it was *due* to be
/// submitted to its completion. A generator stall therefore counts against
/// every request it delayed. Failed requests are infinitely late.
inline double due_latency_ms(std::uint64_t due_ns, std::uint64_t done_ns,
                             bool ok) {
  if (!ok) return kInf;
  if (done_ns <= due_ns) return 0.0;
  return static_cast<double>(done_ns - due_ns) * 1e-6;
}

/// One timed interval of the traced run. `parent` indexes the span log
/// (-1 for a root); `req` groups the spans of one request, step or pass.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t req = 0;
  double dur_ns() const {
    return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) : 0.0;
  }
};

/// In-memory span log of one thread. Disabled, begin() reads no clock and
/// records nothing, so the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, std::uint64_t req) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, req});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  /// Records a span measured elsewhere (e.g. a request completed on
  /// another thread) under an explicit parent.
  int add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
          int parent, std::uint64_t req) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, req});
    return static_cast<int>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t req)
      : log_(log), idx_(log.begin(name, req)) {}
  ~ScopedSpan() { log_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
inline double covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                         std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::uint64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += static_cast<double>(cur_e - cur_s);
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += static_cast<double>(cur_e - cur_s);
  return total;
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
inline std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[s.parent].push_back({s.start_ns, s.end_ns});
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = spans[i].dur_ns() -
             covered_ns(kids[i], spans[i].start_ns, spans[i].end_ns);
  return out;
}

/// True when `parts` add up to `whole` within `rel_tol` of `whole`.
inline bool parts_sum_to(double whole, const std::vector<double>& parts,
                         double rel_tol) {
  double sum = 0;
  for (double p : parts) sum += p;
  if (whole <= 0) return sum == 0;
  return std::abs(sum - whole) <= rel_tol * whole;
}

}  // namespace hostbench
