// Statistics helpers of the repository benchmark: percentiles under the
// ten-samples-beyond rule, CPU time per datagram, and the span ledger that
// turns nested spans into self times and a named residual. Header-only and
// free of FBS types so stats_test.cpp can check them in isolation.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile (0 < p <= 100) of n samples.
/// The tolerance keeps p*n/100 that is whole in exact arithmetic (99.9% of
/// 10000) from rounding up one rank.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rank = std::ceil(exact - 1e-9 * exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// Nearest-rank percentile of samples sorted ascending.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The percentile ladder a timing is reported on.
inline constexpr std::array<double, 5> kPercentileLadder = {50.0, 90.0, 99.0,
                                                            99.9, 99.99};

/// Highest ladder percentile with at least ten samples beyond it; nullopt
/// when even the median has fewer than ten samples beyond it.
inline std::optional<double> highest_supported_percentile(std::size_t n) {
  std::optional<double> best;
  for (double p : kPercentileLadder)
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

/// Windows a slice's samples are cut into for the windowed median, and the
/// fewest samples a window may hold (fewer windows are cut below that).
inline constexpr std::size_t kMedianWindows = 32;
inline constexpr std::size_t kMinWindowSamples = 20;

/// Windowed median of samples in arrival order: cut them into up to
/// kMedianWindows consecutive windows of at least kMinWindowSamples, take
/// each window's median, and average those medians once the lowest and the
/// highest eighth of them are dropped. A stall that delays a minority of a
/// window's samples leaves its median alone, as it leaves a plain median
/// alone. Where the samples fall into two modes that alternate over tens of
/// milliseconds to seconds, each window's median sits in the mode that held
/// that window, and the mean moves in proportion to the time spent in each
/// mode; a plain median jumps by the whole gap once that share crosses one
/// half. nullopt with fewer than kMinWindowSamples samples.
inline std::optional<double> windowed_median(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  const std::size_t k = std::min(kMedianWindows, n / kMinWindowSamples);
  if (k == 0) return std::nullopt;
  std::vector<double> medians;
  std::vector<double> window;
  for (std::size_t j = 0; j < k; ++j) {
    window.assign(samples.begin() + static_cast<std::ptrdiff_t>(j * n / k),
                  samples.begin() + static_cast<std::ptrdiff_t>((j + 1) * n / k));
    std::sort(window.begin(), window.end());
    medians.push_back(percentile_sorted(window, 50.0));
  }
  std::sort(medians.begin(), medians.end());
  const std::size_t trim = k / 8;
  double sum = 0;
  for (std::size_t j = trim; j < k - trim; ++j) sum += medians[j];
  return sum / static_cast<double>(k - 2 * trim);
}

struct TimingSummary {
  std::size_t count = 0;
  double p50 = 0;
  double wmedian = 0;  // windowed_median()
  std::optional<double> p99;  // only with ten samples beyond it
  double top_percentile = 0;  // highest supported ladder percentile
  double top_value = 0;
};

/// Median, windowed median, p99 and the highest supported percentile of
/// `samples` (in arrival order); nullopt when even the median has fewer than ten samples beyond
/// it. A p99 read off fewer samples is not reported under that name.
inline std::optional<TimingSummary> summarize(std::vector<double> samples) {
  const auto top = highest_supported_percentile(samples.size());
  if (!top) return std::nullopt;
  TimingSummary s;
  s.wmedian = *windowed_median(samples);
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.p50 = percentile_sorted(samples, 50.0);
  if (samples_beyond(samples.size(), 99.0) >= 10)
    s.p99 = percentile_sorted(samples, 99.0);
  s.top_percentile = *top;
  s.top_value = percentile_sorted(samples, *top);
  return s;
}

/// Median of a small set (set-up repetitions); mean of the middle pair.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Process CPU time (user + system, all threads) in seconds.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

/// CPU microseconds spent per delivered datagram between two readings.
inline double cpu_us_per_datagram(const CpuTimes& before,
                                  const CpuTimes& after,
                                  std::uint64_t delivered) {
  if (delivered == 0) throw std::invalid_argument("no datagram delivered");
  const double cpu_s = (after.user_s - before.user_s) +
                       (after.sys_s - before.sys_s);
  return cpu_s * 1e6 / static_cast<double>(delivered);
}

/// The spans the benchmark opens around public calls, one per layer
/// boundary it can see from outside the library.
enum class Span : std::size_t {
  kUdpSend,        // UdpService::send
  kTransportSend,  // Transport::send (the decorator)
  kPoll,           // UdpTransport::poll
  kSink,           // a frame sink the transport dispatches to
  kHandler,        // the bench's bound UDP handler (payload check, reply)
  kDrain,          // FbsIpMapping::drain_pipeline
  kWait,           // drain_pipeline in a pass that found nothing to do
  kCount,
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

/// Aggregates nested spans of one thread into per-span totals and self
/// times (a span's duration minus the time its child spans cover).
class SpanLedger {
 public:
  void begin(Span span, std::int64_t t_ns) {
    if (depth_ == stack_.size()) throw std::logic_error("span stack overflow");
    stack_[depth_++] = Open{span, span, t_ns, 0};
  }

  void end(Span span, std::int64_t t_ns) {
    if (depth_ == 0 || stack_[depth_ - 1].span != span)
      throw std::logic_error("span end does not match the open span");
    const Open open = stack_[--depth_];
    const std::int64_t duration = t_ns - open.start_ns;
    Totals& t = totals_[static_cast<std::size_t>(open.record_as)];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - open.child_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  }

  /// Record the innermost open span under another name when it ends (a
  /// drain that found nothing is waiting, not draining).
  void relabel(Span span) {
    if (depth_ == 0) throw std::logic_error("no open span to relabel");
    stack_[depth_ - 1].record_as = span;
  }

  std::uint64_t count(Span s) const { return at(s).count; }
  double total_ns(Span s) const { return static_cast<double>(at(s).total_ns); }
  double self_ns(Span s) const { return static_cast<double>(at(s).self_ns); }

 private:
  struct Open {
    Span span = Span::kCount;
    Span record_as = Span::kCount;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  const Totals& at(Span s) const {
    return totals_[static_cast<std::size_t>(s)];
  }

  std::array<Open, 16> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, kSpanCount> totals_{};
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens `span` on `ledger` for its lifetime; does nothing without a ledger
/// (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLedger* ledger, Span span) : ledger_(ledger), span_(span) {
    if (ledger_) ledger_->begin(span_, now_ns());
  }
  ~ScopedSpan() {
    if (ledger_) ledger_->end(span_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLedger* ledger_;
  Span span_;
};

/// One named self time of the per-datagram ledger.
struct LedgerEntry {
  const char* name = "";
  double ns = 0;  // summed over the traced window
};

/// Share of `wall_ns` left once every named self time is subtracted. The
/// names must not overlap, so the entries and the residual add up to the
/// wall time.
inline double residual_share(double wall_ns,
                             const std::vector<LedgerEntry>& entries) {
  if (wall_ns <= 0) throw std::invalid_argument("empty traced window");
  double named = 0;
  for (const auto& e : entries) named += e.ns;
  return (wall_ns - named) / wall_ns;
}

}  // namespace perfbench
