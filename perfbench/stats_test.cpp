// Tests of the benchmark's statistics helpers: the percentile rule, CPU time
// per datagram, and the span ledger's self-time and residual arithmetic.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnSortedSamples) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 50), 50);
  EXPECT_EQ(percentile_sorted(v, 99), 99);
  EXPECT_EQ(percentile_sorted(v, 100), 100);
  EXPECT_EQ(percentile_sorted({7.0}, 50), 7);
  EXPECT_THROW(percentile_sorted({}, 50), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_EQ(*highest_supported_percentile(20), 50);
  EXPECT_EQ(*highest_supported_percentile(999), 90);
  EXPECT_EQ(*highest_supported_percentile(1000), 99);
  EXPECT_EQ(*highest_supported_percentile(10'000), 99.9);
  EXPECT_EQ(*highest_supported_percentile(100'000), 99.99);
  EXPECT_EQ(*highest_supported_percentile(10'000'000), 99.99);
}

TEST(Percentile, SummarizeWithholdsAThinPercentile) {
  EXPECT_FALSE(summarize(one_to(19)).has_value());
  const TimingSummary thin = *summarize(one_to(999));
  EXPECT_EQ(thin.p50, 500);
  EXPECT_FALSE(thin.p99.has_value());
  EXPECT_EQ(thin.top_percentile, 90);

  std::vector<double> v = one_to(10'000);
  std::reverse(v.begin(), v.end());  // summarize sorts its own copy
  const TimingSummary s = *summarize(v);
  EXPECT_EQ(s.count, 10'000u);
  EXPECT_EQ(s.p50, 5000);
  EXPECT_EQ(*s.p99, 9900);
  EXPECT_EQ(s.top_percentile, 99.9);
  EXPECT_EQ(s.top_value, 9990);
}

TEST(WindowedMedian, CutsWindowsOfAtLeastTwentySamples) {
  EXPECT_FALSE(windowed_median(one_to(19)).has_value());
  EXPECT_EQ(*windowed_median(one_to(20)), 10);  // one window, no trim
  // 100 samples: five windows of 20 (medians 10, 30, ..., 90), none trimmed.
  EXPECT_EQ(*windowed_median(one_to(100)), 50);
  // 6400 samples: 32 windows of 200 (medians 100, 300, ..., 6300); the
  // four lowest and four highest are dropped, the middle 24 averaged.
  EXPECT_EQ(*windowed_median(one_to(6400)), 3200);
}

TEST(WindowedMedian, IgnoresAStallInEveryWindow) {
  std::vector<double> v(3200, 20.0);
  for (std::size_t i = 0; i < v.size(); i += 10) v[i] = 5000.0;  // 10% stalled
  EXPECT_EQ(*windowed_median(v), 20);
  EXPECT_EQ(summarize(v)->p50, 20);
}

TEST(WindowedMedian, MovesInProportionToATwoModeMix) {
  // 32 windows of 100 samples; the first `fast` windows run at 15 us, the
  // rest at 21 us. The median jumps by the whole gap as the fast share
  // crosses one half; the windowed median steps by 6/24 us per window.
  const auto mix = [](std::size_t fast) {
    std::vector<double> v(3200, 21.0);
    std::fill(v.begin(), v.begin() + 100 * fast, 15.0);
    return *summarize(v);
  };
  EXPECT_EQ(mix(15).p50, 21);
  EXPECT_EQ(mix(17).p50, 15);
  EXPECT_EQ(mix(12).wmedian, (8 * 15 + 16 * 21) / 24.0);
  EXPECT_EQ(mix(15).wmedian, (11 * 15 + 13 * 21) / 24.0);
  EXPECT_EQ(mix(16).wmedian, 18);
  EXPECT_EQ(mix(17).wmedian, (13 * 15 + 11 * 21) / 24.0);
  EXPECT_EQ(mix(20).wmedian, (16 * 15 + 8 * 21) / 24.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(CpuPerDatagram, SumsUserAndSystemTime) {
  const CpuTimes before{1.0, 0.5};
  const CpuTimes after{3.0, 1.5};  // 2 s user + 1 s system
  EXPECT_DOUBLE_EQ(cpu_us_per_datagram(before, after, 1'000'000), 3.0);
  EXPECT_THROW(cpu_us_per_datagram(before, after, 0), std::invalid_argument);
}

TEST(SpanLedger, SelfTimeExcludesChildren) {
  SpanLedger l;
  // send [0, 100) holds transport.send [20, 70); a later poll [100, 160)
  // holds a sink [110, 150) that holds a handler [120, 130).
  l.begin(Span::kUdpSend, 0);
  l.begin(Span::kTransportSend, 20);
  l.end(Span::kTransportSend, 70);
  l.end(Span::kUdpSend, 100);
  l.begin(Span::kPoll, 100);
  l.begin(Span::kSink, 110);
  l.begin(Span::kHandler, 120);
  l.end(Span::kHandler, 130);
  l.end(Span::kSink, 150);
  l.end(Span::kPoll, 160);

  EXPECT_EQ(l.total_ns(Span::kUdpSend), 100);
  EXPECT_EQ(l.self_ns(Span::kUdpSend), 50);
  EXPECT_EQ(l.self_ns(Span::kTransportSend), 50);
  EXPECT_EQ(l.self_ns(Span::kPoll), 20);
  EXPECT_EQ(l.self_ns(Span::kSink), 30);
  EXPECT_EQ(l.self_ns(Span::kHandler), 10);
  EXPECT_EQ(l.count(Span::kSink), 1u);

  // Self times of all spans add up to the wall time the spans cover.
  double self = 0;
  for (std::size_t s = 0; s < kSpanCount; ++s)
    self += l.self_ns(static_cast<Span>(s));
  EXPECT_EQ(self, 160);
}

TEST(SpanLedger, RelabelRecordsUnderTheNewName) {
  SpanLedger l;
  l.begin(Span::kDrain, 0);
  l.relabel(Span::kWait);
  l.end(Span::kDrain, 5);
  EXPECT_EQ(l.count(Span::kDrain), 0u);
  EXPECT_EQ(l.count(Span::kWait), 1u);
  EXPECT_EQ(l.self_ns(Span::kWait), 5);
}

TEST(SpanLedger, MismatchedEndThrows) {
  SpanLedger l;
  EXPECT_THROW(l.end(Span::kPoll, 1), std::logic_error);
  l.begin(Span::kPoll, 0);
  EXPECT_THROW(l.end(Span::kSink, 1), std::logic_error);
}

TEST(Ledger, ResidualIsWallMinusNamedSelfTimes) {
  // A stage recorded inside a span is subtracted from that span's self
  // time before both enter the ledger, so nothing counts twice.
  const double udp_send_self = 40;
  const double fbs_send_stages = 30;
  const std::vector<LedgerEntry> entries = {
      {"net.stack.send_self", udp_send_self - fbs_send_stages},
      {"fbs.send", fbs_send_stages},
      {"net.transport.send", 50},
  };
  EXPECT_DOUBLE_EQ(residual_share(100, entries), 0.1);
  EXPECT_DOUBLE_EQ(residual_share(90, entries), 0.0);
  EXPECT_THROW(residual_share(0, entries), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
