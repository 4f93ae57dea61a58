// Time-series sampler unit tests (DESIGN.md §16): boundary semantics,
// delta encoding, the serialize/parse round trip, unenrollment, and the
// histogram percentile estimator the timeline report renders.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace hn::obs {
namespace {

TEST(TimeSeries, PollEmitsOneRowPerBoundary) {
  TimeSeries ts;
  u64 work = 0;
  u64 depth = 0;
  ts.enroll("work", TrackKind::kCounter, [&] { return work; });
  ts.enroll("depth", TrackKind::kLevel, [&] { return depth; });
  ts.arm(100, 0);
  EXPECT_TRUE(ts.armed());

  work = 7;
  depth = 3;
  ts.poll(50);  // before the first boundary: nothing
  EXPECT_EQ(ts.sample_count(), 0u);

  work = 10;
  depth = 2;
  ts.poll(250);  // crosses 100 and 200 in one poll
  const TimeSeriesData data = ts.data(250);
  ASSERT_GE(data.samples.size(), 2u);
  // Both rows are stamped at the *boundary* cycles, not the poll cycle,
  // and the second window's delta is 0 (no probe movement since 100).
  EXPECT_EQ(data.samples[0].at, 100u);
  EXPECT_EQ(data.samples[0].values[0], 10u);  // counter: delta since arm
  EXPECT_EQ(data.samples[0].values[1], 2u);   // level: as-is
  EXPECT_EQ(data.samples[1].at, 200u);
  EXPECT_EQ(data.samples[1].values[0], 0u);
}

TEST(TimeSeries, BoundariesAreAbsolute) {
  // Arming mid-stream schedules the next *absolute* multiple of the
  // interval, so re-arming at the same simulated cycle reproduces the
  // same stamps (the snapshot-boot byte-identity hinges on this).
  TimeSeries ts;
  u64 v = 0;
  ts.enroll("v", TrackKind::kCounter, [&] { return v; });
  ts.arm(100, 150);
  ts.poll(199);
  EXPECT_EQ(ts.sample_count(), 0u);
  ts.poll(200);
  const TimeSeriesData data = ts.data(200);
  ASSERT_EQ(data.samples.size(), 1u);
  EXPECT_EQ(data.samples[0].at, 200u);
}

TEST(TimeSeries, CounterSumsTelescopeToTotal) {
  TimeSeries ts;
  u64 v = 0;
  ts.enroll("v", TrackKind::kCounter, [&] { return v; });
  ts.arm(64, 0);
  for (Cycles now = 1; now <= 300; ++now) {
    v += now % 3;
    ts.poll(now);
  }
  // data() appends a flush row for the partial tail window [256, 300],
  // so the track total equals the end-of-run counter exactly.
  const TimeSeriesData data = ts.data(300);
  EXPECT_EQ(data.samples.back().at, 300u);
  EXPECT_EQ(data.track_total("v"), v);
  u64 sum = 0;
  for (const TimeSeriesSample& row : data.samples) sum += row.values[0];
  EXPECT_EQ(sum, v);
}

TEST(TimeSeries, RearmResetsBaselineAndSamples) {
  // clear_samples + arm models snapshot restore: the underlying
  // accumulator may jump backwards (restored state), and deltas must
  // restart from the re-primed baseline, not the old one.
  TimeSeries ts;
  u64 v = 0;
  ts.enroll("v", TrackKind::kCounter, [&] { return v; });
  ts.arm(100, 0);
  v = 500;
  ts.poll(100);
  EXPECT_EQ(ts.sample_count(), 1u);

  ts.clear_samples();
  EXPECT_FALSE(ts.armed());
  EXPECT_EQ(ts.sample_count(), 0u);

  v = 20;  // "restored" accumulator, below the old value
  ts.arm(100, 0);
  v = 27;
  ts.poll(100);
  const TimeSeriesData data = ts.data(100);
  ASSERT_EQ(data.samples.size(), 1u);
  EXPECT_EQ(data.samples[0].values[0], 7u);
}

TEST(TimeSeries, SerializeParseRoundTrip) {
  TimeSeries ts;
  u64 a = 0;
  u64 b = 0;
  ts.enroll("track.a", TrackKind::kCounter, [&] { return a; });
  ts.enroll("track.b", TrackKind::kLevel, [&] { return b; });
  ts.arm(10, 0);
  for (Cycles now = 1; now <= 35; ++now) {
    a += 2;
    b = now % 5;
    ts.poll(now);
  }
  TimeSeriesData data = ts.data(35);
  data.cpu_ghz = 2.5;

  const std::vector<u8> blob = serialize_timeseries(data);
  TimeSeriesData parsed;
  ASSERT_TRUE(parse_timeseries(blob, parsed).ok());
  EXPECT_EQ(parsed, data);

  // Corruption is rejected precisely: magic, version, truncation,
  // trailing bytes.
  std::vector<u8> bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(parse_timeseries(bad, parsed).ok());
  bad = blob;
  bad[8] = 99;
  EXPECT_FALSE(parse_timeseries(bad, parsed).ok());
  bad = blob;
  bad.resize(bad.size() - 1);
  EXPECT_FALSE(parse_timeseries(bad, parsed).ok());
  bad = blob;
  bad.push_back(0);
  EXPECT_FALSE(parse_timeseries(bad, parsed).ok());
}

TEST(TimeSeries, UnenrollPrefixDropsTracksAndColumns) {
  TimeSeries ts;
  u64 x = 0;
  ts.enroll("mbm.fifo.drops", TrackKind::kCounter, [&] { return x; });
  ts.enroll("mbm.detections", TrackKind::kCounter, [&] { return x; });
  ts.enroll("sim.core0.cycles", TrackKind::kCounter, [&] { return x; });
  ts.arm(10, 0);
  x = 4;
  ts.poll(10);

  ts.unenroll_prefix("mbm.");
  EXPECT_EQ(ts.track_count(), 1u);
  const TimeSeriesData data = ts.data(10);
  ASSERT_EQ(data.tracks.size(), 1u);
  EXPECT_EQ(data.tracks[0].name, "sim.core0.cycles");
  ASSERT_EQ(data.samples.size(), 1u);
  ASSERT_EQ(data.samples[0].values.size(), 1u);
  EXPECT_EQ(data.samples[0].values[0], 4u);
}

TEST(TimeSeries, UnenrollPrefixKeepsRowsSampledBeforeALaterEnroll) {
  // A row sampled before a later enroll() is shorter than the track list;
  // unenrolling must drop its columns without reading past its end.
  TimeSeries ts;
  u64 x = 0;
  ts.enroll("sim.core0.cycles", TrackKind::kCounter, [&] { return x; });
  ts.enroll("mbm.detections", TrackKind::kCounter, [&] { return x; });
  ts.arm(10, 0);
  x = 4;
  ts.poll(10);  // row 0: two columns
  ts.enroll("hypersec.irqs", TrackKind::kLevel, [&] { return x; });
  x = 6;
  ts.poll(20);  // row 1: three columns

  ts.unenroll_prefix("mbm.");
  const TimeSeriesData data = ts.data(20);
  ASSERT_EQ(data.tracks.size(), 2u);
  EXPECT_EQ(data.tracks[1].name, "hypersec.irqs");
  ASSERT_EQ(data.samples.size(), 2u);
  ASSERT_EQ(data.samples[0].values.size(), 1u);
  EXPECT_EQ(data.samples[0].values[0], 4u);
  ASSERT_EQ(data.samples[1].values.size(), 2u);
  EXPECT_EQ(data.samples[1].values[0], 2u);
  EXPECT_EQ(data.samples[1].values[1], 6u);
}

TEST(TimeSeries, TrackTotalLevelReportsLastValue) {
  TimeSeries ts;
  u64 depth = 0;
  ts.enroll("depth", TrackKind::kLevel, [&] { return depth; });
  ts.arm(10, 0);
  depth = 9;
  ts.poll(10);
  depth = 4;
  ts.poll(20);
  const TimeSeriesData data = ts.data(20);
  EXPECT_EQ(data.track_total("depth"), 4u);
  EXPECT_EQ(data.track_total("no.such.track"), 0u);
}

TEST(TimeSeries, DisarmedPollIsInert) {
  TimeSeries ts;
  u64 v = 0;
  ts.enroll("v", TrackKind::kCounter, [&] { return v; });
  EXPECT_FALSE(ts.armed());
  v = 100;
  ts.poll(1000000);
  EXPECT_EQ(ts.sample_count(), 0u);
  EXPECT_TRUE(ts.data(1000000).samples.empty());
}

// ---------------- percentile estimator ----------------

TEST(HistogramPercentile, EmptyReportsZero) {
  const HistogramData h{};
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(100), 0u);
}

TEST(HistogramPercentile, SingleValueUpperBound) {
  HistogramData h{};
  h.record(5, 1);  // bucket 3 (values 4..7), inclusive upper bound 7
  EXPECT_EQ(h.percentile(0), 7u);
  EXPECT_EQ(h.percentile(50), 7u);
  EXPECT_EQ(h.percentile(99), 7u);
  EXPECT_EQ(h.percentile(100), 7u);
}

TEST(HistogramPercentile, SplitPopulationGoldens) {
  // 90 fast samples (value 1, bucket upper bound 1) and 10 slow ones
  // (value 1000, bucket 10, upper bound 1023): the p90 still lands in
  // the fast bucket, p91 and above report the slow tail.
  HistogramData h{};
  for (int i = 0; i < 90; ++i) h.record(1, 1);
  for (int i = 0; i < 10; ++i) h.record(1000, 1);
  EXPECT_EQ(h.percentile(50), 1u);
  EXPECT_EQ(h.percentile(90), 1u);
  EXPECT_EQ(h.percentile(91), 1023u);
  EXPECT_EQ(h.percentile(99), 1023u);
  EXPECT_EQ(h.percentile(100), 1023u);
}

TEST(HistogramPercentile, RankRoundsUpWithoutOverflow) {
  // 3 samples at p50: rank = ceil(1.5) = 2, so the 2nd-smallest bucket
  // answers — exact boundary arithmetic, no floating point.
  HistogramData h{};
  h.record(0, 1);   // bucket 0, upper bound 0
  h.record(2, 1);   // bucket 2, upper bound 3
  h.record(64, 1);  // bucket 7, upper bound 127
  EXPECT_EQ(h.percentile(50), 3u);
  EXPECT_EQ(h.percentile(34), 3u);
  EXPECT_EQ(h.percentile(33), 0u);
  EXPECT_EQ(h.percentile(67), 127u);
}

}  // namespace
}  // namespace hn::obs
