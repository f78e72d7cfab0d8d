#include "obs/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "json_check.hpp"

namespace {

using obs::Counter;
using obs::Histogram;
using obs::Recorder;

TEST(Counter, AddsAndMerges) {
  Counter a, b;
  a.add();
  a.add(4);
  b.add(10);
  EXPECT_EQ(a.value(), 5u);
  a.merge(b);
  EXPECT_EQ(a.value(), 15u);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.p50(), 0);
  EXPECT_DOUBLE_EQ(h.p99(), 0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.add(1234.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 1234.5);
  EXPECT_DOUBLE_EQ(h.max(), 1234.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1234.5);
  // Clamping to [min, max] makes a one-sample histogram exact.
  EXPECT_DOUBLE_EQ(h.percentile(0), 1234.5);
  EXPECT_DOUBLE_EQ(h.p50(), 1234.5);
  EXPECT_DOUBLE_EQ(h.p99(), 1234.5);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1234.5);
}

TEST(Histogram, SubUnitSamplesLandInZeroBucket) {
  Histogram h;
  h.add(0.0);
  h.add(0.25);
  h.add(0.9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GE(h.p50(), 0.0);
  EXPECT_LE(h.p99(), 0.9);  // clamped to observed max
}

TEST(Histogram, UniformPercentilesWithinBucketResolution) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.add(v);
  // 8 sub-buckets per octave => <= ~9% relative error, plus clamping.
  EXPECT_NEAR(h.p50(), 500, 500 * 0.10);
  EXPECT_NEAR(h.p90(), 900, 900 * 0.10);
  EXPECT_NEAR(h.p99(), 990, 990 * 0.10);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(Histogram, PercentilesAreMonotone) {
  Histogram h;
  for (int v = 1; v <= 317; ++v) h.add(v * 7.0);
  double prev = 0;
  for (double p = 0; p <= 100; p += 2.5) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
}

TEST(Histogram, MergeMatchesCombinedStream) {
  Histogram a, b, combined;
  std::vector<double> xs = {3, 17, 250, 80000, 1.5e9};
  std::vector<double> ys = {1, 9, 1024, 5.5, 123456};
  for (const double v : xs) {
    a.add(v);
    combined.add(v);
  }
  for (const double v : ys) {
    b.add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.add(42);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.max(), 42);
  Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.p50(), a.p50());
}

TEST(Histogram, HugeValuesSaturateLastOctave) {
  Histogram h;
  h.add(1e300);  // way past 2^40: must not index out of bounds
  h.add(1e301);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e301);
  EXPECT_LE(h.p99(), 1e301);
  EXPECT_GE(h.p50(), 1e300);  // clamped to observed min
}

TEST(Histogram, PercentilesClampAtExactBucketBoundaries) {
  // Powers of two sit exactly on octave boundaries; clamping must keep
  // every percentile inside [min, max] even there.
  Histogram h;
  h.add(2.0);
  h.add(4.0);
  h.add(8.0);
  // p0 lands in the lowest occupied bucket [2, 2.25); p100 interpolates
  // past 8 within its bucket and must be clamped back to the observed max.
  EXPECT_GE(h.percentile(0), 2.0);
  EXPECT_LT(h.percentile(0), 2.25);
  EXPECT_DOUBLE_EQ(h.percentile(100), 8.0);
  for (double p = 0; p <= 100; p += 1.0) {
    const double q = h.percentile(p);
    EXPECT_GE(q, 2.0) << "p=" << p;
    EXPECT_LE(q, 8.0) << "p=" << p;
  }
}

TEST(Histogram, MergeEmptyIntoNonemptyAndBack) {
  Histogram filled, empty;
  filled.add(10);
  filled.add(1000);
  // empty -> nonempty: a no-op that must not disturb min/max/percentiles.
  const double p0 = filled.percentile(0);
  const double p100 = filled.percentile(100);
  filled.merge(empty);
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_DOUBLE_EQ(filled.min(), 10);
  EXPECT_DOUBLE_EQ(filled.max(), 1000);
  EXPECT_DOUBLE_EQ(filled.percentile(0), p0);
  EXPECT_DOUBLE_EQ(filled.percentile(100), p100);
  EXPECT_GE(p0, 10);
  EXPECT_LE(p100, 1000);
  // nonempty -> empty: the empty side adopts the distribution wholesale.
  empty.merge(filled);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.min(), 10);
  EXPECT_DOUBLE_EQ(empty.max(), 1000);
  EXPECT_DOUBLE_EQ(empty.p50(), filled.p50());
}

TEST(MetricsJson, EmitsParsableJsonWithAllMetricKinds) {
  Recorder r;
  r.counter("ce.puts").add(7);
  r.histogram("lat_ns").add(100);
  r.histogram("lat_ns").add(300);
  const std::string j = obs::metrics_json(r);
  EXPECT_TRUE(test_support::json_parse_ok(j)) << j;
  EXPECT_NE(j.find("\"ce.puts\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"lat_ns\""), std::string::npos);
  EXPECT_NE(j.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(j.find("\"mean\": 200"), std::string::npos);
}

TEST(MetricsJson, EscapesHostileNamesAndIsDeterministic) {
  const auto build = [] {
    Recorder r;
    r.counter("weird \"name\"\\with\njunk").add(1);
    r.histogram("h").add(3.5);
    return r;
  };
  const Recorder a = build();
  const std::string ja = obs::metrics_json(a);
  EXPECT_TRUE(test_support::json_parse_ok(ja)) << ja;
  // Identical recorders must render byte-identically (sorted iteration).
  EXPECT_EQ(ja, obs::metrics_json(build()));
}

TEST(MetricsJson, OmitsEmptyHistograms) {
  Recorder r;
  r.histogram("resolved_never_sampled_ns");
  r.histogram("lat_ns").add(100);
  const std::string j = obs::metrics_json(r);
  EXPECT_TRUE(test_support::json_parse_ok(j)) << j;
  EXPECT_NE(j.find("\"lat_ns\""), std::string::npos);
  EXPECT_EQ(j.find("resolved_never_sampled_ns"), std::string::npos);
  // A recorder whose only histogram is empty renders like an empty one.
  Recorder only_empty;
  only_empty.histogram("h");
  EXPECT_EQ(obs::metrics_json(only_empty), obs::metrics_json(Recorder{}));
}

TEST(MetricsJson, EmptyRecorderIsValid) {
  EXPECT_TRUE(test_support::json_parse_ok(obs::metrics_json(Recorder{})));
}

struct TwoCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
constexpr obs::CounterField<TwoCounts> kTwoCounts[] = {
    {"t.hits", &TwoCounts::hits},
    {"t.misses", &TwoCounts::misses},
};

TEST(ExportCounters, WritesNonzeroFieldsOnlyAndAccumulates) {
  Recorder r;
  obs::export_counters(TwoCounts{3, 0}, kTwoCounts, r);
  ASSERT_NE(r.find_counter("t.hits"), nullptr);
  EXPECT_EQ(r.find_counter("t.hits")->value(), 3u);
  EXPECT_EQ(r.find_counter("t.misses"), nullptr);
  // A second export into the same recorder adds, like merging two nodes.
  obs::export_counters(TwoCounts{1, 2}, kTwoCounts, r);
  EXPECT_EQ(r.find_counter("t.hits")->value(), 4u);
  EXPECT_EQ(r.find_counter("t.misses")->value(), 2u);
}

TEST(Recorder, CreatesOnUseAndFinds) {
  Recorder r;
  EXPECT_EQ(r.find_counter("x"), nullptr);
  r.counter("x").add(3);
  ASSERT_NE(r.find_counter("x"), nullptr);
  EXPECT_EQ(r.find_counter("x")->value(), 3u);
  EXPECT_EQ(r.find_histogram("lat"), nullptr);
  r.histogram("lat").add(10);
  EXPECT_EQ(r.find_histogram("lat")->count(), 1u);
}

TEST(Recorder, MergeCombinesByName) {
  Recorder a, b;
  a.counter("msgs").add(2);
  b.counter("msgs").add(5);
  b.counter("only_b").add(1);
  a.histogram("lat").add(100);
  b.histogram("lat").add(300);
  a.merge(b);
  EXPECT_EQ(a.find_counter("msgs")->value(), 7u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 1u);
  EXPECT_EQ(a.find_histogram("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_histogram("lat")->max(), 300);
}

}  // namespace
