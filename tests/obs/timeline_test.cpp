#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/trace_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "json_check.hpp"

namespace {

using obs::FlightKind;
using obs::FlightRecorder;
using obs::Timeline;
using obs::TimelineConfig;

TimelineConfig mem_config(des::Duration interval) {
  TimelineConfig cfg;
  cfg.interval = interval;  // empty path: in-memory only
  return cfg;
}

// Drives `tl` through an event schedule with a counter the events bump.
// Returns the number of engine events fired.
int drive(des::Engine& eng, Timeline& tl, const std::vector<des::Time>& at,
          double* level) {
  int fired = 0;
  for (const des::Time t : at) {
    eng.schedule_at(t, [level, &fired]() {
      *level += 1;
      ++fired;
    });
  }
  tl.arm(eng);
  eng.run();
  return fired;
}

TEST(Timeline, SamplesEveryBoundaryAndObservesPreBoundaryState) {
  des::Engine eng;
  Timeline tl(mem_config(100));
  double level = 0;
  tl.add_probe("level", 0, [&level]() { return level; });
  // Events at 50, 150, 250: the boundary at 100 must observe the state
  // after the t=50 event (level 1), the boundary at 200 the state after
  // t=150 (level 2).
  drive(eng, tl, {50, 150, 250}, &level);
  tl.finish(300);
  const obs::ProbeSeries& s = tl.probe(0);
  // Boundaries 100, 200 fire inside the run; finish() adds t=300.
  ASSERT_EQ(s.samples, 3u);
  ASSERT_EQ(s.times.size(), 3u);
  EXPECT_EQ(s.times[0], 100);
  EXPECT_DOUBLE_EQ(s.values[0], 1);
  EXPECT_EQ(s.times[1], 200);
  EXPECT_DOUBLE_EQ(s.values[1], 2);
  EXPECT_EQ(s.times[2], 300);
  EXPECT_DOUBLE_EQ(s.values[2], 3);
}

TEST(Timeline, CatchUpSamplesEveryBoundaryAcrossEventGaps) {
  des::Engine eng;
  Timeline tl(mem_config(100));
  double level = 0;
  tl.add_probe("level", 0, [&level]() { return level; });
  // One event at 50, then a gap to 950: the t=950 event catches the
  // sampler up over boundaries 100..900 in one call, but delta encoding
  // stores only the changes.
  drive(eng, tl, {50, 950}, &level);
  tl.finish(1000);
  const obs::ProbeSeries& s = tl.probe(0);
  EXPECT_EQ(s.samples, 10u);  // 100..900 plus the finish() sample
  // Stored: first sample (level 1 at 100) and the finish sample (level 2
  // at 1000, after the t=950 event).
  ASSERT_EQ(s.times.size(), 2u);
  EXPECT_EQ(s.times[0], 100);
  EXPECT_EQ(s.times[1], 1000);
  EXPECT_DOUBLE_EQ(s.values[1], 2);
}

TEST(Timeline, TimeWeightedStatsCoverSuppressedSamples) {
  des::Engine eng;
  Timeline tl(mem_config(100));
  double level = 0;
  tl.add_probe("level", 0, [&level]() { return level; });
  drive(eng, tl, {50, 450}, &level);  // level 1 over [100, 500), 2 at 500
  tl.finish(500);
  const obs::ProbeSeries& s = tl.probe(0);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 2);
  EXPECT_EQ(s.t_max, 500);
  // Level 1 held over [100, 500): tw_mean = 400/400 = 1.
  EXPECT_DOUBLE_EQ(s.tw_mean(), 1.0);
}

TEST(Timeline, PerProbeCapCountsDrops) {
  des::Engine eng;
  TimelineConfig cfg = mem_config(100);
  cfg.max_samples_per_probe = 4;
  Timeline tl(cfg);
  double level = 0;
  tl.add_probe("level", 0, [&level]() { return level; });
  std::vector<des::Time> at;
  for (int i = 0; i < 10; ++i) at.push_back(50 + 100 * i);  // change per tick
  drive(eng, tl, at, &level);
  tl.finish(1100);
  const obs::ProbeSeries& s = tl.probe(0);
  EXPECT_EQ(s.times.size(), 4u);
  EXPECT_EQ(s.dropped, 6u);  // boundaries 100..900 + finish, 4 stored
  // Statistics still cover every sample, including dropped ones.
  EXPECT_DOUBLE_EQ(s.max, 10);
}

TEST(Timeline, SamplingDoesNotPerturbEventOrder) {
  // Identical schedules with and without an armed sampler must fire the
  // same events at the same times — the sampler never schedules events.
  const std::vector<des::Time> at = {50, 150, 155, 400, 999};
  std::vector<des::Time> plain_fires;
  {
    des::Engine eng;
    for (const des::Time t : at) {
      eng.schedule_at(t, [&eng, &plain_fires]() {
        plain_fires.push_back(eng.now());
      });
    }
    eng.run();
  }
  std::vector<des::Time> sampled_fires;
  {
    des::Engine eng;
    Timeline tl(mem_config(100));
    tl.add_probe("noop", 0, []() { return 0.0; });
    for (const des::Time t : at) {
      eng.schedule_at(t, [&eng, &sampled_fires]() {
        sampled_fires.push_back(eng.now());
      });
    }
    tl.arm(eng);
    eng.run();
    tl.finish(999);
  }
  EXPECT_EQ(plain_fires, sampled_fires);
}

TEST(Timeline, IdenticalRunsRenderIdenticalJson) {
  const auto run_once = []() {
    des::Engine eng;
    Timeline tl(mem_config(100));
    double level = 0;
    tl.add_probe("level", 1, [&level]() { return level; });
    tl.add_probe("flat", -1, []() { return 7.5; });
    tl.mark_phase("run.start", 0);
    drive(eng, tl, {50, 150, 250}, &level);
    tl.finish(300);
    return tl.json();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(test_support::json_parse_ok(a));
  EXPECT_NE(a.find("\"bench\": \"timeline\""), std::string::npos);
  EXPECT_NE(a.find("\"run.start\""), std::string::npos);
}

// Counter forwarding: every STORED sample lands in the sink as a ph:"C"
// point with the node folded into the counter name.
TEST(Timeline, ForwardsStoredSamplesToCounterSink) {
  struct CaptureSink final : des::TraceSink {
    struct Point {
      std::string track, name;
      des::Time t;
      double v;
    };
    std::vector<Point> points;
    void span(std::string_view, std::string_view, des::Time,
              des::Duration) override {}
    void instant(std::string_view, std::string_view, des::Time) override {}
    void counter(std::string_view track, std::string_view name, des::Time t,
                 double v) override {
      points.push_back({std::string(track), std::string(name), t, v});
    }
  };
  CaptureSink sink;
  des::Engine eng;
  Timeline tl(mem_config(100));
  double level = 0;
  tl.add_probe("des.qdepth", 3, [&level]() { return level; });
  tl.add_probe("net.msgs", -1, [&level]() { return 2 * level; });
  tl.set_counter_sink(&sink);
  drive(eng, tl, {50}, &level);
  tl.finish(100);
  ASSERT_EQ(sink.points.size(), 2u);
  EXPECT_EQ(sink.points[0].track, "node3.counters");
  EXPECT_EQ(sink.points[0].name, "des.qdepth.n3");
  EXPECT_EQ(sink.points[0].t, 100);
  EXPECT_DOUBLE_EQ(sink.points[0].v, 1);
  EXPECT_EQ(sink.points[1].track, "cluster.counters");
  EXPECT_EQ(sink.points[1].name, "net.msgs");
  EXPECT_DOUBLE_EQ(sink.points[1].v, 2);
}

TEST(Timeline, ReportNamesPeaksAndPhases) {
  des::Engine eng;
  Timeline tl(mem_config(100));
  double level = 0;
  tl.add_probe("des.qdepth", 0, [&level]() { return level; });
  tl.add_probe("des.qdepth", 1, [&level]() { return 3 * level; });
  tl.mark_phase("run.start", 0);
  tl.mark_phase("drain", 150);
  drive(eng, tl, {50, 150, 250}, &level);
  tl.finish(300);
  const std::string rep = tl.report();
  EXPECT_NE(rep.find("des.qdepth"), std::string::npos);
  EXPECT_NE(rep.find("run.start"), std::string::npos);
  EXPECT_NE(rep.find("drain"), std::string::npos);
}

TEST(TimelineConfig, FromEnvParsesPathAndInterval) {
  ::setenv("AMTLCE_TIMELINE", "/tmp/t.json,250", 1);
  TimelineConfig cfg = TimelineConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.path, "/tmp/t.json");
  EXPECT_EQ(cfg.interval, 250'000);  // us -> ns

  ::setenv("AMTLCE_TIMELINE", "/tmp/plain.json", 1);
  cfg = TimelineConfig::from_env();
  EXPECT_EQ(cfg.path, "/tmp/plain.json");
  EXPECT_EQ(cfg.interval, TimelineConfig::kDefaultInterval);

  // A comma inside a directory name is part of the path.
  ::setenv("AMTLCE_TIMELINE", "/tmp/a,b/t.json", 1);
  cfg = TimelineConfig::from_env();
  EXPECT_EQ(cfg.path, "/tmp/a,b/t.json");
  EXPECT_EQ(cfg.interval, TimelineConfig::kDefaultInterval);

  ::unsetenv("AMTLCE_TIMELINE");
  cfg = TimelineConfig::from_env();
  EXPECT_FALSE(cfg.enabled());
}

// A suffix after the last comma is the interval and must parse whole as
// a positive number of microseconds that fits in simulated time; it is
// never folded into the file name.
TEST(TimelineConfig, FromEnvRejectsBadIntervals) {
  for (const char* bad : {"/tmp/t.json,abc", "/tmp/t.json,-5",
                          "/tmp/t.json,0", "/tmp/t.json,1e300"}) {
    SCOPED_TRACE(bad);
    ::setenv("AMTLCE_TIMELINE", bad, 1);
    try {
      (void)TimelineConfig::from_env();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("AMTLCE_TIMELINE"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("AMTLCE_TIMELINE");
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder fr;
  fr.begin_run(2);
  const std::size_t cap = FlightRecorder::kRingCapacity;
  const std::size_t n = cap + 10;
  for (std::size_t i = 0; i < n; ++i) {
    fr.record(1, FlightKind::MsgSend, static_cast<des::Time>(i), 0, i, 8);
  }
  EXPECT_EQ(fr.total_records(1), n);
  EXPECT_EQ(fr.total_records(0), 0u);
  const auto snap = fr.snapshot(1);
  ASSERT_EQ(snap.size(), cap);
  // Oldest surviving record is i = n - cap; newest is n - 1.
  EXPECT_EQ(snap.front().a, n - cap);
  EXPECT_EQ(snap.back().a, n - 1);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].t, snap[i].t);
  }
}

TEST(FlightRecorder, ClusterRingCatchesNegativeAndOutOfRangeNodes) {
  FlightRecorder fr;
  fr.begin_run(2);
  fr.record(-1, FlightKind::RunStatus, 10, 0, 3);
  fr.record(99, FlightKind::Invariant, 20, 7);
  EXPECT_EQ(fr.total_records(-1), 2u);
  const auto snap = fr.snapshot(-1);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, static_cast<std::uint16_t>(FlightKind::RunStatus));
  EXPECT_EQ(snap[1].code, 7u);
}

TEST(FlightRecorder, BeginRunResetsRings) {
  FlightRecorder fr;
  fr.begin_run(2);
  fr.record(0, FlightKind::Crash, 5);
  fr.begin_run(3);
  EXPECT_EQ(fr.num_nodes(), 3);
  EXPECT_EQ(fr.total_records(0), 0u);
  EXPECT_TRUE(fr.snapshot(0).empty());
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder fr;
  fr.begin_run(1);
  fr.set_enabled(false);
  fr.record(0, FlightKind::Crash, 5);
  EXPECT_EQ(fr.total_records(0), 0u);
  fr.set_enabled(true);
  fr.record(0, FlightKind::Crash, 6);
  EXPECT_EQ(fr.total_records(0), 1u);
}

TEST(FlightRecorder, BundleJsonIsParseableAndCarriesContext) {
  FlightRecorder fr;
  fr.begin_run(2);
  fr.record(0, FlightKind::Crash, 100);
  fr.record(1, FlightKind::FdState, 200, 0, 0, 2);
  fr.record(-1, FlightKind::RunStatus, 300, 0, 4);
  const std::string bundle = fr.bundle_json(
      "ErrNoSurvivors", "{ \"nodes\": 2 }", "[ { \"node\": 0 } ]", "null");
  EXPECT_TRUE(test_support::json_parse_ok(bundle));
  EXPECT_NE(bundle.find("\"ErrNoSurvivors\""), std::string::npos);
  EXPECT_NE(bundle.find("\"crash\""), std::string::npos);      // kind names
  EXPECT_NE(bundle.find("\"fd_state\""), std::string::npos);
  EXPECT_NE(bundle.find("\"nodes\": 2"), std::string::npos);   // config
  EXPECT_NE(bundle.find("\"node\": 0"), std::string::npos);    // schedule
}

}  // namespace
