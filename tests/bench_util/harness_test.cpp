#include "bench_util/harness.hpp"
#include "bench_util/pingpong_graph.hpp"

#include <gtest/gtest.h>

#include "json_check.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

// -- netpipe_gbit edge cases (the zero-message / single-message fixes) ----

TEST(Netpipe, ZeroMessagesReturnsZeroNotNan) {
  // total < fragment => zero messages; the old code divided 0 bytes by a
  // 0-second window (inf/NaN).
  const double g = bench::netpipe_gbit(1 << 20, 0);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_DOUBLE_EQ(g, 0.0);
  const double g2 = bench::netpipe_gbit(1 << 20, 1 << 10);
  EXPECT_DOUBLE_EQ(g2, 0.0);
}

TEST(Netpipe, SingleMessageFallsBackToInjectionLatency) {
  // Exactly one message: no arrival-to-arrival window; the documented
  // fallback divides by injection-to-arrival time, so the result is a
  // finite, positive rate (below the steady-state link rate).
  const double g = bench::netpipe_gbit(64 << 10, 64 << 10);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_GT(g, 0.0);
  EXPECT_LT(g, 200.0);  // HDR-100-class fabric: sanity ceiling
}

TEST(Netpipe, SteadyStateRateIsFiniteAndPositive) {
  const double g = bench::netpipe_gbit(256 << 10, 8 << 20);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_GT(g, 0.0);
}

// -- run_pingpong volume convention (the iterations-1 fix) ----------------

TEST(PingPong, OneIterationReportsZeroNotUnderflow) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 64 << 10;
  opts.total_bytes = 256 << 10;
  opts.iterations = 1;
  const auto r = bench::run_pingpong(ce::BackendKind::Lci, opts);
  // One iteration never crosses the wire; the old size_t expression
  // underflowed (iterations - 1) to ~2^64 and reported absurd bandwidth.
  EXPECT_TRUE(std::isfinite(r.gbit_per_s));
  EXPECT_DOUBLE_EQ(r.gbit_per_s, 0.0);
  EXPECT_GT(r.tts_s, 0.0);
}

TEST(PingPong, BandwidthCannotBeatTheWire) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 256 << 10;
  opts.total_bytes = 8ull << 20;
  opts.iterations = 4;
  const auto r = bench::run_pingpong(ce::BackendKind::Lci, opts);
  EXPECT_GT(r.gbit_per_s, 0.0);
  EXPECT_LT(r.gbit_per_s, 100.5);  // HDR-100 physical limit
}

TEST(PingPong, LatencyHistogramIsPopulated) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 64 << 10;
  opts.total_bytes = 256 << 10;
  opts.iterations = 2;
  const auto r = bench::run_pingpong(ce::BackendKind::Mpi, opts);
  EXPECT_GT(r.latency.count(), 0u);
  EXPECT_GT(r.latency.e2e_p50_ns(), 0.0);
  EXPECT_GE(r.latency.e2e_p99_ns(), r.latency.e2e_p50_ns());
  EXPECT_GE(r.latency.e2e_max_ns(), r.latency.e2e_p99_ns());
}

TEST(PingPong, SeriesMergesLatencyAcrossReps) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 64 << 10;
  opts.total_bytes = 256 << 10;
  opts.iterations = 2;
  bench::Reps reps;
  reps.total = 2;
  reps.warmup = 1;
  const auto once = bench::run_pingpong(ce::BackendKind::Lci, opts);
  const auto series =
      bench::run_pingpong_series(reps, ce::BackendKind::Lci, opts);
  // warmup=1 of total=2: scalars come from one measured run, latency too.
  EXPECT_NEAR(series.gbit_per_s, once.gbit_per_s, 1e-9);
  EXPECT_EQ(series.latency.count(), once.latency.count());
}

// -- Reps env clamping ----------------------------------------------------

struct EnvGuard {
  ~EnvGuard() {
    ::unsetenv("AMTLCE_REPS");
    ::unsetenv("AMTLCE_WARMUP");
  }
};

TEST(Reps, NegativeWarmupClampsToZero) {
  EnvGuard guard;
  ::setenv("AMTLCE_REPS", "3", 1);
  ::setenv("AMTLCE_WARMUP", "-5", 1);
  const auto r = bench::Reps::from_env();
  EXPECT_EQ(r.total, 3);
  EXPECT_EQ(r.warmup, 0);
}

TEST(Reps, WarmupClampedBelowTotal) {
  EnvGuard guard;
  ::setenv("AMTLCE_REPS", "2", 1);
  ::setenv("AMTLCE_WARMUP", "99", 1);
  const auto r = bench::Reps::from_env();
  EXPECT_EQ(r.total, 2);
  EXPECT_LT(r.warmup, r.total);
  EXPECT_GE(r.warmup, 0);
}

TEST(Reps, NonPositiveTotalClampsToOne) {
  EnvGuard guard;
  ::setenv("AMTLCE_REPS", "0", 1);
  const auto r = bench::Reps::from_env();
  EXPECT_GE(r.total, 1);
  EXPECT_GE(r.warmup, 0);
  EXPECT_LT(r.warmup, r.total);
}

// Expects `read` to throw std::invalid_argument whose message names `var`
// once `var` is set to `value`; unsets `var` afterwards.
template <typename Read>
void expect_rejected(const char* var, const char* value, Read read) {
  SCOPED_TRACE(::testing::Message() << var << "=" << value);
  ::setenv(var, value, 1);
  try {
    read();
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
        << e.what();
  }
  ::unsetenv(var);
}

TEST(Reps, RejectsValuesThatAreNotWholeIntegers) {
  EnvGuard guard;
  const auto read = [] { (void)bench::Reps::from_env(); };
  for (const char* bad : {"3x", "abc", "1.5", "99999999999"}) {
    expect_rejected("AMTLCE_REPS", bad, read);
    expect_rejected("AMTLCE_WARMUP", bad, read);
  }
}

// -- AMTLCE_FAULT_* / AMTLCE_RELIABLE env overlays ------------------------

struct FaultEnvGuard {
  ~FaultEnvGuard() {
    for (const char* name :
         {"AMTLCE_FAULT_SEED", "AMTLCE_FAULT_DROP", "AMTLCE_FAULT_DUP",
          "AMTLCE_FAULT_CORRUPT", "AMTLCE_FAULT_SPIKE_PROB",
          "AMTLCE_FAULT_SPIKE_US", "AMTLCE_FAULT_JITTER_US",
          "AMTLCE_FAULT_BROWNOUT", "AMTLCE_FAULT_STALL", "AMTLCE_RELIABLE"}) {
      ::unsetenv(name);
    }
  }
};

TEST(FaultEnv, NoVariablesMeansNoOverrides) {
  FaultEnvGuard guard;
  net::FabricConfig cfg;
  EXPECT_FALSE(bench::apply_fault_env(cfg));
  EXPECT_FALSE(cfg.faults.any());
  EXPECT_FALSE(bench::reliable_from_env());
}

TEST(FaultEnv, ParsesScalarKnobsAndWindows) {
  FaultEnvGuard guard;
  ::setenv("AMTLCE_FAULT_SEED", "0xBEEF", 1);
  ::setenv("AMTLCE_FAULT_DROP", "0.01", 1);
  ::setenv("AMTLCE_FAULT_DUP", "0.02", 1);
  ::setenv("AMTLCE_FAULT_CORRUPT", "0.03", 1);
  ::setenv("AMTLCE_FAULT_SPIKE_PROB", "0.1", 1);
  ::setenv("AMTLCE_FAULT_SPIKE_US", "50", 1);
  ::setenv("AMTLCE_FAULT_JITTER_US", "2.5", 1);
  ::setenv("AMTLCE_FAULT_BROWNOUT", "3:10:1.5", 1);
  ::setenv("AMTLCE_FAULT_STALL", "1:20:0.5", 1);
  net::FabricConfig cfg;
  EXPECT_TRUE(bench::apply_fault_env(cfg));
  const net::FaultConfig& f = cfg.faults;
  EXPECT_EQ(f.seed, 0xBEEFu);
  EXPECT_DOUBLE_EQ(f.drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(f.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(f.corrupt_prob, 0.03);
  EXPECT_DOUBLE_EQ(f.spike_prob, 0.1);
  EXPECT_EQ(f.spike_max, 50 * des::kMicrosecond);
  EXPECT_EQ(f.jitter_max, des::Duration{2500});
  EXPECT_EQ(f.brownout_node, 3);
  EXPECT_EQ(f.brownout_start, 10 * des::kMillisecond);
  EXPECT_EQ(f.brownout_duration,
            static_cast<des::Duration>(1.5 * des::kMillisecond));
  EXPECT_EQ(f.stall_node, 1);
  EXPECT_EQ(f.stall_start, 20 * des::kMillisecond);
  EXPECT_TRUE(f.any());
}

TEST(FaultEnv, RejectsOutOfRangeAndMalformedValues) {
  FaultEnvGuard guard;
  ::setenv("AMTLCE_FAULT_DROP", "1.5", 1);  // probability > 1
  net::FabricConfig cfg;
  EXPECT_THROW(bench::apply_fault_env(cfg), std::invalid_argument);
  ::unsetenv("AMTLCE_FAULT_DROP");
  // Scalars and windows must parse whole: no trailing junk, no words, no
  // overflow.
  const auto apply = [] {
    net::FabricConfig c;
    (void)bench::apply_fault_env(c);
  };
  for (const char* var :
       {"AMTLCE_FAULT_DROP", "AMTLCE_FAULT_DUP", "AMTLCE_FAULT_CORRUPT",
        "AMTLCE_FAULT_SPIKE_PROB", "AMTLCE_FAULT_SPIKE_US",
        "AMTLCE_FAULT_JITTER_US"}) {
    for (const char* bad : {"off", "0.01x", "nan", "1e999"}) {
      expect_rejected(var, bad, apply);
    }
  }
  for (const char* bad :
       {"off", "12abc", "-1", "0x", "99999999999999999999999"}) {
    expect_rejected("AMTLCE_FAULT_SEED", bad, apply);
  }
  for (const char* var : {"AMTLCE_FAULT_BROWNOUT", "AMTLCE_FAULT_STALL"}) {
    for (const char* bad : {"not-a-window", "3:1:2ms", "3:1", "3x:1:2",
                            "3:1:2:4", "3:1:nan", "99999999999:1:2"}) {
      expect_rejected(var, bad, apply);
    }
  }
  // Times must fit in des::Time once scaled to nanoseconds (a plain cast
  // of these products is undefined behaviour), and so must a window's end.
  for (const char* var : {"AMTLCE_FAULT_SPIKE_US", "AMTLCE_FAULT_JITTER_US"}) {
    for (const char* bad : {"1e300", "-1e300"}) {
      expect_rejected(var, bad, apply);
    }
  }
  for (const char* var : {"AMTLCE_FAULT_BROWNOUT", "AMTLCE_FAULT_STALL"}) {
    for (const char* bad : {"3:1e300:1", "3:-1e300:1", "3:1:1e300",
                            "3:1:-1e300", "3:9e12:9e12"}) {
      expect_rejected(var, bad, apply);
    }
  }
}

TEST(FaultEnv, ReliableSwitchUnderstandsOffSpellings) {
  FaultEnvGuard guard;
  for (const char* off : {"0", "off", "false"}) {
    ::setenv("AMTLCE_RELIABLE", off, 1);
    EXPECT_FALSE(bench::reliable_from_env()) << off;
  }
  ::setenv("AMTLCE_RELIABLE", "1", 1);
  EXPECT_TRUE(bench::reliable_from_env());
}

TEST(FaultEnv, PingPongUnderEnvChaosStillMovesData) {
  FaultEnvGuard guard;
  ::setenv("AMTLCE_FAULT_DROP", "0.01", 1);
  ::setenv("AMTLCE_FAULT_CORRUPT", "0.01", 1);
  ::setenv("AMTLCE_RELIABLE", "1", 1);
  bench::PingPongOptions opts;
  opts.fragment_bytes = 64 << 10;
  opts.total_bytes = 1 << 20;
  opts.iterations = 3;
  const auto r = bench::run_pingpong(ce::BackendKind::Lci, opts);
  EXPECT_GT(r.gbit_per_s, 0.0);
  EXPECT_TRUE(std::isfinite(r.gbit_per_s));
}

// -- Table CSV writer (padding + escaping fixes) --------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TableCsv, PadsShortRowsAndEscapesCells) {
  const std::string prefix = "harness_csv_test_";
  ::setenv("AMTLCE_CSV", prefix.c_str(), 1);
  {
    bench::Table t("csvcheck", {"a", "b", "c"});
    t.add_row({"1", "2", "3"});
    t.add_row({"only"});                            // short: pad to 3 fields
    t.add_row({"x,y", "say \"hi\"", "plain"});      // needs quoting
  }  // destructor writes the CSV
  ::unsetenv("AMTLCE_CSV");

  const std::string path = prefix + "csvcheck.csv";
  const auto lines = read_lines(path);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a,b,c");
  EXPECT_EQ(lines[1], "1,2,3");
  // The ragged row is padded with empty cells up to the header width, so
  // every data line has the same field count.
  EXPECT_EQ(lines[2], "only,,");
  // RFC-4180: comma'd cells quoted, embedded quotes doubled.
  EXPECT_EQ(lines[3], "\"x,y\",\"say \"\"hi\"\"\",plain");
}

TEST(TableCsv, NoFileWithoutEnv) {
  ::unsetenv("AMTLCE_CSV");
  { bench::Table t("nocsv", {"a"}); }
  std::ifstream in("nocsv.csv");
  EXPECT_FALSE(in.good());
}

// -- AMTLCE_METRICS export + stage/critical-path plumbing -----------------

TEST(Metrics, ExportDisabledWithoutEnv) {
  ::unsetenv("AMTLCE_METRICS");
  EXPECT_FALSE(bench::export_metrics_env());
}

TEST(Metrics, ExportWritesParsableJsonOfAccumulator) {
  bench::metrics_accumulator().histogram("test.export_ns").add(123.0);
  const std::string path = "metrics_export_test.json";
  ::setenv("AMTLCE_METRICS", path.c_str(), 1);
  EXPECT_TRUE(bench::export_metrics_env());
  ::unsetenv("AMTLCE_METRICS");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(test_support::json_parse_ok(ss.str())) << ss.str();
  EXPECT_NE(ss.str().find("\"test.export_ns\""), std::string::npos);
}

TEST(PingPong, PopulatesStagesCriticalPathAndAccumulator) {
  bench::PingPongOptions opts;
  opts.fragment_bytes = 64 << 10;
  opts.total_bytes = 256 << 10;
  opts.iterations = 2;
  const auto r = bench::run_pingpong(ce::BackendKind::Lci, opts);
  // The telescoping stage decomposition covers every recorded arrival.
  ASSERT_GT(r.latency.count(), 0u);
  for (int s = 0; s < amt::kE2eStages; ++s) {
    EXPECT_EQ(r.stages.h[static_cast<std::size_t>(s)].count(),
              r.latency.count())
        << amt::kStageNames[static_cast<std::size_t>(s)];
  }
  const double e2e = r.latency.e2e_mean_ns();
  EXPECT_NEAR(r.stages.e2e_stage_mean_sum_ns(), e2e, 1e-6 * e2e);
  // Critical path: consistent sums and a printable line.
  ASSERT_TRUE(r.crit.seen);
  EXPECT_EQ(r.crit.sums.total(), r.crit.finish_g);
  const std::string line = bench::critical_path_line(r.crit);
  EXPECT_NE(line.find("critical path:"), std::string::npos);
  EXPECT_NE(line.find("compute"), std::string::npos);
  // Every run folds its metrics into the process accumulator, including
  // the amt.lat.* stage histograms.
  const auto* h =
      bench::metrics_accumulator().find_histogram("amt.lat.stage.queue_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
}

TEST(CriticalPathLine, UnseenPathPrintsPlaceholder) {
  const amt::CriticalPath cp;
  EXPECT_EQ(bench::critical_path_line(cp),
            "critical path: (no tasks observed)");
}

// task_id() must map the graph's tasks one-to-one onto
// [0, total_tasks()), with and without the Sync task.  The tasks come
// from walking the graph from its sources, not from the id formula.
TEST(PingPongGraphShape, TaskIdIsABijectionOntoTotalTasks) {
  struct Shape {
    int iterations, window, streams, nodes;
  };
  for (const bool sync : {true, false}) {
    for (const Shape sh : {Shape{1, 1, 1, 2}, Shape{2, 3, 1, 2},
                           Shape{4, 4, 3, 3}, Shape{5, 8, 2, 4}}) {
      bench::PingPongOptions o;
      o.fragment_bytes = 1024;
      o.total_bytes = static_cast<std::size_t>(sh.window) * o.fragment_bytes;
      o.iterations = sh.iterations;
      o.streams = sh.streams;
      o.nodes = sh.nodes;
      o.sync = sync;
      const bench::PingPongGraph g(o);
      SCOPED_TRACE(::testing::Message()
                   << "sync=" << sync << " iterations=" << sh.iterations
                   << " window=" << sh.window << " streams=" << sh.streams);
      const std::uint64_t total = g.total_tasks();
      std::vector<amt::TaskKey> owner_of(total, amt::TaskKey{-1});
      std::vector<amt::TaskKey> stack;
      std::uint64_t seen = 0;
      const auto visit = [&](const amt::TaskKey& t) {
        const std::uint64_t id = g.task_id(t);
        ASSERT_LT(id, total) << "cls=" << t.cls;
        amt::TaskKey& slot = owner_of[id];
        if (slot.cls == -1) {
          slot = t;
          ++seen;
          stack.push_back(t);
        } else {
          ASSERT_EQ(slot, t) << "id " << id << " is shared";
        }
      };
      std::vector<amt::TaskKey> sources;
      for (int r = 0; r < sh.nodes; ++r) g.initial_tasks(r, sources);
      for (const amt::TaskKey& t : sources) visit(t);
      std::vector<amt::Dep> deps;
      while (!stack.empty()) {
        const amt::TaskKey t = stack.back();
        stack.pop_back();
        for (int f = 0; f < g.num_outputs(t); ++f) {
          deps.clear();
          g.successors(t, f, deps);
          for (const amt::Dep& d : deps) visit(d.task);
        }
      }
      EXPECT_EQ(seen, total);
    }
  }
}

}  // namespace
