#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "des/engine.hpp"
#include "json_check.hpp"

namespace {

using test_support::json_parse_ok;
using obs::TraceConfig;
using obs::Tracer;

TEST(JsonParseOk, AcceptsWellFormedValues) {
  EXPECT_TRUE(json_parse_ok("{}"));
  EXPECT_TRUE(json_parse_ok("[]"));
  EXPECT_TRUE(json_parse_ok("  [1, 2.5, -3e-4, true, false, null]  "));
  EXPECT_TRUE(json_parse_ok(R"({"a":{"b":[{"c":"d\"e\\f"}]},"n":0.125})"));
  EXPECT_TRUE(json_parse_ok("\"just a string\""));
  EXPECT_TRUE(json_parse_ok("42"));
}

TEST(JsonParseOk, RejectsMalformedValues) {
  EXPECT_FALSE(json_parse_ok(""));
  EXPECT_FALSE(json_parse_ok("{"));
  EXPECT_FALSE(json_parse_ok("}"));
  EXPECT_FALSE(json_parse_ok(R"({"a":})"));
  EXPECT_FALSE(json_parse_ok(R"({"a":1,})"));
  EXPECT_FALSE(json_parse_ok("[1,]"));
  EXPECT_FALSE(json_parse_ok("[1 2]"));
  EXPECT_FALSE(json_parse_ok(R"("unterminated)"));
  EXPECT_FALSE(json_parse_ok("01x"));
  EXPECT_FALSE(json_parse_ok("{} trailing"));
  EXPECT_FALSE(json_parse_ok("1."));
  EXPECT_FALSE(json_parse_ok("-"));
}

TEST(JsonParseOk, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(json_parse_ok(deep));
}

TEST(Tracer, EmitsWellFormedJson) {
  Tracer t(TraceConfig{});  // disabled: no file, but events still collect
  t.span("comm-0", "task T1(0,0,0)", 1000, 2500);
  t.span("nic0.egress", "msg 2.0KiB", 1500, 800);
  t.instant("comm-0", "wake \"now\"\n", 4200);
  EXPECT_EQ(t.num_events(), 3u);
  const std::string j = t.json();
  EXPECT_TRUE(json_parse_ok(j)) << j;
  // Track metadata + the span/instant bodies.
  EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(j.find("nic0.egress"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  // ns -> us conversion: 1000 ns span at ts 1.000, dur 2.500.
  EXPECT_NE(j.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":2.500"), std::string::npos);
}

TEST(Tracer, EmptyTraceIsStillValid) {
  Tracer t(TraceConfig{});
  EXPECT_TRUE(json_parse_ok(t.json()));
}

TEST(Tracer, SameTrackReusesTid) {
  Tracer t(TraceConfig{});
  t.span("comm-0", "a", 0, 1);
  t.span("comm-0", "b", 1, 1);
  t.span("comm-1", "c", 2, 1);
  const std::string j = t.json();
  // Exactly two thread_name metadata records.
  std::size_t n = 0;
  for (std::size_t pos = j.find("thread_name"); pos != std::string::npos;
       pos = j.find("thread_name", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(Tracer, WriteProducesParsableFile) {
  const std::string path = "tracer_write_test.json";
  {
    Tracer t(TraceConfig{path});
    t.span("comm-0", "task", 10, 20);
  }  // destructor writes
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(json_parse_ok(ss.str()));
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, FlowEventsRenderAsChromeFlowPairs) {
  Tracer t(TraceConfig{});
  t.span("comm-0", "send", 1000, 500);
  t.flow("comm-0", "activate", 1200, 0xABCDu, /*begin=*/true);
  t.span("comm-1", "recv", 5000, 700);
  t.flow("comm-1", "activate", 5100, 0xABCDu, /*begin=*/false);
  const std::string j = t.json();
  EXPECT_TRUE(json_parse_ok(j)) << j;
  EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos);
  // The finish end binds to the enclosing slice (bp:"e"), and both ends
  // carry the matching id in the "flow" category.
  EXPECT_NE(j.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(j.find("\"id\":43981"), std::string::npos);  // 0xABCD
}

TEST(Tracer, BoundedBufferCountsDroppedEvents) {
  TraceConfig cfg;
  cfg.max_events = 3;
  Tracer t(cfg);
  t.span("a", "s1", 0, 1);
  t.instant("a", "i1", 2);
  t.flow("a", "f1", 3, 7, true);
  EXPECT_EQ(t.num_events(), 3u);
  EXPECT_EQ(t.dropped_events(), 0u);
  t.span("a", "s2", 4, 1);  // over the cap
  t.flow("a", "f1", 5, 7, false);
  EXPECT_EQ(t.num_events(), 3u);
  EXPECT_EQ(t.dropped_events(), 2u);
  const std::string j = t.json();
  EXPECT_TRUE(json_parse_ok(j)) << j;
  EXPECT_NE(j.find("\"droppedEvents\":2"), std::string::npos);
  EXPECT_NE(j.find("\"maxEvents\":3"), std::string::npos);
}

// JSON has no NaN or infinity: a non-finite counter sample renders as null.
TEST(Tracer, NonFiniteCounterStaysValidJson) {
  Tracer t(TraceConfig{});
  t.counter("cluster.counters", "nan", 10, std::nan(""));
  t.counter("cluster.counters", "inf", 20, HUGE_VAL);
  t.counter("cluster.counters", "half", 30, 0.5);
  const std::string j = t.json();
  EXPECT_TRUE(json_parse_ok(j)) << j;
  EXPECT_NE(j.find("\"name\":\"nan\",\"args\":{\"value\":null}"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"name\":\"inf\",\"args\":{\"value\":null}"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"args\":{\"value\":0.5}"), std::string::npos) << j;
}

TEST(Tracer, DefaultCapReportsZeroDrops) {
  Tracer t(TraceConfig{});
  t.span("a", "s", 0, 1);
  EXPECT_EQ(t.dropped_events(), 0u);
  EXPECT_NE(t.json().find("\"droppedEvents\":0"), std::string::npos);
}

TEST(TraceConfig, DisabledWithoutEnv) {
  ::unsetenv("AMTLCE_TRACE");
  EXPECT_FALSE(TraceConfig::from_env().enabled());
  des::Engine eng;
  EXPECT_EQ(Tracer::attach_from_env(eng), nullptr);
  EXPECT_EQ(eng.trace_sink(), nullptr);
}

TEST(TraceConfig, AttachFromEnvInstallsSink) {
  ::setenv("AMTLCE_TRACE", "attach_test.json", 1);
  {
    des::Engine eng;
    const auto tracer = Tracer::attach_from_env(eng);
    ASSERT_NE(tracer, nullptr);
    EXPECT_EQ(eng.trace_sink(), tracer.get());
  }  // destructor writes the (empty) trace
  ::unsetenv("AMTLCE_TRACE");
  // Repeated attaches in one process suffix .1, .2, ...; this binary only
  // attaches once, but clean up defensively.
  std::remove("attach_test.json");
  std::remove("attach_test.json.1");
}

}  // namespace
