// The poll loop of des::PollThread.
#include <gtest/gtest.h>

#include <optional>

#include "des/engine.hpp"
#include "des/sim_thread.hpp"

namespace {

using des::Engine;
using des::PollThread;

TEST(PollLoop, RunsWhileBodyReportsWork) {
  Engine eng;
  int remaining = 5;
  int iterations = 0;
  PollThread th(eng, "t", 10, [&]() {
    ++iterations;
    return --remaining > 0;
  });
  th.wake();
  eng.run();
  EXPECT_EQ(iterations, 5);
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(eng.now(), 50);
}

TEST(PollLoop, ParksWhenIdleAndResumesOnWake) {
  Engine eng;
  int iterations = 0;
  PollThread th(eng, "t", 10, [&]() {
    ++iterations;
    return false;  // always idle
  });
  th.wake();
  th.wake();  // a pending iteration absorbs the wake
  eng.run();
  EXPECT_EQ(iterations, 1);
  // A parked thread generates no events: the engine stays drained.
  EXPECT_EQ(eng.pending_events(), 0u);
  th.wake();
  eng.run();
  EXPECT_EQ(iterations, 2);
  EXPECT_EQ(eng.now(), 20);
}

TEST(PollLoop, WakeDuringBodyTriggersAnotherIteration) {
  Engine eng;
  int iterations = 0;
  PollThread* self = nullptr;
  PollThread th(eng, "t", 10, [&]() {
    ++iterations;
    if (iterations == 1) {
      des::charge_current(5);
      self->wake();  // new work arrived mid-poll
    }
    return false;
  });
  self = &th;
  th.wake();
  eng.run();
  EXPECT_EQ(iterations, 2);
  // The second iteration starts once the first one's charge has elapsed.
  EXPECT_EQ(eng.now(), 25);
}

TEST(PollLoop, IterationCostOccupiesThread) {
  Engine eng;
  int iterations = 0;
  PollThread th(eng, "t", 100, [&]() { return ++iterations < 4; });
  th.wake();
  eng.run();
  EXPECT_EQ(th.busy_time(), 400);
}

// A thread destroyed while its next iteration is pending cancels it:
// running the engine afterwards fires nothing that touches the thread.
TEST(PollLoop, DestroyedThreadNeverIteratesAgain) {
  Engine eng;
  int iterations = 0;
  std::optional<PollThread> th;
  th.emplace(eng, "t", 10, [&]() {
    ++iterations;
    return true;  // would run forever
  });
  th->wake();
  for (int i = 0; i < 20 && eng.step(); ++i) {
  }
  EXPECT_EQ(iterations, 20);
  EXPECT_EQ(eng.pending_events(), 1u);
  th.reset();
  eng.run();
  EXPECT_EQ(iterations, 20);
  EXPECT_EQ(eng.pending_events(), 0u);
}

}  // namespace
