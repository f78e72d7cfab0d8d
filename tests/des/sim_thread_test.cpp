#include "des/sim_thread.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "des/ring.hpp"

namespace {

using des::Engine;
using des::SimThread;

TEST(SimThread, ItemsExecuteSeriallyWithCosts) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<des::Time> done;
  th.post_work(100, [&] { done.push_back(eng.now()); });
  th.post_work(50, [&] { done.push_back(eng.now()); });
  th.post_work(25, [&] { done.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(done, (std::vector<des::Time>{100, 150, 175}));
  EXPECT_EQ(th.busy_time(), 175);
}

TEST(SimThread, ZeroCostPostRunsInOrder) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<int> order;
  th.post([&] { order.push_back(1); });
  th.post([&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimThread, ChargeExtendsOccupancy) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<des::Time> done;
  th.post_work(10, [&] {
    th.charge(90);  // discovered work: costs 90 more
    done.push_back(eng.now());
  });
  th.post_work(10, [&] { done.push_back(eng.now()); });
  eng.run();
  // First item fires at 10 (its nominal cost); the charge delays the second
  // item's start to 100, so it completes at 110.
  EXPECT_EQ(done, (std::vector<des::Time>{10, 110}));
  EXPECT_EQ(th.busy_time(), 110);
}

TEST(SimThread, PostFromWithinItemQueuesAfter) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<des::Time> done;
  th.post_work(10, [&] {
    done.push_back(eng.now());
    th.post_work(5, [&] { done.push_back(eng.now()); });
  });
  eng.run();
  EXPECT_EQ(done, (std::vector<des::Time>{10, 15}));
}

TEST(SimThread, IdleGapDoesNotCountAsBusy) {
  Engine eng;
  SimThread th(eng, "t");
  th.post_work(10, [] {});
  eng.run();
  eng.schedule_at(1000, [&] { th.post_work(10, [] {}); });
  eng.run();
  EXPECT_EQ(eng.now(), 1010);
  EXPECT_EQ(th.busy_time(), 20);
  EXPECT_NEAR(th.utilization(), 20.0 / 1010.0, 1e-12);
}

TEST(SimThread, LatePostStartsAtPostTimeNotThreadCreation) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<des::Time> done;
  eng.schedule_at(500, [&] { th.post_work(7, [&] { done.push_back(eng.now()); }); });
  eng.run();
  EXPECT_EQ(done, (std::vector<des::Time>{507}));
}

TEST(SimThread, BusyReflectsQueueState) {
  Engine eng;
  SimThread th(eng, "t");
  EXPECT_FALSE(th.busy());
  th.post_work(10, [] {});
  EXPECT_TRUE(th.busy());
  eng.run();
  EXPECT_FALSE(th.busy());
}

TEST(SimThread, TwoThreadsRunConcurrentlyInSimTime) {
  Engine eng;
  SimThread a(eng, "a");
  SimThread b(eng, "b");
  std::vector<des::Time> done;
  a.post_work(100, [&] { done.push_back(eng.now()); });
  b.post_work(100, [&] { done.push_back(eng.now()); });
  eng.run();
  // Independent threads overlap: both finish at t=100.
  EXPECT_EQ(done, (std::vector<des::Time>{100, 100}));
}

// Items queued behind a busy thread run in FIFO order while the queue
// wraps around its ring and grows: interleave bursts of posts (from inside
// running items, so they queue) with drains of varying depth.
TEST(SimThread, QueueKeepsFifoOrderAcrossWrapAroundAndGrowth) {
  Engine eng;
  SimThread th(eng, "t");
  std::vector<int> ran;
  int next = 0;
  // Burst sizes chosen to wrap a 2-slot ring, then force growth to 4, 8
  // and 16 with the head in the middle of the buffer.
  const std::vector<int> bursts = {1, 2, 1, 3, 2, 5, 1, 9, 4, 13, 2, 16, 1};
  std::size_t b = 0;
  std::function<void()> post_burst = [&] {
    if (b == bursts.size()) return;
    const int n = bursts[b++];
    for (int k = 0; k < n; ++k) {
      const int id = next++;
      th.post_work(1, [&, id, last = k == n - 1] {
        ran.push_back(id);
        if (last) post_burst();
      });
    }
  };
  th.post([&] { post_burst(); });
  eng.run();
  std::vector<int> want(static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(ran, want);
  EXPECT_EQ(th.queued_items(), 0u);
}

TEST(Ring, TakeAndEraseIfKeepOrderAcrossWrapAround) {
  des::Ring<int> r;
  for (int i = 0; i < 3; ++i) r.push_back(i);  // grows 2 -> 4
  EXPECT_EQ(r.pop_front(), 0);
  EXPECT_EQ(r.pop_front(), 1);
  for (int i = 3; i < 6; ++i) r.push_back(i);  // wraps: 2 3 4 5
  EXPECT_EQ(r.capacity(), 4u);
  EXPECT_EQ(r.take(2), 4);  // 2 3 5
  r.push_back(6);           // 2 3 5 6
  r.erase_if([](int v) { return v % 2 == 1; });  // 2 6
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 2);
  EXPECT_EQ(r[1], 6);
  for (int i = 7; i < 12; ++i) r.push_back(i);  // grows 4 -> 8
  std::vector<int> out;
  while (!r.empty()) out.push_back(r.pop_front());
  EXPECT_EQ(out, (std::vector<int>{2, 6, 7, 8, 9, 10, 11}));
}

}  // namespace
