// Rotating same-instant bursts through the calendar wheel.
//
// Every node's failure detector ticks at the same instant, so a
// fault-tolerant run schedules a burst of heartbeats for one instant
// every 5 ms.  5 ms is not a multiple of the 262,144 ns wheel window, so
// successive bursts land 19,264 ns further round the wheel each time and
// pass through every bucket.  The queue must pop them in the oracle's
// (time, seq) order, keep its bucket storage sized by the live load
// rather than by every bucket's largest burst, and, once warm, cycle
// without allocating.
//
// Its own binary because it replaces the global operator new with a
// counting one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>

#include "des/event_queue.hpp"
#include "oracle/heap_slab_queue.hpp"

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr int kBurst = 1000;
constexpr des::Time kStep = 19'264;  // 5 ms modulo the wheel window
constexpr int kPending = 2;          // bursts scheduled ahead of the cursor
constexpr std::size_t kPeakLive = kPending * kBurst;

TEST(EventQueueBurst, RotatingBurstsReuseBucketStorage) {
  des::EventQueue q;
  des::HeapSlabQueue oracle;
  int fired_q = -1;
  int fired_o = -1;
  const auto schedule_burst = [&](int k) {
    const des::Time t = kStep * (k + 1);
    for (int i = 0; i < kBurst; ++i) {
      const int tag = k * kBurst + i;
      q.schedule(t, [&fired_q, tag]() { fired_q = tag; });
      oracle.schedule(t, [&fired_o, tag]() { fired_o = tag; });
    }
  };
  // One burst fully popped, the next burst scheduled: the queue holds
  // kPending bursts at each cycle's start.
  const auto cycle = [&](int k) {
    for (int i = 0; i < kBurst; ++i) {
      auto a = q.pop();
      auto b = oracle.pop();
      a.fn();
      b.fn();
      ASSERT_EQ(a.time, b.time) << "burst " << k << " event " << i;
      ASSERT_EQ(fired_q, fired_o) << "burst " << k << " event " << i;
    }
    schedule_burst(k + kPending);
  };

  for (int k = 0; k < kPending; ++k) schedule_burst(k);
  // Warm-up: more than enough laps for the bursts to reach every bucket.
  constexpr int kWarm = 1024;
  constexpr int kMeasured = 1024;
  std::set<std::uint32_t> buckets;
  for (int k = 0; k < kWarm; ++k) {
    buckets.insert(static_cast<std::uint32_t>((kStep * (k + 1)) >> 10) & 255u);
    cycle(k);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(buckets.size(), 256u) << "the bursts must walk every bucket";

  const std::uint64_t before = g_allocs;
  for (int k = kWarm; k < kWarm + kMeasured; ++k) {
    cycle(k);
    if (HasFatalFailure()) return;
  }
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_EQ(allocs, 0u) << "a warm burst cycle allocated";

  // Each bucket keeps up to 64 entries of storage of its own (16,384 over
  // the wheel, 8.2x the peak here) and the spares hold the burst-sized
  // blocks: about 10x in all.  Keeping every bucket's largest burst
  // instead would hold 256 x 1,024 entries, 131x the peak.
  const std::size_t capacity = q.bucket_capacity();
  std::printf("bucket capacity %zu entries for a peak of %zu live (%.1fx)\n",
              capacity, kPeakLive,
              static_cast<double>(capacity) / static_cast<double>(kPeakLive));
  EXPECT_LE(capacity, 12 * kPeakLive);

  while (!q.empty()) {
    auto a = q.pop();
    auto b = oracle.pop();
    a.fn();
    b.fn();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(fired_q, fired_o);
  }
  EXPECT_TRUE(oracle.empty());
}

}  // namespace
