#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "des/rng.hpp"

namespace {

using des::EventQueue;
using des::kTimeNever;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    q.schedule(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule(5, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  auto id = q.schedule(5, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(des::kInvalidEvent));
}

TEST(EventQueue, CancelledEventSkippedByNextTime) {
  EventQueue q;
  auto early = q.schedule(1, [] {});
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 1);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, NextTimeOnEmptyIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  auto id = q.schedule(123, [] {});
  auto fired = q.pop();
  EXPECT_EQ(fired.time, 123);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, ManyCancellationsDoNotDisturbOrder) {
  EventQueue q;
  std::vector<des::EventId> ids;
  ids.reserve(100);
  for (int i = 0; i < 100; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  des::Time prev = -1;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GT(fired.time, prev);
    EXPECT_EQ(fired.time % 2, 1);  // even times were cancelled
    prev = fired.time;
  }
}

TEST(EventQueue, CancelStormKeepsHeapCompact) {
  // The network model's reschedule pattern: a completion event is
  // cancelled and rescheduled every time link occupancy changes.  Without
  // compaction each cycle leaks one tombstone into the heap.
  EventQueue q;
  q.schedule(1'000'000'000, [] {});  // long-lived anchor event
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    auto id = q.schedule(1000 + i, [] {});
    q.cancel(id);
    peak = std::max(peak, q.heap_size());
  }
  EXPECT_EQ(q.size(), 1u);
  // Compaction triggers once dead entries outnumber live ones (above a
  // small floor), so the heap never grows past that constant bound.
  EXPECT_LE(peak, 130u);
  EXPECT_LE(q.heap_size(), 130u);
  EXPECT_EQ(q.pop().time, 1'000'000'000);
}

TEST(EventQueue, FiredIdCannotBeCancelled) {
  EventQueue q;
  auto id = q.schedule(5, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuser) {
  // The slab recycles slots; a stale id for a fired/cancelled event must
  // never reach the NEW event occupying the same slot.  The generation tag
  // is what prevents that.
  EventQueue q;
  auto old_id = q.schedule(5, [] {});
  q.pop();  // slot freed, generation bumped
  bool fired = false;
  auto new_id = q.schedule(7, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));  // stale id bounces off the reused slot
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SlotReuseAcrossManyGenerations) {
  EventQueue q;
  std::vector<des::EventId> history;
  for (int i = 0; i < 1000; ++i) {
    auto id = q.schedule(i, [] {});
    history.push_back(id);
    q.pop();
  }
  // A single-slot slab serviced all 1000 events; every retired id is dead.
  EXPECT_EQ(q.slab_size(), 1u);
  for (const auto id : history) EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, RescheduleMovesEventInTime) {
  EventQueue q;
  std::vector<int> fired;
  auto id = q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  EXPECT_TRUE(q.reschedule(id, 30));  // now fires after the other event
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleKeepsIdValid) {
  EventQueue q;
  auto id = q.schedule(10, [] {});
  EXPECT_TRUE(q.reschedule(id, 50));
  EXPECT_TRUE(q.cancel(id));  // same handle still names the event
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleDeadIdFails) {
  EventQueue q;
  auto id = q.schedule(10, [] {});
  q.pop();
  EXPECT_FALSE(q.reschedule(id, 50));
  EXPECT_FALSE(q.reschedule(des::kInvalidEvent, 50));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleToSameTimeMovesBehindTies) {
  // reschedule assigns a fresh FIFO sequence number, exactly as a
  // cancel+schedule pair would — an event re-armed at time T fires after
  // events already waiting at T.
  EventQueue q;
  std::vector<int> fired;
  auto id = q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(10, [&] { fired.push_back(2); });
  EXPECT_TRUE(q.reschedule(id, 10));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleStormKeepsHeapCompact) {
  // The reliability sublayer re-arms RTO timers in place.  Each
  // reschedule leaves one tombstone behind; pop()/schedule()-triggered
  // sweeps must keep the heap within a constant factor of live events.
  EventQueue q;
  auto timer = q.schedule(1'000'000, [] {});
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(q.reschedule(timer, 1'000'000 + i));
    peak = std::max(peak, q.heap_size());
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LE(peak, 130u);
  EXPECT_EQ(q.pop().time, 1'000'000 + 99999);
}

TEST(EventQueue, PopTriggeredCompactionBoundsHeap) {
  // Build a heap that is mostly tombstones while staying under the
  // cancel-path trigger, then verify that draining via pop() compacts:
  // heap_size stays within a small constant factor of size().
  EventQueue q;
  std::vector<des::EventId> doomed;
  for (int i = 0; i < 600; ++i) {
    q.schedule(10 * i, [] {});          // live
    doomed.push_back(q.schedule(10 * i + 5, [] {}));
  }
  for (const auto id : doomed) ASSERT_TRUE(q.cancel(id));
  std::size_t pops = 0;
  while (!q.empty()) {
    q.pop();
    ++pops;
    EXPECT_LE(q.heap_size(), 2 * q.size() + 64);
  }
  EXPECT_EQ(pops, 600u);
}

TEST(EventQueue, FuzzAgainstReferenceModel) {
  // Random schedule/cancel/reschedule/pop/cancel_owner interleavings,
  // checked against a multimap-based reference queue.  The reference keys
  // on (time, seq) so FIFO tie-breaks are part of the contract being
  // checked; every event carries a random owner tag, and cancel_owner is
  // mirrored by dropping that owner's entries from the model.  Some times
  // land past the wheel window so cancel_owner also leaves tombstones in
  // the overflow tier.
  des::Rng rng(0xFEEDFACE);
  EventQueue q;
  constexpr std::uint32_t kOwners = 5;
  struct Ref {
    des::EventId id;
    int tag;
    std::uint32_t owner;
  };
  std::multimap<std::pair<des::Time, std::uint64_t>, Ref> model;
  std::array<std::size_t, kOwners> model_owned{};
  std::uint64_t next_seq = 0;
  std::vector<int> fired_q, fired_model;
  int next_tag = 0;
  des::Time now = 0;
  auto draw_time = [&] {
    const bool far = rng() % 16 == 0;
    return now + static_cast<des::Time>(far ? 300'000 + rng() % 5'000'000
                                            : rng() % 1000);
  };
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const des::Time t = draw_time();
      const int tag = next_tag++;
      const auto owner = static_cast<std::uint32_t>(rng() % kOwners);
      auto id = q.schedule_on(owner, t,
                              [&fired_q, tag] { fired_q.push_back(tag); });
      model.emplace(std::make_pair(t, next_seq++), Ref{id, tag, owner});
      ++model_owned[owner];
    } else if (roll < 0.60 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      ASSERT_TRUE(q.cancel(it->second.id));
      --model_owned[it->second.owner];
      model.erase(it);
    } else if (roll < 0.70 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      const des::Time t = draw_time();
      ASSERT_TRUE(q.reschedule(it->second.id, t));
      Ref ref = it->second;
      model.erase(it);
      model.emplace(std::make_pair(t, next_seq++), ref);
    } else if (roll < 0.71) {
      const auto owner = static_cast<std::uint32_t>(rng() % kOwners);
      ASSERT_EQ(q.cancel_owner(owner), model_owned[owner]);
      std::erase_if(model, [owner](const auto& kv) {
        return kv.second.owner == owner;
      });
      model_owned[owner] = 0;
    } else if (!model.empty()) {
      ASSERT_FALSE(q.empty());
      auto expect = model.begin();
      ASSERT_EQ(q.next_time(), expect->first.first);
      auto fired = q.pop();
      now = fired.time;
      EXPECT_EQ(fired.id, expect->second.id);
      fired.fn();
      fired_model.push_back(expect->second.tag);
      --model_owned[expect->second.owner];
      model.erase(expect);
      ASSERT_EQ(fired_q.size(), fired_model.size());
      ASSERT_EQ(fired_q.back(), fired_model.back());
    }
    ASSERT_EQ(q.size(), model.size());
    for (std::uint32_t o = 0; o < kOwners; ++o) {
      ASSERT_EQ(q.owner_pending(o), model_owned[o]) << "owner " << o;
    }
  }
  while (!q.empty()) {
    auto expect = model.begin();
    auto fired = q.pop();
    EXPECT_EQ(fired.id, expect->second.id);
    fired.fn();
    fired_model.push_back(expect->second.tag);
    model.erase(expect);
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_q, fired_model);
}

// Per-node ownership.  The simulator tags each event with its node's
// shard (net::Fabric::shard_of), so these tests keep the ShardedQueue
// suite name of the per-node queues they were first written against.
TEST(ShardedQueue, CrossShardFifoTieBreak) {
  // Equal timestamps across DIFFERENT owners fire in scheduling order:
  // the owner tag never takes part in the order.
  EventQueue q;
  std::vector<int> fired;
  q.schedule_on(2, 100, [&] { fired.push_back(0); });
  q.schedule_on(0, 100, [&] { fired.push_back(1); });
  q.schedule_on(3, 100, [&] { fired.push_back(2); });
  q.schedule_on(1, 100, [&] { fired.push_back(3); });
  q.schedule_on(2, 100, [&] { fired.push_back(4); });
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_EQ(f.time, 100);
    f.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardedQueue, CancelAndRescheduleAcrossShards) {
  EventQueue q;
  std::vector<int> fired;
  auto a = q.schedule_on(0, 10, [&] { fired.push_back(1); });
  auto b = q.schedule_on(1, 20, [&] { fired.push_back(2); });
  auto c = q.schedule_on(2, 30, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));  // already gone
  EXPECT_EQ(q.owner_pending(1), 0u);
  EXPECT_TRUE(q.reschedule(c, 5));  // now fires before a
  EXPECT_EQ(q.owner_pending(2), 1u);  // a move keeps its owner
  EXPECT_EQ(q.next_time(), 5);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{3, 1}));
  EXPECT_FALSE(q.cancel(a));  // fired events cannot be cancelled
  EXPECT_EQ(q.owner_pending(0), 0u);
  EXPECT_EQ(q.owner_pending(99), 0u);  // never-seen owners are empty
}

// Fail-stop crash DURING the hot phase of the hybrid queue: the victim
// owner dies while the queue holds its events in both tiers — some in
// the near-future calendar wheel (cursor mid-bucket, pops in progress)
// and some parked in the far-future overflow heap awaiting a spill.
// cancel_owner() must drop every one of them without perturbing the
// (time, seq) order of the survivors, and the owner must accept fresh
// events afterwards (lineage recovery reuses the node's owner tag).
// Regression guard for the re-anchor bug, where garbage left in the
// current bucket after the wheel drained stranded live events.
TEST(ShardedQueue, CancelShardMidRunWithBothTiersPopulated) {
  EventQueue q;
  // kWheelSpan is 262144 ns; times below 200k land in the wheel, the
  // +10ms/+80ms groups start in the overflow tier.
  constexpr des::Time kFar1 = 10'000'000;
  constexpr des::Time kFar2 = 80'000'000;
  struct Expect {
    des::Time time;
    std::uint64_t idx;  // schedule order == FIFO seq order
    int tag;
  };
  std::vector<int> fired;
  std::vector<Expect> pending;  // mirror of every still-live event
  std::uint64_t idx = 0;
  auto sched = [&](std::uint32_t owner, des::Time t, int tag) {
    q.schedule_on(owner, t, [&fired, tag] { fired.push_back(tag); });
    pending.push_back({t, idx++, tag});
  };
  const std::uint32_t victim = 2;
  for (std::uint32_t o = 0; o < 4; ++o) {
    for (int i = 0; i < 32; ++i) {
      const int tag = static_cast<int>(o) * 1000 + i;
      sched(o, static_cast<des::Time>(i) * 5000, tag);                // wheel
      sched(o, kFar1 + static_cast<des::Time>(i) * 3000, tag + 100);  // far
      sched(o, kFar2 + static_cast<des::Time>(i) * 7000, tag + 200);  // far
    }
  }
  // Hot phase: pop a third of the population, so the wheel cursor is
  // mid-flight and part of the overflow has spilled.
  const std::size_t total = pending.size();
  for (std::size_t i = 0; i < total / 3; ++i) q.pop().fn();
  // The mirror drops what fired (fired order is checked at the end).
  std::erase_if(pending, [&](const Expect& e) {
    return std::find(fired.begin(), fired.end(), e.tag) != fired.end();
  });

  const std::size_t victim_live = q.owner_pending(victim);
  EXPECT_GT(victim_live, 0u);
  EXPECT_EQ(q.cancel_owner(victim), victim_live);
  EXPECT_EQ(q.owner_pending(victim), 0u);
  EXPECT_EQ(q.cancel_owner(victim), 0u);  // nothing left to cancel
  std::erase_if(pending, [&](const Expect& e) {
    return static_cast<std::uint32_t>(e.tag / 1000) == victim;
  });
  EXPECT_EQ(q.size(), pending.size());

  // Recovery path: the crashed owner keeps working for re-executed
  // lineage — schedule near-tier AND far-tier events on it post-crash.
  sched(victim, kFar1, 9001);
  sched(victim, kFar2 + 1, 9002);
  const des::Time resume = q.next_time();
  sched(victim, resume, 9000);  // ties with the current front; FIFO-last
  EXPECT_EQ(q.owner_pending(victim), 3u);

  const std::size_t fired_before_drain = fired.size();
  while (!q.empty()) q.pop().fn();

  // Survivors must have fired in exact (time, seq) order.
  std::sort(pending.begin(), pending.end(),
            [](const Expect& a, const Expect& b) {
              return a.time != b.time ? a.time < b.time : a.idx < b.idx;
            });
  ASSERT_EQ(fired.size(), fired_before_drain + pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(fired[fired_before_drain + i], pending[i].tag) << "at " << i;
  }
  for (std::uint32_t o = 0; o < 4; ++o) EXPECT_EQ(q.owner_pending(o), 0u);
}

TEST(EventQueue, CallbackWithLargeCaptureSurvivesSlab) {
  // Captures beyond InplaceCallback's inline buffer fall back to a heap
  // cell; the slab must move/destroy those correctly through slot reuse.
  EventQueue q;
  std::vector<int> sink;
  struct Big {
    std::array<std::uint64_t, 16> blob;
    std::vector<int>* out;
  };
  Big big{{}, &sink};
  big.blob[0] = 7;
  big.blob[15] = 9;
  auto id = q.schedule(
      1, [big] { big.out->push_back(static_cast<int>(big.blob[0] + big.blob[15])); });
  EXPECT_TRUE(q.cancel(id));  // heap cell destroyed without firing
  q.schedule(2, [big] { big.out->push_back(static_cast<int>(big.blob[15])); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(sink, (std::vector<int>{9}));
}

TEST(EventQueue, CompactionPreservesOrderAndFifoTies) {
  EventQueue q;
  std::vector<des::EventId> doomed;
  std::vector<int> fired;
  // Live events: equal-time group (FIFO-sensitive) plus spread-out times.
  for (int i = 0; i < 8; ++i) {
    q.schedule(500, [&fired, i] { fired.push_back(i); });
  }
  for (int i = 0; i < 8; ++i) {
    q.schedule(1000 + 10 * i, [&fired, i] { fired.push_back(100 + i); });
  }
  // Cancel-storm enough events to force several compactions underneath.
  for (int round = 0; round < 200; ++round) {
    doomed.push_back(q.schedule(2000 + round, [] {}));
  }
  for (const auto id : doomed) EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);  // FIFO among time ties
    EXPECT_EQ(fired[static_cast<size_t>(8 + i)], 100 + i);
  }
}

}  // namespace
