#include "des/sim_thread.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

namespace {

using des::Duration;
using des::Engine;
using des::SimThread;
using des::Time;

struct Namer final : des::ChargeTarget::Namer {
  std::string track_name(const des::ChargeTarget&) const override {
    return "t";
  }
};
const Namer kNamer;

struct Item {
  Duration cost;
  Duration charge = 0;  ///< what the body discovers it has to charge
};

/// Runs `items` from index `i` on `th` the way its owners do: one at a
/// time, each scheduled when the one before has run.  Records the times
/// the items fire in `done`.
void run_from(Engine& eng, SimThread& th, const std::vector<Item>& items,
              std::size_t i, std::vector<Time>& done) {
  if (i == items.size()) return;
  th.schedule_item(eng, items[i].cost, [&eng, &th, &items, i, &done] {
    th.run_item(eng, items[i].cost, "work", [&] {
      done.push_back(eng.now());
      des::charge_current(items[i].charge);
    });
    run_from(eng, th, items, i + 1, done);
  });
}

TEST(SimThread, ItemsExecuteSeriallyWithCosts) {
  Engine eng;
  SimThread th(kNamer);
  const std::vector<Item> items = {{100}, {50}, {25}};
  std::vector<Time> done;
  run_from(eng, th, items, 0, done);
  eng.run();
  EXPECT_EQ(done, (std::vector<Time>{100, 150, 175}));
  EXPECT_EQ(th.busy_time(), 175);
  EXPECT_EQ(th.busy_until(), 175);
}

TEST(SimThread, ChargeExtendsOccupancy) {
  Engine eng;
  SimThread th(kNamer);
  const std::vector<Item> items = {{10, 90}, {10}};
  std::vector<Time> done;
  run_from(eng, th, items, 0, done);
  eng.run();
  // First item fires at 10 (its nominal cost) and discovers 90 more of
  // work; the charge delays the second item's start to 100, so it
  // completes at 110.
  EXPECT_EQ(done, (std::vector<Time>{10, 110}));
  EXPECT_EQ(th.busy_time(), 110);
}

TEST(SimThread, IdleGapDoesNotCountAsBusy) {
  Engine eng;
  SimThread th(kNamer);
  const std::vector<Item> items = {{10}};
  std::vector<Time> done;
  run_from(eng, th, items, 0, done);
  eng.run();
  eng.schedule_at(1000, [&] { run_from(eng, th, items, 0, done); });
  eng.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 1010}));
  EXPECT_EQ(th.busy_time(), 20);
}

TEST(SimThread, LatePostStartsAtPostTimeNotThreadCreation) {
  Engine eng;
  SimThread th(kNamer);
  const std::vector<Item> items = {{7}};
  std::vector<Time> done;
  eng.schedule_at(500, [&] { run_from(eng, th, items, 0, done); });
  eng.run();
  EXPECT_EQ(done, (std::vector<Time>{507}));
}

TEST(SimThread, TwoThreadsRunConcurrentlyInSimTime) {
  Engine eng;
  SimThread a(kNamer);
  SimThread b(kNamer);
  const std::vector<Item> items = {{100}};
  std::vector<Time> done;
  run_from(eng, a, items, 0, done);
  run_from(eng, b, items, 0, done);
  eng.run();
  // Independent threads overlap: both finish at t=100.
  EXPECT_EQ(done, (std::vector<Time>{100, 100}));
}

}  // namespace
