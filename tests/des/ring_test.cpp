#include "des/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace {

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

// Bursts of pushes interleaved with pops keep FIFO order while the ring
// wraps and grows: the next burst is pushed when the last element of the
// one before is popped, so growth to 4, 8 and 16 slots happens with the
// head in the middle of the buffer.
TEST(Ring, KeepsFifoOrderAcrossWrapAroundAndGrowth) {
  des::Ring<int> r;
  const std::vector<int> bursts = {1, 2, 1, 3, 2, 5, 1, 9, 4, 13, 2, 16, 1};
  std::size_t b = 0;
  int next = 0;
  int last = -1;  // last element of the newest burst
  const auto push_burst = [&] {
    if (b == bursts.size()) return;
    for (int k = 0; k < bursts[b]; ++k) r.push_back(next++);
    last = next - 1;
    ++b;
  };
  push_burst();
  std::vector<int> popped;
  std::size_t max_capacity = 0;
  while (!r.empty()) {
    const int id = r.pop_front();
    popped.push_back(id);
    if (id == last) push_burst();
    max_capacity = std::max(max_capacity, r.capacity());
  }
  std::vector<int> want(static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(popped, want);
  EXPECT_EQ(max_capacity, 16u);
}

}  // namespace
