#include "des/slab.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using des::Slab;

TEST(Slab, ReusesReleasedSlotsLastInFirstOut) {
  Slab<int> slab;
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(slab.acquire(), s);
  slab.release(1);
  slab.release(3);
  slab.release(0);
  EXPECT_EQ(slab.acquire(), 0u);
  EXPECT_EQ(slab.acquire(), 3u);
  EXPECT_EQ(slab.acquire(), 1u);
  EXPECT_EQ(slab.acquire(), 4u);  // free list empty: a new slot
  EXPECT_EQ(slab.size(), 5u);
}

TEST(Slab, RecycledSlotKeepsItsPreviousOccupant) {
  Slab<std::vector<int>> slab;
  const std::uint32_t s = slab.acquire();
  slab[s].assign(100, 7);
  slab.release(s);
  ASSERT_EQ(slab.acquire(), s);
  EXPECT_EQ(slab[s].size(), 100u);  // the caller resets, capacity stays
}

TEST(Slab, AddressesStayPutAcrossChunkGrowth) {
  Slab<std::string> slab;
  std::vector<std::string*> addr;
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t s = slab.acquire();
    slab[s] = std::to_string(i);
    addr.push_back(&slab[s]);
  }
  for (std::uint32_t s = 0; s < 100; ++s) {
    EXPECT_EQ(&slab[s], addr[s]);
    EXPECT_EQ(*addr[s], std::to_string(s));
  }
}

TEST(Slab, IdsAreGenerationAndSlotPlusOne) {
  Slab<int> slab;
  const std::uint32_t a = slab.acquire();
  const std::uint32_t b = slab.acquire();
  EXPECT_EQ(slab.id(a), 1u);
  EXPECT_EQ(slab.id(b), 2u);
  EXPECT_EQ(Slab<int>::slot_of(slab.id(b)), b);
  for (std::uint64_t gen = 1; gen <= 3; ++gen) {
    slab.release(b);
    ASSERT_EQ(slab.acquire(), b);
    EXPECT_EQ(slab.id(b), (gen << 32) | (b + 1));
    EXPECT_EQ(Slab<int>::slot_of(slab.id(b)), b);
  }
  EXPECT_EQ(slab.id(a), 1u);  // other slots keep their generation
}

TEST(Slab, FindResolvesOnlyLiveCurrentIds) {
  Slab<int> slab;
  EXPECT_EQ(slab.find(0), nullptr);  // empty slab
  const std::uint32_t s = slab.acquire();
  slab[s] = 42;
  const Slab<int>::Id id = slab.id(s);
  ASSERT_NE(slab.find(id), nullptr);
  EXPECT_EQ(*slab.find(id), 42);
  EXPECT_EQ(slab.find(0), nullptr);
  EXPECT_EQ(slab.find(id + 1), nullptr);                // slot never made
  EXPECT_EQ(slab.find((std::uint64_t{1} << 32) | 7), nullptr);
  EXPECT_EQ(slab.find(id + (std::uint64_t{1} << 32)), nullptr);  // future gen

  slab.release(s);
  EXPECT_EQ(slab.find(id), nullptr);  // free
  ASSERT_EQ(slab.acquire(), s);
  EXPECT_EQ(slab.find(id), nullptr);  // stale: the slot has a new occupant
  EXPECT_EQ(slab.find(slab.id(s)), &slab[s]);
}

TEST(Slab, LiveWalkVisitsOccupiedSlotsInSlotOrder) {
  Slab<int> slab;
  for (int i = 0; i < 40; ++i) slab[slab.acquire()] = i;
  for (std::uint32_t s : {3u, 17u, 18u, 39u, 0u}) slab.release(s);
  slab[slab.acquire()] = 100;  // refills slot 0, LIFO
  std::vector<int> seen;
  for (std::uint32_t s = 0; s < slab.size(); ++s) {
    if (slab.live(s)) seen.push_back(slab[s]);
  }
  std::vector<int> want{100};
  for (int i = 1; i < 39; ++i) {
    if (i != 3 && i != 17 && i != 18) want.push_back(i);
  }
  EXPECT_EQ(seen, want);
}

}  // namespace
