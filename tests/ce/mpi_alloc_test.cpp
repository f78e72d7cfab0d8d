// Heap-allocation guards for both communication paths: mmpi +
// ce::MpiBackend, and mlci + ce::LciBackend, each under the runtime.
//
// Its own binary because it replaces the global operator new with a
// counting one.  Allocation counts in this single-threaded simulation
// are deterministic, so the guards are exact: no wall clock, no ratio.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "ce/world.hpp"
#include "des/engine.hpp"
#include "hicma/driver.hpp"
#include "net/fabric.hpp"

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

constexpr ce::Tag kPing = 1;
constexpr ce::Tag kLanded = 2;

// Drives every engine by hand (no comm threads) until nothing is left.
void drain(des::Engine& eng, ce::CommWorld& world) {
  for (;;) {
    int worked = 0;
    for (int n = 0; n < world.size(); ++n) {
      worked += world.engine(n).progress();
    }
    if (worked == 0 && !eng.step()) return;
  }
}

// Runs AM and put traffic through a 2-node world until it has come and
// gone, then counts what 100 progress passes that complete nothing
// allocate.
std::uint64_t idle_pass_allocs(ce::BackendKind backend) {
  des::Engine eng;
  net::Fabric fab(eng, 2);
  ce::CeConfig cfg;
  ce::CommWorld world(fab, backend, cfg);
  int pings = 0, landed = 0;
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(world.engine(n).tag_reg(
                  kPing,
                  [&pings](ce::CommEngine&, ce::Tag, const void*, std::size_t,
                           int, void*) { ++pings; },
                  nullptr, 64),
              ce::Status::Ok);
    EXPECT_EQ(world.engine(n).tag_reg(
                  kLanded,
                  [&landed](ce::CommEngine&, ce::Tag, const void*,
                            std::size_t, int, void*) { ++landed; },
                  nullptr, 64),
              ce::Status::Ok);
  }
  std::vector<std::byte> src(1 << 16), dst(1 << 16);
  const ce::MemReg lreg = world.engine(0).mem_reg(src.data(), src.size());
  const ce::MemReg rreg = world.engine(1).mem_reg(dst.data(), dst.size());
  const int cookie = 42;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(world.engine(0).send_am(kPing, 1, "hi", 2), ce::Status::Ok);
    world.engine(0).put(lreg, 0, rreg, 0, src.size(), 1, nullptr, nullptr,
                        kLanded, &cookie, sizeof cookie);
    drain(eng, world);
  }
  EXPECT_EQ(pings, 4);
  EXPECT_EQ(landed, 4);

  const std::uint64_t before = g_allocs;
  int completed = 0;
  for (int pass = 0; pass < 100; ++pass) {
    for (int n = 0; n < 2; ++n) completed += world.engine(n).progress();
  }
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_EQ(completed, 0);
  return allocs;
}

// A progress pass that completes nothing allocates nothing, including
// after AM and put traffic has come and gone.
TEST(MpiAlloc, IdleProgressPassAllocatesNothing) {
  EXPECT_EQ(idle_pass_allocs(ce::BackendKind::Mpi), 0u);
}

TEST(LciAlloc, IdleProgressPassAllocatesNothing) {
  EXPECT_EQ(idle_pass_allocs(ce::BackendKind::Lci), 0u);
}

// Allocations of a whole 8-node run (the fingerprint config), set-up
// included.  The run before the measured one fills process-wide pools
// (payload buffers, flight-recorder rings) the same way in every fresh
// process.
// `fault_tolerant` turns on lineage, the reliability sublayer and the
// failure detector, with no crash.
std::uint64_t fingerprint_run_allocs(ce::BackendKind backend,
                                     std::uint64_t expected_msgs,
                                     bool fault_tolerant = false) {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 8;
  cfg.backend = backend;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  cfg.rt.ft.enabled = fault_tolerant;
  cfg.ce.fd.enabled = fault_tolerant;
  cfg.ce.reliable.enabled = fault_tolerant;
  // Instruments the environment can switch on allocate on their own.
  for (const char* var :
       {"AMTLCE_TRACE", "AMTLCE_TIMELINE", "AMTLCE_POSTMORTEM"}) {
    ::unsetenv(var);
  }
  (void)hicma::run_tlr_cholesky(cfg);
  const std::uint64_t before = g_allocs;
  const hicma::ExperimentResult res = hicma::run_tlr_cholesky(cfg);
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
  EXPECT_EQ(res.fabric_messages, expected_msgs);
  std::printf("allocs %llu (%.3f per fabric message)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<double>(allocs) /
                  static_cast<double>(res.fabric_messages));
  return allocs;
}

// The bounds are the counts this code makes (1.17 and 1.24 per fabric
// message, mostly set-up) when the test runs alone, as ctest runs it, so
// any added allocation fails.  Workers are rows of a per-node table, not
// a SimThread object each (about 100 fewer here), and a comm or progress
// thread is one PollThread member, not a heap thread, a heap loop and a
// work queue (25 fewer on MPI, 49 on LCI).  EXPERIMENTS.md records the
// counts of the earlier designs.
TEST(MpiAlloc, FingerprintRunAllocationsStayAtBound) {
  constexpr std::uint64_t kMaxAllocs = 3'121;
  EXPECT_LE(fingerprint_run_allocs(ce::BackendKind::Mpi, 2671), kMaxAllocs);
}

TEST(LciAlloc, FingerprintRunAllocationsStayAtBound) {
  constexpr std::uint64_t kMaxAllocs = 3'321;
  EXPECT_LE(fingerprint_run_allocs(ce::BackendKind::Lci, 2674), kMaxAllocs);
}

// The same run with fault tolerance on and no crash, bounded the same
// way.  Lineage keeps a phase byte per task and a map entry only per
// re-armed task; a node per task would add about 450 allocations here.
// The reliability sublayer's receive window takes no set node for an
// in-order frame; one per frame would add about 2,700.  The produced-data
// cache appends to slab chunks, and only on the producer's home: the hash
// node per flow it kept before cost about 300 more, and the forwarders'
// records another 19.
TEST(MpiAlloc, FaultTolerantRunAllocationsStayAtBound) {
  constexpr std::uint64_t kMaxAllocs = 4'455;
  EXPECT_LE(fingerprint_run_allocs(ce::BackendKind::Mpi, 32742, true),
            kMaxAllocs);
}

TEST(LciAlloc, FaultTolerantRunAllocationsStayAtBound) {
  constexpr std::uint64_t kMaxAllocs = 4'328;
  EXPECT_LE(fingerprint_run_allocs(ce::BackendKind::Lci, 34042, true),
            kMaxAllocs);
}

}  // namespace
