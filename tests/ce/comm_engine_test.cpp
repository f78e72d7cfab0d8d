// Cross-backend tests of the PaRSEC communication-engine API: every
// behavioural test runs against both the MPI backend (§4.2) and the LCI
// backend (§5.3) via a parameterized fixture, plus backend-specific tests
// for the mechanisms unique to each design.
#include "ce/comm_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "ce/lci_backend.hpp"
#include "ce/mpi_backend.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/sim_thread.hpp"
#include "net/fabric.hpp"

namespace {

using ce::BackendKind;
using ce::CeConfig;
using ce::CeStats;
using ce::CommEngine;
using ce::CommWorld;
using ce::MemReg;
using ce::Tag;

constexpr Tag kActivate = 1;
constexpr Tag kGetData = 2;
constexpr Tag kPutDone = 3;

/// Test world: a fabric, a CommWorld, and one "communication thread"
/// (a PollThread over progress()) per node, wired to the engine
/// wake callbacks — the same shape the AMT runtime uses.
struct CeWorld {
  des::Engine eng;
  net::Fabric fab;
  CommWorld world;
  std::deque<des::PollThread> threads;

  CeWorld(int nodes, BackendKind kind, CeConfig cfg = {},
          mmpi::Config mpi_cfg = {}, mlci::Config lci_cfg = {})
      : fab(eng, nodes), world(fab, kind, cfg, mpi_cfg, lci_cfg) {
    for (int n = 0; n < nodes; ++n) {
      auto& engine = world.engine(n);
      des::PollThread& th = threads.emplace_back(
          eng, "comm-" + std::to_string(n), 25,
          [&engine]() { return engine.progress() > 0; });
      engine.set_wake_callback([&th]() { th.wake(); });
      th.wake();
    }
  }

  CommEngine& engine(int n) { return world.engine(n); }

  /// Nudges every comm loop (after driver-initiated sends) and runs the
  /// simulation until quiescent.
  void run() {
    for (auto& th : threads) th.wake();
    eng.run();
  }
};

class CeBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CeBackends, ActiveMessageDelivery) {
  CeWorld w(2, GetParam());
  std::string got;
  int got_src = -1;
  int cookie = 7;
  void* got_cookie = nullptr;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int src,
          void* cb_data) {
        got.assign(static_cast<const char*>(msg), size);
        got_src = src;
        got_cookie = cb_data;
      },
      &cookie, 256);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 256);

  const std::string msg = "activate:task(3,4)";
  EXPECT_EQ(w.engine(0).send_am(kActivate, 1, msg.data(), msg.size()),
            ce::Status::Ok);
  w.run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(got_cookie, &cookie);
  EXPECT_EQ(w.engine(0).stats().ams_sent, 1u);
  EXPECT_EQ(w.engine(1).stats().ams_delivered, 1u);
}

TEST_P(CeBackends, ManyAmsAllDelivered) {
  CeWorld w(2, GetParam());
  int count = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++count;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 100; ++i) {
    char body[16];
    std::snprintf(body, sizeof body, "am-%03d", i);
    w.engine(0).send_am(kActivate, 1, body, 8);
  }
  w.run();
  EXPECT_EQ(count, 100);
}

// More AMs in flight than a tag has persistent receives (5 on MPI): each
// callback reads its own bytes, even after it sends a reply of the same
// size first (a released payload buffer would be the reply's to reuse).
TEST_P(CeBackends, InFlightAmsEachDeliverTheirOwnBytes) {
  CeWorld w(2, GetParam());
  std::vector<std::string> got;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine& ce, Tag, const void* msg, std::size_t size, int src,
          void*) {
        const std::string reply(size, '#');
        ce.send_am(kActivate, src, reply.data(), reply.size());
        got.emplace_back(static_cast<const char*>(msg), size);
      },
      nullptr, 64);
  int replies = 0;
  w.engine(0).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++replies;
      },
      nullptr, 64);
  std::vector<std::string> sent;
  for (int i = 0; i < 12; ++i) {
    sent.push_back("am-" + std::to_string(i) + std::string(i, '.'));
    EXPECT_EQ(w.engine(0).send_am(kActivate, 1, sent.back().data(),
                                  sent.back().size()),
              ce::Status::Ok);
  }
  w.run();
  EXPECT_EQ(replies, 12);
  std::sort(got.begin(), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
}

TEST_P(CeBackends, ZeroByteAmReachesCallbackWithCountZero) {
  CeWorld w(2, GetParam());
  int calls = 0;
  std::size_t got_size = 99;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t size, int, void*) {
        ++calls;
        got_size = size;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  EXPECT_EQ(w.engine(0).send_am(kActivate, 1, nullptr, 0), ce::Status::Ok);
  w.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got_size, 0u);
}

TEST_P(CeBackends, DistinctTagsRouteToDistinctCallbacks) {
  CeWorld w(2, GetParam());
  int activates = 0, getdatas = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++activates;
      },
      nullptr, 64);
  w.engine(1).tag_reg(
      kGetData,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++getdatas;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  w.engine(0).tag_reg(kGetData, [](auto&&...) {}, nullptr, 64);
  w.engine(0).send_am(kActivate, 1, "a", 1);
  w.engine(0).send_am(kGetData, 1, "g", 1);
  w.engine(0).send_am(kActivate, 1, "a", 1);
  w.run();
  EXPECT_EQ(activates, 2);
  EXPECT_EQ(getdatas, 1);
}

TEST_P(CeBackends, PutMovesDataAndNotifiesBothSides) {
  CeWorld w(2, GetParam());
  std::vector<char> src(64 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 17 + 3);
  }
  std::vector<char> dst(src.size() + 128, 0);

  bool local_done = false;
  std::string remote_info;
  int remote_src = -1;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int from,
          void*) {
        remote_info.assign(static_cast<const char*>(msg), size);
        remote_src = from;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  const MemReg lreg = w.engine(0).mem_reg(src.data(), src.size());
  const MemReg rreg{1, dst.data(), dst.size()};
  const char rinfo[] = "flow:A->B";
  int lcb_cookie = 0;
  w.engine(0).put(
      lreg, 0, rreg, 128, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t size, int remote, void* cb) {
        local_done = true;
        EXPECT_EQ(size, src.size());
        EXPECT_EQ(remote, 1);
        EXPECT_EQ(cb, &lcb_cookie);
      },
      &lcb_cookie, kPutDone, rinfo, sizeof rinfo - 1);
  w.run();

  EXPECT_TRUE(local_done);
  EXPECT_EQ(remote_info, "flow:A->B");
  EXPECT_EQ(remote_src, 0);
  // Data landed at displacement 128.
  EXPECT_EQ(0, std::memcmp(dst.data() + 128, src.data(), src.size()));
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(w.engine(0).stats().puts_completed_local, 1u);
  EXPECT_EQ(w.engine(1).stats().puts_completed_remote, 1u);
}

TEST_P(CeBackends, VirtualPut) {
  CeWorld w(2, GetParam());
  bool local_done = false, remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 22};
  const MemReg rreg{1, nullptr, 1 << 22};
  w.engine(0).put(
      lreg, 0, rreg, 0, 1 << 22, 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "x", 1);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_TRUE(remote_done);
}

TEST_P(CeBackends, ManyConcurrentPutsAllComplete) {
  CeWorld w(2, GetParam());
  constexpr int kPuts = 80;  // over the MPI backend's 30-transfer cap
  int remote_done = 0, local_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(
        lreg, 0, rreg, 0, 256 * 1024, 1,
        [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
            std::ptrdiff_t, std::size_t, int, void*) { ++local_done; },
        nullptr, kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(local_done, kPuts);
  EXPECT_EQ(remote_done, kPuts);
}

TEST_P(CeBackends, BidirectionalTrafficQuiesces) {
  CeWorld w(4, GetParam());
  std::vector<int> received(4, 0);
  for (int n = 0; n < 4; ++n) {
    w.engine(n).tag_reg(
        kActivate,
        [&received, n](CommEngine&, Tag, const void*, std::size_t, int,
                       void*) { ++received[static_cast<std::size_t>(n)]; },
        nullptr, 64);
  }
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      w.engine(src).send_am(kActivate, dst, "ping", 4);
    }
  }
  w.run();
  for (int n = 0; n < 4; ++n) EXPECT_EQ(received[static_cast<std::size_t>(n)], 3);
  EXPECT_TRUE(w.world.all_idle());
}

TEST_P(CeBackends, ReentrantPutFromAmCallback) {
  // GET DATA pattern: an AM callback at the data owner starts the put.
  CeWorld w(2, GetParam());
  std::vector<char> payload(32 * 1024, 'q');
  std::vector<char> sink(payload.size());
  bool data_arrived = false;

  // Node 1 = data owner: on GET DATA, put to the requester.
  w.engine(1).tag_reg(
      kGetData,
      [&](CommEngine& eng, Tag, const void* msg, std::size_t, int src,
          void*) {
        MemReg lr = eng.mem_reg(payload.data(), payload.size());
        MemReg rr{};
        std::memcpy(&rr, msg, sizeof rr);
        eng.put(lr, 0, rr, 0, payload.size(), src, nullptr, nullptr,
                kPutDone, "done", 4);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kGetData, [](auto&&...) {}, nullptr, 64);
  w.engine(0).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        data_arrived = true;
      },
      nullptr, 64);
  w.engine(1).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  const MemReg sink_reg = w.engine(0).mem_reg(sink.data(), sink.size());
  w.engine(0).send_am(kGetData, 1, &sink_reg, sizeof sink_reg);
  w.run();
  EXPECT_TRUE(data_arrived);
  EXPECT_EQ(sink[1000], 'q');
}

INSTANTIATE_TEST_SUITE_P(Backends, CeBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& tp) {
                           return tp.param == BackendKind::Mpi ? "Mpi"
                                                               : "Lci";
                         });

// --- MPI-backend-specific mechanisms ---------------------------------------

TEST(CeMpiBackend, TransferCapDefersPuts) {
  CeConfig cfg;
  cfg.max_concurrent_transfers = 4;
  CeWorld w(2, BackendKind::Mpi, cfg);
  int remote_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  constexpr int kPuts = 20;
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 128 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  // The driver issued 20 puts back-to-back with a cap of 4: some must have
  // been deferred before any progress happened.
  EXPECT_GT(w.engine(0).stats().puts_deferred, 0u);
  w.run();
  EXPECT_EQ(remote_done, kPuts);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeMpiBackend, DynamicRecvsPromotedInFifoOrder) {
  CeConfig cfg;
  cfg.max_concurrent_transfers = 2;
  CeWorld w(2, BackendKind::Mpi, cfg);
  std::vector<int> order;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t, int, void*) {
        int idx = 0;
        std::memcpy(&idx, msg, sizeof idx);
        order.push_back(idx);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < 10; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 64 * 1024, 1, nullptr, nullptr,
                    kPutDone, &i, sizeof i);
  }
  w.run();
  ASSERT_EQ(order.size(), 10u);
  // The target sees some receives land without array space; all must
  // still complete.  (Arrival order is not contractual, but with a single
  // pair and FIFO pipes it is in fact in-order here.)
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Completions in one progress pass run their callbacks in request-array
// order, so removing finished entries must keep the survivors' order.
// Progress is driven by hand: put 1 (to node 2) finishes alone and leaves
// a hole between puts 0, 2 and 3 (to node 1), which then finish together.
TEST(CeMpiBackend, CompactionKeepsCallbackOrder) {
  des::Engine eng;
  net::Fabric fab(eng, 3);
  CommWorld world(fab, BackendKind::Mpi);
  for (int n = 0; n < 3; ++n) {
    world.engine(n).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  }
  std::vector<int> order;
  const auto record = [&order](CommEngine&, const MemReg&, std::ptrdiff_t,
                               const MemReg&, std::ptrdiff_t, std::size_t,
                               int, void* cb_data) {
    order.push_back(*static_cast<int*>(cb_data));
  };
  const MemReg lreg{0, nullptr, 1 << 20};
  int ids[] = {0, 1, 2, 3};
  for (int& id : ids) {
    const int target = id == 1 ? 2 : 1;
    const MemReg rreg{target, nullptr, 1 << 20};
    world.engine(0).put(lreg, 0, rreg, 0, 64 * 1024, target, record, &id,
                        kPutDone, "d", 1);
  }
  const auto settle = [&eng] { eng.run(); };
  settle();
  world.engine(2).progress();  // handshake + RTS matched: CTS out
  settle();
  world.engine(0).progress();  // CTS: data out
  settle();
  world.engine(0).progress();  // put 1 completes alone
  ASSERT_EQ(order, std::vector<int>{1});
  world.engine(1).progress();
  settle();
  world.engine(0).progress();  // three CTS: data out, nothing done yet
  ASSERT_EQ(order.size(), 1u);
  settle();
  world.engine(0).progress();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

// The global array and the transfer slots under every path at once: a
// cap of 2, puts made from inside l_cb and r_cb callbacks (entries
// appended mid-pass), deferred sends and dynamically allocated receives,
// and peer_failed() while a send to the failed peer is in the array, more
// are deferred and its receives wait for array space.  Node 2 never
// progresses, so nothing it was sent completes.  The callback order is
// pinned (it is the order of the request-array design with 224-byte
// entries), and at quiescence the survivors are idle with no transfer
// slot left live.
TEST(CeMpiBackend, TransferSlotsDrainAfterReentrantPutsAndPeerFailure) {
  des::Engine eng;
  net::Fabric fab(eng, 3);
  CeConfig cfg;
  cfg.max_concurrent_transfers = 2;
  CommWorld world(fab, BackendKind::Mpi, cfg);
  std::vector<int> order;
  const MemReg lreg{0, nullptr, 1 << 20};
  const auto put = [&](int from, int to, int& id,
                            ce::OnesidedCallback l_cb) {
    const MemReg rreg{to, nullptr, 1 << 20};
    world.engine(from).put(lreg, 0, rreg, 0, 64 * 1024, to, std::move(l_cb),
                           &id, kPutDone, &id, sizeof id);
  };
  int reentrant_send = 10, reentrant_back = 20;
  // Origin completions on node 0 log the put id; put 0's starts put 10.
  const ce::OnesidedCallback l_cb =
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void* cb_data) {
        const int id = *static_cast<int*>(cb_data);
        order.push_back(id);
        if (id == 0) put(0, 1, reentrant_send, nullptr);
      };
  // Remote completions log 100 + id on node 1 (whose put-2 callback puts
  // back to node 0) and 200 + id on node 0.
  world.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t, int, void*) {
        int id = 0;
        std::memcpy(&id, msg, sizeof id);
        order.push_back(100 + id);
        if (id == 2) put(1, 0, reentrant_back, nullptr);
      },
      nullptr, 64);
  world.engine(0).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t, int, void*) {
        int id = 0;
        std::memcpy(&id, msg, sizeof id);
        order.push_back(200 + id);
      },
      nullptr, 64);
  world.engine(2).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  int from_dead[] = {30, 31, 32};
  for (int& id : from_dead) put(2, 0, id, nullptr);
  int ids[] = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int& id : ids) put(0, id % 2 == 0 ? 1 : 2, id, l_cb);
  eng.run();
  world.engine(0).progress();  // node 2's receives wait for array space
  world.engine(0).peer_failed(2);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7}));

  // Settle the fabric between passes, so that one pass can complete
  // several transfers and run their callbacks in array order.
  for (;;) {
    eng.run();
    const int worked = world.engine(0).progress() + world.engine(1).progress();
    if (worked == 0 && !eng.step()) break;
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 0, 2, 100, 102, 4, 6, 104,
                                     106, 220, 110}));
  const CeStats& s0 = world.engine(0).stats();
  EXPECT_GT(s0.puts_deferred, 0u);
  EXPECT_EQ(s0.recvs_dynamic, 4u);
  EXPECT_EQ(s0.peer_failed_sends, 4u);
  EXPECT_EQ(s0.peer_failed_recvs, 3u);
  EXPECT_GT(world.engine(1).stats().recvs_dynamic, 0u);
  for (int n = 0; n < 2; ++n) {
    EXPECT_TRUE(world.engine(n).idle()) << n;
    EXPECT_EQ(dynamic_cast<ce::MpiBackend&>(world.engine(n)).live_transfers(),
              0u)
        << n;
  }
}

// --- LCI-backend-specific mechanisms ---------------------------------------

TEST(CeLciBackend, EagerPutRidesHandshake) {
  CeConfig cfg;
  cfg.eager_put_max = 4096;
  CeWorld w(2, BackendKind::Lci, cfg);
  std::vector<char> src(2048, 'e');
  std::vector<char> dst(2048, 0);
  bool local_done = false;
  bool remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, src.data(), src.size()};
  const MemReg rreg{1, dst.data(), dst.size()};
  w.engine(0).put(
      lreg, 0, rreg, 0, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "e", 1);
  // §5.3.3: eager puts complete locally at the call, before any progress.
  EXPECT_TRUE(local_done);
  EXPECT_EQ(w.engine(0).stats().eager_puts, 1u);
  w.run();
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(dst[100], 'e');
}

TEST(CeLciBackend, EagerPutDisabledUsesDirect) {
  CeConfig cfg;
  cfg.eager_put_max = 0;
  CeWorld w(2, BackendKind::Lci, cfg);
  bool remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 4096};
  const MemReg rreg{1, nullptr, 4096};
  w.engine(0).put(lreg, 0, rreg, 0, 2048, 1, nullptr, nullptr, kPutDone,
                  "d", 1);
  w.run();
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(w.engine(0).stats().eager_puts, 0u);
}

TEST(CeLciBackend, RecvRetryDelegatedToCommThread) {
  CeConfig cfg;
  cfg.eager_put_max = 0;
  mlci::Config lci_cfg;
  lci_cfg.direct_slots = 2;  // scarce hardware resources
  CeWorld w(2, BackendKind::Lci, cfg, {}, lci_cfg);
  int remote_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  constexpr int kPuts = 12;
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 64 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(remote_done, kPuts);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeLciBackend, WorksWithoutProgressThread) {
  CeConfig cfg;
  cfg.progress_thread = false;
  CeWorld w(2, BackendKind::Lci, cfg);
  int delivered = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++delivered;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 10; ++i) w.engine(0).send_am(kActivate, 1, "x", 1);
  w.run();
  EXPECT_EQ(delivered, 10);
}

TEST(CeLciBackend, ProgressThreadReducesAmLatencyUnderCallbackLoad) {
  // §4.3/§5.2: while the communication thread executes a long callback, a
  // backend whose progress is coupled to that thread cannot match incoming
  // messages.  The dedicated progress thread decouples them.
  auto measure = [](bool progress_thread) {
    CeConfig cfg;
    cfg.progress_thread = progress_thread;
    CeWorld w(2, BackendKind::Lci, cfg);
    des::Time last_arrival = 0;
    int count = 0;
    // The receiving callback is expensive (models ACTIVATE unpacking).
    w.engine(1).tag_reg(
        kActivate,
        [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
          des::charge_current(50 * des::kMicrosecond);
          ++count;
          last_arrival = w.eng.now();
        },
        nullptr, 64);
    w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
    for (int i = 0; i < 20; ++i) w.engine(0).send_am(kActivate, 1, "x", 1);
    w.run();
    EXPECT_EQ(count, 20);
    return last_arrival;
  };
  const des::Time with_pt = measure(true);
  const des::Time without_pt = measure(false);
  // Both complete; the callbacks dominate either way, so the completion
  // times are close — the decoupling benefit shows in message *matching*
  // (exercised in the bandwidth benches).  Here we only require that the
  // progress-thread variant is not slower.
  EXPECT_LE(with_pt, without_pt);
}

}  // namespace

namespace {

// --- §7 future work: native one-sided put ----------------------------------

TEST(CeLciBackend, NativePutMovesDataWithOneMessage) {
  CeConfig cfg;
  cfg.native_put = true;
  CeWorld w(2, BackendKind::Lci, cfg);
  std::vector<char> src(64 * 1024, 'n');
  std::vector<char> dst(64 * 1024, 0);
  bool local_done = false;
  std::string rinfo;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int, void*) {
        rinfo.assign(static_cast<const char*>(msg), size);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, src.data(), src.size()};
  const MemReg rreg{1, dst.data(), dst.size()};
  const std::uint64_t msgs_before = w.fab.total_messages();
  w.engine(0).put(
      lreg, 0, rreg, 0, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "native", 6);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_EQ(rinfo, "native");
  EXPECT_EQ(dst[100], 'n');
  // One wire message for the whole put.
  EXPECT_EQ(w.fab.total_messages() - msgs_before, 1u);
}

TEST(CeLciBackend, NativePutLowerLatencyThanEmulated) {
  auto measure = [](bool native) {
    CeConfig cfg;
    cfg.native_put = native;
    cfg.eager_put_max = 0;
    CeWorld w(2, BackendKind::Lci, cfg);
    des::Time done = 0;
    w.engine(1).tag_reg(
        kPutDone,
        [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
          done = w.eng.now();
        },
        nullptr, 64);
    w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
    const MemReg lreg{0, nullptr, 1 << 20};
    const MemReg rreg{1, nullptr, 1 << 20};
    w.engine(0).put(lreg, 0, rreg, 0, 256 * 1024, 1, nullptr, nullptr,
                    kPutDone, "x", 1);
    w.run();
    return done;
  };
  const des::Time native = measure(true);
  const des::Time emulated = measure(false);
  EXPECT_GT(native, 0);
  // Saves the rendezvous round-trip.
  EXPECT_LT(native, emulated);
}

TEST(CeLciBackend, NativePutManyConcurrentAllComplete) {
  CeConfig cfg;
  cfg.native_put = true;
  mlci::Config lci_cfg;
  lci_cfg.direct_slots = 4;  // force Retry + comm-thread retries
  CeWorld w(2, BackendKind::Lci, cfg, {}, lci_cfg);
  int done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < 40; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 128 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(done, 40);
  EXPECT_TRUE(w.world.all_idle());
}

// A native put that reaches a device after its backend was destroyed must
// find no put handler: the backend clears every device hook it set.  The
// progress pass is charged for draining and handling the put, and no
// handler cost (which a leftover handler would also add, after calling
// through the destroyed backend).
TEST(CeLciBackend, NativePutAfterBackendDestructionRunsNoHandler) {
  des::Engine eng;
  net::Fabric fab(eng, 2);
  mlci::Lci lci(fab);
  {
    CeConfig cfg;
    cfg.native_put = true;
    ce::LciBackend backend(lci.device(1), eng, cfg);
    eng.run();  // its progress loop runs once and parks
  }
  ASSERT_EQ(lci.device(0).putd(1, 7, nullptr, 64, 0, mlci::Comp::none(),
                               "imm", 3),
            mlci::Status::Ok);
  eng.run();  // the put lands in device 1's hardware queue
  ASSERT_EQ(lci.device(1).pending_hw_events(), 1u);
  int processed = 0;
  des::PollThread thread(eng, "progress", 0, [&] {
    processed = mlci::progress(lci.device(1));
    return false;
  });
  thread.wake();
  eng.run();
  EXPECT_EQ(processed, 1);
  const mlci::Config& lcfg = lci.config();
  EXPECT_EQ(thread.busy_time(),
            lcfg.progress_poll_cost + 2 * lcfg.event_cost);
}

}  // namespace
