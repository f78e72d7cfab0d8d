#include "mlci/lci.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "net/fabric.hpp"

namespace {

using des::Engine;
using mlci::Comp;
using mlci::CompQueue;
using mlci::Device;
using mlci::Lci;
using mlci::Request;
using mlci::Status;
using mlci::Synchronizer;

struct World {
  Engine eng;
  net::Fabric fab;
  Lci lci;
  explicit World(int nodes, mlci::Config cfg = {})
      : fab(eng, nodes), lci(fab, cfg) {}

  // Runs the engine to completion, calling progress on every device after
  // each event (standing in for per-node progress threads).
  void run() {
    do {
      for (int r = 0; r < lci.size(); ++r) mlci::progress(lci.device(r));
    } while (eng.step());
    for (int r = 0; r < lci.size(); ++r) mlci::progress(lci.device(r));
  }
};

TEST(Mlci, ImmediateSendInvokesAmHandler) {
  World w(2);
  std::string got;
  int from = -1;
  std::uint64_t tag = 0;
  w.lci.device(1).set_am_handler([&](Request&& r) {
    from = r.peer;
    tag = r.tag;
    got.assign(reinterpret_cast<const char*>(r.payload->data()), r.size);
  });
  ASSERT_EQ(w.lci.device(0).sends(1, 33, "hi", 2), Status::Ok);
  w.run();
  EXPECT_EQ(got, "hi");
  EXPECT_EQ(from, 0);
  EXPECT_EQ(tag, 33u);
}

TEST(Mlci, BufferedSendCarriesPagesOfData) {
  World w(2);
  std::vector<char> payload(8000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  std::vector<char> got;
  w.lci.device(1).set_am_handler([&](Request&& r) {
    got.assign(reinterpret_cast<const char*>(r.payload->data()),
               reinterpret_cast<const char*>(r.payload->data()) + r.size);
  });
  ASSERT_EQ(w.lci.device(0).sendm(1, 1, payload.data(), payload.size()),
            Status::Ok);
  w.run();
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(got.data(), payload.data(), payload.size()));
}

TEST(Mlci, BufferedSendUserBufferReusableImmediately) {
  World w(2);
  std::vector<char> buf(128, 'x');
  char first = 0;
  w.lci.device(1).set_am_handler([&](Request&& r) {
    first = static_cast<char>(r.payload->at(0));
  });
  ASSERT_EQ(w.lci.device(0).sendm(1, 1, buf.data(), buf.size()), Status::Ok);
  std::fill(buf.begin(), buf.end(), 'y');
  w.run();
  EXPECT_EQ(first, 'x');
}

TEST(Mlci, DirectTransferWithCompletionQueues) {
  World w(2);
  std::vector<char> src(100 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 13 + 1);
  }
  std::vector<char> dst(src.size(), 0);
  CompQueue send_cq, recv_cq;
  ASSERT_EQ(w.lci.device(1).recvd(0, 9, dst.data(), dst.size(),
                                  Comp::queue(&recv_cq)),
            Status::Ok);
  ASSERT_EQ(w.lci.device(0).sendd(1, 9, src.data(), src.size(),
                                  Comp::queue(&send_cq)),
            Status::Ok);
  w.run();
  auto rc = recv_cq.poll();
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->type, Request::Type::RecvDone);
  EXPECT_EQ(rc->size, src.size());
  EXPECT_EQ(rc->peer, 0);
  auto sc = send_cq.poll();
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->type, Request::Type::SendDone);
  EXPECT_EQ(0, std::memcmp(dst.data(), src.data(), src.size()));
}

TEST(Mlci, DirectSendBeforeRecvMatchesWhenPosted) {
  World w(2);
  std::vector<char> src(4096, 'd');
  std::vector<char> dst(4096, 0);
  CompQueue cq;
  ASSERT_EQ(w.lci.device(0).sendd(1, 5, src.data(), src.size(),
                                  Comp::none()),
            Status::Ok);
  w.run();  // RTS arrives; no matching receive posted yet
  ASSERT_EQ(w.lci.device(1).recvd(0, 5, dst.data(), dst.size(),
                                  Comp::queue(&cq)),
            Status::Ok);
  w.run();
  ASSERT_TRUE(cq.poll().has_value());
  EXPECT_EQ(dst[17], 'd');
}

TEST(Mlci, SynchronizerSignalsCompletion) {
  World w(2);
  Synchronizer sync;
  std::vector<char> dst(1024);
  ASSERT_EQ(w.lci.device(1).recvd(0, 2, dst.data(), dst.size(),
                                  Comp::sync(&sync)),
            Status::Ok);
  EXPECT_FALSE(sync.test());
  std::vector<char> src(1024, 'k');
  ASSERT_EQ(w.lci.device(0).sendd(1, 2, src.data(), src.size(), Comp::none()),
            Status::Ok);
  w.run();
  EXPECT_TRUE(sync.test());
  EXPECT_EQ(sync.request().type, Request::Type::RecvDone);
  EXPECT_EQ(sync.request().size, 1024u);
}

TEST(Mlci, HandlerCompletionRunsInsideProgress) {
  World w(2);
  bool handled = false;
  std::vector<char> dst(256);
  ASSERT_EQ(w.lci.device(1).recvd(0, 3, dst.data(), dst.size(),
                                  Comp::handler(
                                      [](void* ctx, Request&& r) {
                                        *static_cast<bool*>(ctx) = true;
                                        EXPECT_EQ(r.type,
                                                  Request::Type::RecvDone);
                                      },
                                      &handled)),
            Status::Ok);
  std::vector<char> src(256, 's');
  ASSERT_EQ(w.lci.device(0).sendd(1, 3, src.data(), src.size(), Comp::none()),
            Status::Ok);
  w.run();
  EXPECT_TRUE(handled);
}

TEST(Mlci, UserContextRoundTrips) {
  World w(2);
  int cookie = 1234;
  void* seen = nullptr;
  CompQueue cq;
  std::vector<char> dst(64);
  ASSERT_EQ(w.lci.device(1).recvd(0, 4, dst.data(), dst.size(),
                                  Comp::queue(&cq), &cookie),
            Status::Ok);
  std::vector<char> src(64, 'c');
  ASSERT_EQ(w.lci.device(0).sendd(1, 4, src.data(), src.size(), Comp::none()),
            Status::Ok);
  w.run();
  auto rc = cq.poll();
  ASSERT_TRUE(rc.has_value());
  seen = rc->user_context;
  EXPECT_EQ(seen, &cookie);
}

TEST(Mlci, BufferedPoolExhaustionReturnsRetry) {
  mlci::Config cfg;
  cfg.packet_pool_size = 4;
  World w(2, cfg);
  w.lci.device(1).set_am_handler([](Request&&) {});
  char b[8] = "payload";
  int ok = 0;
  Status last = Status::Ok;
  for (int i = 0; i < 10; ++i) {
    last = w.lci.device(0).sendm(1, 1, b, 8);
    if (last == Status::Ok) ++ok;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(last, Status::Retry);
  // Draining the network returns packets to the pool; sends succeed again.
  w.run();
  EXPECT_EQ(w.lci.device(0).free_packets(), 4);
  EXPECT_EQ(w.lci.device(0).sendm(1, 1, b, 8), Status::Ok);
}

TEST(Mlci, DirectSlotExhaustionReturnsRetry) {
  mlci::Config cfg;
  cfg.direct_slots = 2;
  World w(2, cfg);
  std::vector<char> dst(64);
  EXPECT_EQ(w.lci.device(1).recvd(0, 1, dst.data(), 64, Comp::none()),
            Status::Ok);
  EXPECT_EQ(w.lci.device(1).recvd(0, 2, dst.data(), 64, Comp::none()),
            Status::Ok);
  EXPECT_EQ(w.lci.device(1).recvd(0, 3, dst.data(), 64, Comp::none()),
            Status::Retry);
  // Completing one transfer frees its slot.
  std::vector<char> src(64, 'r');
  EXPECT_EQ(w.lci.device(0).sendd(1, 1, src.data(), 64, Comp::none()),
            Status::Ok);
  w.run();
  EXPECT_EQ(w.lci.device(1).recvd(0, 3, dst.data(), 64, Comp::none()),
            Status::Ok);
}

TEST(Mlci, NoProgressNoDelivery) {
  World w(2);
  bool handled = false;
  w.lci.device(1).set_am_handler([&](Request&&) { handled = true; });
  ASSERT_EQ(w.lci.device(0).sends(1, 1, "x", 1), Status::Ok);
  w.eng.run();  // hardware delivered, but nobody called progress()
  EXPECT_FALSE(handled);
  EXPECT_EQ(w.lci.device(1).pending_hw_events(), 1u);
  mlci::progress(w.lci.device(1));
  EXPECT_TRUE(handled);
}

TEST(Mlci, ProgressReturnsProcessedCount) {
  World w(2);
  w.lci.device(1).set_am_handler([](Request&&) {});
  ASSERT_EQ(w.lci.device(0).sends(1, 1, "a", 1), Status::Ok);
  ASSERT_EQ(w.lci.device(0).sends(1, 2, "b", 1), Status::Ok);
  w.eng.run();
  EXPECT_EQ(mlci::progress(w.lci.device(1)), 2);
  EXPECT_EQ(mlci::progress(w.lci.device(1)), 0);
}

TEST(Mlci, ProgressCostChargedToCallingThread) {
  World w(2);
  des::PollThread prog(w.eng, "progress", 0, [&] {
    mlci::progress(w.lci.device(1));
    return false;
  });
  w.lci.device(1).set_am_handler([](Request&&) {});
  ASSERT_EQ(w.lci.device(0).sends(1, 1, "x", 1), Status::Ok);
  w.eng.run();
  prog.wake();
  w.eng.run();
  EXPECT_GT(prog.busy_time(), 0);
}

TEST(Mlci, VirtualPayloadDirectTransfer) {
  World w(2);
  CompQueue cq;
  ASSERT_EQ(w.lci.device(1).recvd(0, 7, nullptr, 1 << 22, Comp::queue(&cq)),
            Status::Ok);
  ASSERT_EQ(w.lci.device(0).sendd(1, 7, nullptr, 1 << 22, Comp::none()),
            Status::Ok);
  w.run();
  auto rc = cq.poll();
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->size, static_cast<std::size_t>(1 << 22));
}

// Multiple concurrent direct transfers with distinct tags complete exactly
// once each, independent of ordering.
class MlciConcurrentDirect : public ::testing::TestWithParam<int> {};

TEST_P(MlciConcurrentDirect, AllTransfersCompleteOnce) {
  const int count = GetParam();
  World w(2);
  CompQueue cq;
  std::vector<std::vector<char>> srcs, dsts;
  for (int i = 0; i < count; ++i) {
    srcs.emplace_back(static_cast<std::size_t>(512 + i * 64),
                      static_cast<char>('A' + i % 26));
    dsts.emplace_back(srcs.back().size(), 0);
  }
  for (int i = 0; i < count; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ASSERT_EQ(w.lci.device(1).recvd(0, static_cast<mlci::Tag>(i),
                                    dsts[ui].data(), dsts[ui].size(),
                                    Comp::queue(&cq)),
              Status::Ok);
  }
  for (int i = 0; i < count; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ASSERT_EQ(w.lci.device(0).sendd(1, static_cast<mlci::Tag>(i),
                                    srcs[ui].data(), srcs[ui].size(),
                                    Comp::none()),
              Status::Ok);
  }
  w.run();
  int completions = 0;
  while (auto rc = cq.poll()) {
    ++completions;
    const auto i = static_cast<std::size_t>(rc->tag);
    EXPECT_EQ(rc->size, dsts[i].size());
    EXPECT_EQ(dsts[i][0], srcs[i][0]);
  }
  EXPECT_EQ(completions, count);
}

INSTANTIATE_TEST_SUITE_P(Counts, MlciConcurrentDirect,
                         ::testing::Values(1, 4, 16, 64));

}  // namespace

// --- native one-sided put (§7 future-work feature) --------------------------

namespace {

TEST(MlciNativePut, WritesDataAndDeliversImmediate) {
  World w(2);
  std::vector<char> src(32 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 7 + 1);
  }
  std::vector<char> dst(src.size(), 0);
  std::string imm_seen;
  std::size_t size_seen = 0;
  w.lci.device(1).set_put_handler([&](Request&& r) {
    imm_seen.assign(reinterpret_cast<const char*>(r.payload->data()),
                    r.payload->size());
    size_seen = r.size;
  });
  Synchronizer local;
  ASSERT_EQ(w.lci.device(0).putd(
                1, 9, src.data(), src.size(),
                reinterpret_cast<std::uint64_t>(dst.data()),
                Comp::sync(&local), "imm!", 4),
            Status::Ok);
  w.run();
  EXPECT_TRUE(local.test());
  EXPECT_EQ(imm_seen, "imm!");
  EXPECT_EQ(size_seen, src.size());
  EXPECT_EQ(0, std::memcmp(dst.data(), src.data(), src.size()));
}

TEST(MlciNativePut, VirtualPayloadDeliversSizeOnly) {
  World w(2);
  std::size_t size_seen = 0;
  w.lci.device(1).set_put_handler(
      [&](Request&& r) { size_seen = r.size; });
  ASSERT_EQ(w.lci.device(0).putd(1, 2, nullptr, 1 << 20, 0, Comp::none(),
                                 "x", 1),
            Status::Ok);
  w.run();
  EXPECT_EQ(size_seen, static_cast<std::size_t>(1 << 20));
}

TEST(MlciNativePut, UsesOneWireMessage) {
  World w(2);
  w.lci.device(1).set_put_handler([](Request&&) {});
  ASSERT_EQ(w.lci.device(0).putd(1, 3, nullptr, 64 * 1024, 0, Comp::none(),
                                 "y", 1),
            Status::Ok);
  w.run();
  // One message, versus four (handshake + RTS + CTS + DATA) for the
  // emulated rendezvous path.
  EXPECT_EQ(w.fab.total_messages(), 1u);
}

TEST(MlciNativePut, RespectsDirectSlotBackpressure) {
  mlci::Config cfg;
  cfg.direct_slots = 1;
  World w(2, cfg);
  w.lci.device(1).set_put_handler([](Request&&) {});
  EXPECT_EQ(w.lci.device(0).putd(1, 1, nullptr, 1024, 0, Comp::none(),
                                 "a", 1),
            Status::Ok);
  EXPECT_EQ(w.lci.device(0).putd(1, 2, nullptr, 1024, 0, Comp::none(),
                                 "b", 1),
            Status::Retry);
  w.run();  // slot returns at egress completion
  EXPECT_EQ(w.lci.device(0).putd(1, 2, nullptr, 1024, 0, Comp::none(),
                                 "b", 1),
            Status::Ok);
  w.run();
}

}  // namespace

// --- fail-stop peer death ----------------------------------------------------

namespace {

// Runs the engine to completion while only the devices in `live` make
// progress: a device left out never handles its hardware queue, so RTS and
// CTS frames addressed to it wedge the operations that wait on its answer.
void run_progressing(World& w, std::initializer_list<int> live) {
  do {
    for (const int r : live) mlci::progress(w.lci.device(r));
  } while (w.eng.step());
  for (const int r : live) mlci::progress(w.lci.device(r));
}

TEST(MlciPeerFailed, CompletesWedgedSendsInOrderDropsRecvsAndStalesIds) {
  World w(3);
  Device& d0 = w.lci.device(0);
  Device& d1 = w.lci.device(1);  // dies: never progresses
  Device& d2 = w.lci.device(2);
  const int slots = d0.free_direct_slots();

  // Three transfers to node 2 complete in submission order, so their
  // slots come back in that order and the next sends reuse them in
  // reverse: the wedged sends below sit in slots out of submission order.
  std::vector<char> sink(64);
  for (mlci::Tag t = 1; t <= 3; ++t) {
    ASSERT_EQ(d2.recvd(0, t, sink.data(), sink.size(), Comp::none()),
              Status::Ok);
    ASSERT_EQ(d0.sendd(2, t, "abc", 3, Comp::none()), Status::Ok);
  }
  run_progressing(w, {0, 2});
  ASSERT_EQ(d0.free_direct_slots(), slots);

  // Four sends to node 1 wait for a CTS that never comes.
  CompQueue send_cq;
  int ctx[4] = {};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(d0.sendd(1, static_cast<mlci::Tag>(10 + i), "xyz", 3,
                       Comp::queue(&send_cq), &ctx[i]),
              Status::Ok);
  }
  // One receive from node 1 is matched (its CTS is queued at node 1, so
  // DATA never follows); another is only posted.
  CompQueue recv_cq;
  std::vector<char> matched(64), posted(64);
  ASSERT_EQ(d0.recvd(1, 20, matched.data(), matched.size(),
                     Comp::queue(&recv_cq)),
            Status::Ok);
  ASSERT_EQ(d0.recvd(1, 21, posted.data(), posted.size(),
                     Comp::queue(&recv_cq)),
            Status::Ok);
  ASSERT_EQ(d1.sendd(0, 20, "m", 1, Comp::none()), Status::Ok);
  run_progressing(w, {0, 2});
  ASSERT_EQ(d0.free_direct_slots(), slots - 6);

  const Device::PurgeResult res = d0.peer_failed(1);
  EXPECT_EQ(res.sends, 4u);
  EXPECT_EQ(res.recvs, 2u);
  EXPECT_EQ(d0.free_direct_slots(), slots);
  EXPECT_EQ(d0.peer_failed(1).sends, 0u);  // idempotent

  // SendDone goes through the hardware CQ: nothing before progress(),
  // then every wedged send once, in submission order.
  EXPECT_EQ(send_cq.size(), 0u);
  mlci::progress(d0);
  for (int i = 0; i < 4; ++i) {
    const auto c = send_cq.poll();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->type, Request::Type::SendDone);
    EXPECT_EQ(c->peer, 1);
    EXPECT_EQ(c->tag, static_cast<mlci::Tag>(10 + i));
    EXPECT_EQ(c->user_context, &ctx[i]);
  }
  EXPECT_FALSE(send_cq.poll().has_value());
  EXPECT_EQ(recv_cq.size(), 0u);  // dropped receives never complete

  // New operations toward node 2 take every freed slot and stay wedged
  // (node 2 stops progressing): four sends awaiting CTS and one matched
  // receive awaiting DATA.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(d0.sendd(2, static_cast<mlci::Tag>(30 + i), "new", 3,
                       Comp::none()),
              Status::Ok);
  }
  ASSERT_EQ(d0.recvd(2, 40, matched.data(), matched.size(), Comp::none()),
            Status::Ok);
  ASSERT_EQ(d2.sendd(0, 40, "n", 1, Comp::none()), Status::Ok);
  run_progressing(w, {0});
  ASSERT_EQ(d0.free_direct_slots(), slots - 5);

  // If node 1 came back and answered, the ids it echoes were issued
  // before the purge.  They must miss instead of driving the operations
  // now in their slots.
  EXPECT_DEATH(
      {
        std::vector<char> back(64);
        for (mlci::Tag t = 10; t < 14; ++t) {
          (void)d1.recvd(0, t, back.data(), back.size(), Comp::none());
        }
        run_progressing(w, {0, 1});
      },
      "unknown direct send|DATA without matched recv");
}

}  // namespace
