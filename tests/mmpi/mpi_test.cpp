#include "mmpi/mpi.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "net/fabric.hpp"

namespace {

using des::Engine;
using mmpi::kAnySource;
using mmpi::Mpi;
using mmpi::MpiStatus;
using mmpi::Rank;
using mmpi::RequestId;

struct World {
  Engine eng;
  net::Fabric fab;
  Mpi mpi;
  explicit World(int nodes, mmpi::Config cfg = {})
      : fab(eng, nodes), mpi(fab, cfg) {}

  // Drives the engine until `req` on `rank` completes (polling like a real
  // progress loop, but from the test driver).
  bool wait(int rank, RequestId req, MpiStatus* st = nullptr) {
    for (int spins = 0; spins < 100000; ++spins) {
      if (mpi.rank(rank).test(req, st)) return true;
      // Every rank progresses, as real processes polling MPI would.
      for (int r = 0; r < mpi.size(); ++r) {
        if (r != rank) mpi.rank(r).poll();
      }
      if (!eng.step()) {
        for (int r = 0; r < mpi.size(); ++r) mpi.rank(r).poll();
        return mpi.rank(rank).test(req, st);
      }
    }
    return false;
  }
};

TEST(Mmpi, EagerSendRecvDeliversData) {
  World w(2);
  const std::string text = "hello, rank 1";
  std::array<char, 64> buf{};
  const RequestId r = w.mpi.rank(1).irecv(buf.data(), buf.size(), 0, /*tag=*/7);
  w.mpi.rank(0).send(text.data(), text.size(), 1, 7);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, r, &st));
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 7u);
  EXPECT_EQ(st.count, text.size());
  EXPECT_EQ(std::string(buf.data(), st.count), text);
}

TEST(Mmpi, RecvBeforeSendMatches) {
  World w(2);
  std::array<char, 16> buf{};
  const RequestId r = w.mpi.rank(1).irecv(buf.data(), buf.size(), 0, 3);
  w.eng.run();  // nothing to do yet
  w.mpi.rank(0).send("abc", 3, 1, 3);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, r, &st));
  EXPECT_EQ(st.count, 3u);
}

TEST(Mmpi, SendBeforeRecvGoesThroughUnexpectedQueue) {
  World w(2);
  w.mpi.rank(0).send("xyz", 3, 1, 9);
  w.eng.run();  // message delivered, sits unmatched
  // Force the receiver to notice it (progress happens inside MPI calls).
  std::array<char, 16> buf{};
  const RequestId r = w.mpi.rank(1).irecv(buf.data(), buf.size(), 0, 9);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, r, &st));
  EXPECT_EQ(std::string(buf.data(), 3), "xyz");
}

TEST(Mmpi, AnySourceMatchesAnySender) {
  World w(3);
  std::array<char, 16> buf{};
  const RequestId r =
      w.mpi.rank(2).irecv(buf.data(), buf.size(), kAnySource, 5);
  w.mpi.rank(1).send("from1", 5, 2, 5);
  MpiStatus st;
  ASSERT_TRUE(w.wait(2, r, &st));
  EXPECT_EQ(st.source, 1);
  EXPECT_EQ(std::string(buf.data(), 5), "from1");
}

TEST(Mmpi, TagsKeepMessagesApart) {
  World w(2);
  std::array<char, 8> buf_a{}, buf_b{};
  const RequestId ra = w.mpi.rank(1).irecv(buf_a.data(), 8, 0, 100);
  const RequestId rb = w.mpi.rank(1).irecv(buf_b.data(), 8, 0, 200);
  w.mpi.rank(0).send("BBB", 3, 1, 200);
  w.mpi.rank(0).send("AAA", 3, 1, 100);
  ASSERT_TRUE(w.wait(1, ra, nullptr));
  ASSERT_TRUE(w.wait(1, rb, nullptr));
  EXPECT_EQ(std::string(buf_a.data(), 3), "AAA");
  EXPECT_EQ(std::string(buf_b.data(), 3), "BBB");
}

TEST(Mmpi, SameTagMatchesInSendOrder) {
  World w(2);
  std::array<char, 8> b1{}, b2{};
  const RequestId r1 = w.mpi.rank(1).irecv(b1.data(), 8, 0, 1);
  const RequestId r2 = w.mpi.rank(1).irecv(b2.data(), 8, 0, 1);
  w.mpi.rank(0).send("first", 5, 1, 1);
  w.mpi.rank(0).send("secnd", 5, 1, 1);
  ASSERT_TRUE(w.wait(1, r1, nullptr));
  ASSERT_TRUE(w.wait(1, r2, nullptr));
  EXPECT_EQ(std::string(b1.data(), 5), "first");
  EXPECT_EQ(std::string(b2.data(), 5), "secnd");
}

TEST(Mmpi, RendezvousTransfersLargeMessage) {
  mmpi::Config cfg;
  cfg.eager_threshold = 1024;
  World w(2, cfg);
  std::vector<char> big(100 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  std::vector<char> dst(big.size());
  const RequestId rr = w.mpi.rank(1).irecv(dst.data(), dst.size(), 0, 42);
  const RequestId rs =
      w.mpi.rank(0).isend(big.data(), big.size(), 1, 42);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, rr, &st));
  EXPECT_EQ(st.count, big.size());
  EXPECT_EQ(0, std::memcmp(dst.data(), big.data(), big.size()));
  ASSERT_TRUE(w.wait(0, rs, nullptr));
}

TEST(Mmpi, RendezvousUnexpectedRtsMatchesLater) {
  mmpi::Config cfg;
  cfg.eager_threshold = 64;
  World w(2, cfg);
  std::vector<char> big(4096, 'z');
  const RequestId rs = w.mpi.rank(0).isend(big.data(), big.size(), 1, 8);
  w.eng.run();  // RTS delivered, no posted recv
  std::vector<char> dst(4096);
  const RequestId rr = w.mpi.rank(1).irecv(dst.data(), dst.size(), 0, 8);
  ASSERT_TRUE(w.wait(1, rr, nullptr));
  EXPECT_EQ(dst[100], 'z');
  ASSERT_TRUE(w.wait(0, rs, nullptr));
}

TEST(Mmpi, SenderBufferReusableAfterEagerSend) {
  World w(2);
  std::vector<char> buf(32, 'p');
  std::array<char, 32> dst{};
  const RequestId r = w.mpi.rank(1).irecv(dst.data(), 32, 0, 4);
  w.mpi.rank(0).send(buf.data(), buf.size(), 1, 4);
  std::fill(buf.begin(), buf.end(), 'q');  // reuse immediately
  ASSERT_TRUE(w.wait(1, r, nullptr));
  EXPECT_EQ(dst[0], 'p');
}

TEST(Mmpi, PersistentRecvRestartReceivesAgain) {
  World w(2);
  std::array<char, 16> buf{};
  const RequestId r = w.mpi.rank(1).recv_init(buf.data(), 16, kAnySource, 11);
  for (int round = 0; round < 3; ++round) {
    w.mpi.rank(1).start(r);
    const std::string payload = "round" + std::to_string(round);
    w.mpi.rank(0).send(payload.data(), payload.size(), 1, 11);
    MpiStatus st;
    ASSERT_TRUE(w.wait(1, r, &st)) << "round " << round;
    EXPECT_EQ(std::string(buf.data(), st.count), payload);
  }
  w.mpi.rank(1).free_request(r);
}

TEST(Mmpi, TestsomeReportsOnlyCompleted) {
  World w(2);
  std::array<char, 8> b1{}, b2{};
  const RequestId r1 = w.mpi.rank(1).irecv(b1.data(), 8, 0, 1);
  const RequestId r2 = w.mpi.rank(1).irecv(b2.data(), 8, 0, 2);
  w.mpi.rank(0).send("one", 3, 1, 1);
  w.eng.run();
  const std::array<RequestId, 3> reqs{r1, r2, mmpi::kNullRequest};
  auto res = w.mpi.rank(1).testsome(reqs);
  ASSERT_EQ(res.indices.size(), 1u);
  EXPECT_EQ(res.indices[0], 0u);
  EXPECT_EQ(res.statuses[0].tag, 1u);
  // r2 still pending.
  res = w.mpi.rank(1).testsome(reqs);
  EXPECT_TRUE(res.indices.empty());
  w.mpi.rank(0).send("two", 3, 1, 2);
  w.eng.run();
  res = w.mpi.rank(1).testsome(reqs);
  ASSERT_EQ(res.indices.size(), 1u);
  EXPECT_EQ(res.indices[0], 1u);
}

TEST(Mmpi, TestsomeResetsPersistentToInactive) {
  World w(2);
  std::array<char, 8> buf{};
  const RequestId r = w.mpi.rank(1).recv_init(buf.data(), 8, 0, 1);
  w.mpi.rank(1).start(r);
  w.mpi.rank(0).send("hi", 2, 1, 1);
  w.eng.run();
  const std::array<RequestId, 1> reqs{r};
  auto res = w.mpi.rank(1).testsome(reqs);
  ASSERT_EQ(res.indices.size(), 1u);
  // Inactive now: another testsome does not re-report it.
  res = w.mpi.rank(1).testsome(reqs);
  EXPECT_TRUE(res.indices.empty());
  // And it can be started again.
  w.mpi.rank(1).start(r);
  w.mpi.rank(0).send("yo", 2, 1, 1);
  w.eng.run();
  res = w.mpi.rank(1).testsome(reqs);
  EXPECT_EQ(res.indices.size(), 1u);
}

TEST(Mmpi, NoProgressWithoutMpiCalls) {
  World w(2);
  w.mpi.rank(0).send("hi", 2, 1, 1);
  w.eng.run();
  // Message was delivered by hardware but never matched by software.
  EXPECT_EQ(w.mpi.rank(1).pending_incoming(), 1u);
  std::array<char, 8> buf{};
  const RequestId r = w.mpi.rank(1).irecv(buf.data(), 8, 0, 1);
  // irecv posts but does not drain the hardware queue; test() progresses.
  EXPECT_TRUE(w.mpi.rank(1).test(r, nullptr));
  EXPECT_EQ(w.mpi.rank(1).pending_incoming(), 0u);
}

TEST(Mmpi, VirtualPayloadCompletesWithoutData) {
  World w(2);
  const RequestId r = w.mpi.rank(1).irecv(nullptr, 1 << 20, 0, 6);
  const RequestId s = w.mpi.rank(0).isend(nullptr, 1 << 20, 1, 6);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, r, &st));
  EXPECT_EQ(st.count, static_cast<std::size_t>(1 << 20));
  ASSERT_TRUE(w.wait(0, s, nullptr));
}

TEST(Mmpi, SoftwareOverheadChargedToCallingThread) {
  World w(2);
  des::SimThread comm(w.eng, "comm");
  bool checked = false;
  comm.post([&] {
    w.mpi.rank(0).send("hi", 2, 1, 1);
    checked = true;
  });
  w.eng.run();
  ASSERT_TRUE(checked);
  EXPECT_GT(comm.busy_time(), 0);
}

TEST(Mmpi, ThreadSwitchCostChargedOnAlternatingCallers) {
  // The §6.4.3 contention model: alternating calling threads pay the
  // global-lock hand-off; a single steady caller does not.
  World w(2);
  des::SimThread a(w.eng, "a"), b(w.eng, "b");
  const auto run_pattern = [&](bool alternate) {
    des::Duration before = a.busy_time() + b.busy_time();
    for (int i = 0; i < 10; ++i) {
      des::SimThread& th = (alternate && i % 2 == 1) ? b : a;
      th.post([&w] { w.mpi.rank(0).poll(); });
      w.eng.run();
    }
    return (a.busy_time() + b.busy_time()) - before;
  };
  const des::Duration steady = run_pattern(false);
  const des::Duration alternating = run_pattern(true);
  EXPECT_GT(alternating, steady);
  // Roughly one switch cost per alternation (9 hand-offs after warm-up).
  EXPECT_GE(alternating - steady,
            8 * mmpi::Config{}.thread_switch_cost);
}

TEST(Mmpi, RendezvousLatencyExceedsEagerForSmallVsLarge) {
  mmpi::Config cfg;
  cfg.eager_threshold = 1024;
  World w(2, cfg);
  // Eager message round.
  const RequestId re = w.mpi.rank(1).irecv(nullptr, 512, 0, 1);
  w.mpi.rank(0).send(nullptr, 512, 1, 1);
  const des::Time t0 = w.eng.now();
  ASSERT_TRUE(w.wait(1, re, nullptr));
  const des::Time eager_latency = w.eng.now() - t0;
  // Rendezvous needs RTS+CTS first: same payload size, higher latency.
  const des::Time t1 = w.eng.now();
  const RequestId rr = w.mpi.rank(1).irecv(nullptr, 2048, 0, 2);
  const RequestId rs = w.mpi.rank(0).isend(nullptr, 2048, 1, 2);
  ASSERT_TRUE(w.wait(1, rr, nullptr));
  const des::Time rndv_latency = w.eng.now() - t1;
  EXPECT_GT(rndv_latency, eager_latency);
  ASSERT_TRUE(w.wait(0, rs, nullptr));
}

// Request ids name a slot plus its generation.  Once a request is freed
// its slot is reused, and the old id must miss: it may not cancel, free
// or test the slot's new occupant.
TEST(Mmpi, StaleIdNeverTouchesRecycledSlot) {
  World w(2);
  Rank& r1 = w.mpi.rank(1);
  std::array<char, 8> buf{};
  const RequestId stale = r1.recv_init(buf.data(), buf.size(), 0, 1);
  r1.free_request(stale);
  const RequestId fresh = r1.irecv(buf.data(), buf.size(), 0, 2);
  EXPECT_NE(fresh, stale);
  EXPECT_EQ(fresh & 0xFFFF'FFFFu, stale & 0xFFFF'FFFFu) << "slot not reused";

  r1.cancel(stale);        // would unpost `fresh` if it hit
  r1.free_request(stale);  // would assert: `fresh` is Active
  MpiStatus st;
  st.tag = 99;
  EXPECT_TRUE(r1.test(stale, &st));  // reads as a null request
  EXPECT_EQ(st.tag, 0u);
  EXPECT_EQ(st.source, kAnySource);

  w.mpi.rank(0).send("ok", 2, 1, 2);
  ASSERT_TRUE(w.wait(1, fresh, &st));
  EXPECT_EQ(st.tag, 2u);
  EXPECT_EQ(std::string(buf.data(), st.count), "ok");
}

TEST(Mmpi, PurgePeerSkipsFreedSlotsAndSparesOthers) {
  World w(3);
  Rank& r2 = w.mpi.rank(2);
  std::array<char, 8> from0{}, from1{}, any{};
  const RequestId dead_recv = r2.irecv(from0.data(), 8, 0, 1);
  const RequestId live_recv = r2.irecv(from1.data(), 8, 1, 1);
  const RequestId freed = r2.recv_init(nullptr, 8, 0, 5);
  r2.free_request(freed);  // a hole between live slots
  const RequestId wildcard = r2.irecv(any.data(), 8, kAnySource, 2);
  const RequestId dead_send = r2.isend(nullptr, 1 << 20, 0, 3);  // rendezvous
  const RequestId inactive = r2.recv_init(nullptr, 8, 0, 4);
  const RequestId done_send = r2.isend("x", 1, 0, 6);  // eager: complete

  // Only Active requests wedged on rank 0 go: its receive and its
  // rendezvous send.  Wildcards, inactive and complete requests stay.
  EXPECT_EQ(r2.purge_peer(0), 2u);
  EXPECT_EQ(r2.purge_peer(0), 0u);

  // The purged receive is unposted: rank 0's message now waits unmatched.
  w.mpi.rank(0).send("zero", 4, 2, 1);
  w.mpi.rank(1).send("one", 3, 2, 1);
  w.mpi.rank(1).send("any", 3, 2, 2);
  MpiStatus st;
  ASSERT_TRUE(w.wait(2, live_recv, &st));
  EXPECT_EQ(std::string(from1.data(), st.count), "one");
  ASSERT_TRUE(w.wait(2, wildcard, &st));
  EXPECT_EQ(std::string(any.data(), st.count), "any");
  EXPECT_EQ(from0[0], '\0');
  EXPECT_TRUE(r2.test(dead_recv, nullptr));  // gone: a null request
  EXPECT_TRUE(r2.test(dead_send, nullptr));
  EXPECT_TRUE(r2.test(done_send, nullptr));
  r2.start(inactive);  // still a live persistent request
  r2.cancel(inactive);
}

// The out-parameter testsome reports exactly what the value form does,
// skipping kNullRequest entries, and overwrites what `out` held.
TEST(Mmpi, TestsomeOutParamMatchesValueForm) {
  const auto run = [](bool out_param) {
    World w(2);
    Rank& r1 = w.mpi.rank(1);
    std::array<char, 8> b1{}, b2{}, b3{};
    const RequestId q1 = r1.irecv(b1.data(), 8, 0, 1);
    const RequestId q2 = r1.irecv(b2.data(), 8, 0, 2);
    const RequestId q3 = r1.irecv(b3.data(), 8, 0, 3);
    w.mpi.rank(0).send("a", 1, 1, 1);
    w.mpi.rank(0).send("ccc", 3, 1, 3);
    w.eng.run();
    const std::array<RequestId, 5> reqs{mmpi::kNullRequest, q1, q2,
                                        mmpi::kNullRequest, q3};
    if (!out_param) return r1.testsome(reqs);
    Rank::TestsomeResult out;
    out.indices = {7, 7, 7};
    out.statuses.resize(3);
    r1.testsome(reqs, out);
    return out;
  };
  const Rank::TestsomeResult by_value = run(false);
  const Rank::TestsomeResult by_out = run(true);
  ASSERT_EQ(by_value.indices, (std::vector<std::size_t>{1, 4}));
  ASSERT_EQ(by_out.indices, by_value.indices);
  ASSERT_EQ(by_out.statuses.size(), by_value.statuses.size());
  for (std::size_t k = 0; k < by_out.statuses.size(); ++k) {
    EXPECT_EQ(by_out.statuses[k].source, by_value.statuses[k].source);
    EXPECT_EQ(by_out.statuses[k].tag, by_value.statuses[k].tag);
    EXPECT_EQ(by_out.statuses[k].count, by_value.statuses[k].count);
  }
  EXPECT_EQ(by_out.statuses[1].count, 3u);
}

// testsome skips its host scan while no completion is unreported; a
// completion testsome was not asked about must keep the count up, and so
// must completions observed at a send's local CQ write (rendezvous, and a
// persistent send whose transfer runs through a temporary request).
TEST(Mmpi, CompletionOutsideTheArrayIsReportedLater) {
  mmpi::Config cfg;
  cfg.eager_threshold = 64;
  World w(2, cfg);
  Rank& r1 = w.mpi.rank(1);
  std::array<char, 8> b1{}, b2{};
  const RequestId q1 = r1.irecv(b1.data(), 8, 0, 1);
  const RequestId q2 = r1.irecv(b2.data(), 8, 0, 2);
  w.mpi.rank(0).send("one", 3, 1, 1);
  w.mpi.rank(0).send("two", 3, 1, 2);
  w.eng.run();

  const std::array<RequestId, 1> only_q1{q1};
  auto res = r1.testsome(only_q1);
  ASSERT_EQ(res.indices.size(), 1u);
  const std::array<RequestId, 1> none{mmpi::kNullRequest};
  EXPECT_TRUE(r1.testsome(none).indices.empty());
  const std::array<RequestId, 2> both{q1, q2};  // q1 is freed by now
  res = r1.testsome(both);
  ASSERT_EQ(res.indices, (std::vector<std::size_t>{1}));
  EXPECT_EQ(res.statuses[0].tag, 2u);

  // Rendezvous: the send completes when its data leaves the NIC.
  Rank& r0 = w.mpi.rank(0);
  const RequestId rr = r1.irecv(nullptr, 4096, 0, 3);
  const RequestId rs = r0.isend(nullptr, 4096, 1, 3);
  ASSERT_TRUE(w.wait(1, rr, nullptr));
  w.eng.run();
  const std::array<RequestId, 1> send_arr{rs};
  EXPECT_EQ(r0.testsome(send_arr).indices.size(), 1u);

  // Persistent rendezvous send: completion reaches the persistent id.
  const RequestId ps = r0.send_init(nullptr, 4096, 1, 4);
  const RequestId pr = r1.irecv(nullptr, 4096, 0, 4);
  r0.start(ps);
  ASSERT_TRUE(w.wait(1, pr, nullptr));
  w.eng.run();
  const std::array<RequestId, 1> ps_arr{ps};
  EXPECT_EQ(r0.testsome(ps_arr).indices.size(), 1u);
  EXPECT_TRUE(r0.testsome(ps_arr).indices.empty());  // Inactive again
  r0.free_request(ps);
}

// Parameterized sweep across message sizes spanning the eager/rendezvous
// boundary: payload integrity must hold for every size.
class MmpiSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MmpiSizeSweep, PayloadIntegrity) {
  mmpi::Config cfg;
  cfg.eager_threshold = 8192;
  World w(2, cfg);
  const std::size_t n = GetParam();
  std::vector<char> src(n), dst(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<char>(i * 31 + 7);
  }
  const RequestId rr = w.mpi.rank(1).irecv(dst.data(), n, 0, 77);
  const RequestId rs = w.mpi.rank(0).isend(src.data(), n, 1, 77);
  MpiStatus st;
  ASSERT_TRUE(w.wait(1, rr, &st));
  EXPECT_EQ(st.count, n);
  EXPECT_EQ(0, std::memcmp(src.data(), dst.data(), n));
  ASSERT_TRUE(w.wait(0, rs, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MmpiSizeSweep,
                         ::testing::Values(1, 64, 4096, 8192, 8193, 65536,
                                           1 << 20));

// Many-to-one property test: every message must be received exactly once,
// regardless of arrival interleaving, with ANY_SOURCE receives.
class MmpiManyToOne : public ::testing::TestWithParam<int> {};

TEST_P(MmpiManyToOne, AllMessagesMatchedOnce) {
  const int senders = GetParam();
  World w(senders + 1);
  const int recv_rank = senders;
  constexpr int kPerSender = 10;
  std::vector<std::array<char, 16>> bufs(
      static_cast<std::size_t>(senders * kPerSender));
  std::vector<RequestId> reqs;
  for (auto& b : bufs) {
    reqs.push_back(w.mpi.rank(recv_rank).irecv(b.data(), 16, kAnySource, 1));
  }
  for (int s = 0; s < senders; ++s) {
    for (int i = 0; i < kPerSender; ++i) {
      char payload[16];
      std::snprintf(payload, sizeof payload, "s%02d-%02d", s, i);
      w.mpi.rank(s).send(payload, 8, recv_rank, 1);
    }
  }
  w.eng.run();
  auto res = w.mpi.rank(recv_rank).testsome(reqs);
  EXPECT_EQ(res.indices.size(), bufs.size());
  // Each sender's messages must appear in order.
  std::vector<int> last_seen(static_cast<std::size_t>(senders), -1);
  for (const auto& b : bufs) {
    int s = 0, i = 0;
    ASSERT_EQ(2, std::sscanf(b.data(), "s%d-%d", &s, &i));
    EXPECT_EQ(last_seen[static_cast<std::size_t>(s)], i - 1)
        << "per-sender FIFO violated";
    last_seen[static_cast<std::size_t>(s)] = i;
  }
}

INSTANTIATE_TEST_SUITE_P(Senders, MmpiManyToOne, ::testing::Values(2, 5, 9));

}  // namespace
