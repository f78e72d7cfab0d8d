// End-to-end reliability sublayer (ce/reliable): checksum primitives,
// backoff policy, and — against both backends — exactly-once delivery under
// injected drops / duplicates / corruption, recoverable timeouts, and zero
// overhead accounting on a clean fabric.
#include "ce/reliable.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "ce/comm_engine.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/rng.hpp"
#include "des/sim_thread.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"

namespace {

using ce::BackendKind;
using ce::CeConfig;
using ce::CommWorld;
using ce::Tag;

constexpr Tag kPing = 1;

// ---------------------------------------------------------------------------
// Primitives

TEST(Crc32c, KnownVector) {
  // The canonical CRC-32C check value.
  EXPECT_EQ(ce::crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, SeedChainsMultiBufferChecksums) {
  const char data[] = "the quick brown fox";
  const auto whole = ce::crc32c(data, sizeof data - 1);
  const auto first = ce::crc32c(data, 9);
  const auto chained = ce::crc32c(data + 9, sizeof data - 1 - 9, first);
  EXPECT_EQ(chained, whole);
  EXPECT_NE(first, whole);
}

TEST(Crc32c, PortableTableMatchesDispatchedPath) {
  EXPECT_EQ(ce::detail::crc32c_portable("123456789", 9), 0xE3069283u);
  // 100,000 random buffers: random bytes, lengths 0-600 (not only
  // multiples of 8), start offsets 0-7 and seeds, each also checked as a
  // two-buffer chain.
  des::Rng rng(20231017);
  std::vector<unsigned char> buf(600 + 8);
  for (int trial = 0; trial < 100'000; ++trial) {
    const std::size_t off = rng.below(8);
    const std::size_t len = rng.below(601);
    const auto seed = static_cast<std::uint32_t>(rng());
    for (std::size_t b = 0; b < off + len; b += 8) {
      const std::uint64_t word = rng();
      std::memcpy(buf.data() + b, &word, sizeof word);
    }
    const unsigned char* p = buf.data() + off;
    const std::uint32_t hw = ce::crc32c(p, len, seed);
    ASSERT_EQ(ce::detail::crc32c_portable(p, len, seed), hw)
        << "len " << len << " offset " << off << " seed " << seed;
    const std::size_t cut = rng.below(len + 1);
    ASSERT_EQ(ce::crc32c(p + cut, len - cut, ce::crc32c(p, cut, seed)), hw);
    ASSERT_EQ(ce::detail::crc32c_portable(
                  p + cut, len - cut,
                  ce::detail::crc32c_portable(p, cut, seed)),
              hw);
  }
}

TEST(MessageCrc, CoversHeaderAndPayload) {
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.wire_bytes = 128;
  m.hdr.tag = 42;
  m.hdr.rel_seq = 7;
  const char body[] = "payload-bytes";
  m.payload = net::make_payload(body, sizeof body);
  const auto base = ce::message_crc(m);

  net::Message imm = m;
  imm.hdr.imm[3] ^= 1ULL << 17;  // what in-flight corruption flips
  EXPECT_NE(ce::message_crc(imm), base);

  net::Message pay = m;
  auto copy = std::make_shared<std::vector<std::byte>>(*m.payload);
  (*copy)[3] ^= std::byte{0x10};
  pay.payload = copy;
  EXPECT_NE(ce::message_crc(pay), base);

  net::Message seq = m;
  seq.hdr.rel_seq = 8;
  EXPECT_NE(ce::message_crc(seq), base);
}

// The receive window, driven frame by frame through node 1's shim: an
// in-order frame advances the cumulative mark, frames past a gap wait
// out of order, the gap fill releases them, and every copy at or below
// the mark or already waiting is a duplicate.
TEST(ReceiveWindow, OutOfOrderThenGapFillThenDuplicates) {
  des::Engine eng;
  net::Fabric fab(eng, 2);
  ce::ReliableDomain dom(fab, ce::ReliableConfig{});
  net::LinkShim& rx = *fab.nic(1).shim();
  // True when the frame goes up to the library (first copy).
  const auto first_copy = [&rx](std::uint64_t seq) {
    net::Message m;
    m.src = 0;
    m.dst = 1;
    m.hdr.rel_seq = seq;
    m.hdr.rel_crc = ce::message_crc(m);
    return !rx.shim_deliver(m);
  };
  EXPECT_TRUE(first_copy(1));   // in order
  EXPECT_TRUE(first_copy(3));   // past the gap at 2
  EXPECT_TRUE(first_copy(4));
  EXPECT_FALSE(first_copy(3));  // waiting out of order
  EXPECT_TRUE(first_copy(2));   // fills the gap: 3 and 4 follow
  EXPECT_FALSE(first_copy(3));  // now at or below the mark
  EXPECT_FALSE(first_copy(4));
  EXPECT_FALSE(first_copy(1));
  EXPECT_TRUE(first_copy(5));   // in order again
  EXPECT_FALSE(first_copy(5));
  EXPECT_EQ(dom.stats().duplicates_suppressed, 5u);
  EXPECT_EQ(dom.stats().acks_sent, 10u);  // every copy is ACKed
}

TEST(Backoff, GrowsExponentiallyUnderCapWithJitter) {
  ce::Backoff b;  // base 1 us, cap 64 us, factor 2, jitter 0.25
  des::Rng rng(7);
  des::Duration prev = 0;
  for (int i = 0; i < 12; ++i) {
    const des::Duration d = b.next(rng);
    EXPECT_GE(d, prev / 4) << "not collapsing";  // jitter can wiggle
    // Never above cap * (1 + jitter).
    EXPECT_LE(d, static_cast<des::Duration>(64 * des::kMicrosecond * 1.25));
    EXPECT_GE(d, 1 * des::kMicrosecond);
    prev = d;
  }
  EXPECT_EQ(b.attempts(), 12);
  b.reset();
  EXPECT_EQ(b.attempts(), 0);
  EXPECT_LE(b.next(rng),
            static_cast<des::Duration>(1 * des::kMicrosecond * 1.25));
}

// ---------------------------------------------------------------------------
// Backend integration

/// CeWorld with a configurable fabric: reliability on by default.
struct RelWorld {
  des::Engine eng;
  net::Fabric fab;
  CommWorld world;
  std::deque<des::PollThread> threads;

  RelWorld(int nodes, BackendKind kind, net::FabricConfig fab_cfg,
           CeConfig cfg = make_reliable_cfg())
      : fab(eng, nodes, fab_cfg), world(fab, kind, cfg) {
    for (int n = 0; n < nodes; ++n) {
      auto& engine = world.engine(n);
      des::PollThread& th = threads.emplace_back(
          eng, "comm-" + std::to_string(n), 25,
          [&engine]() { return engine.progress() > 0; });
      engine.set_wake_callback([&th]() { th.wake(); });
      th.wake();
    }
  }

  static CeConfig make_reliable_cfg() {
    CeConfig cfg;
    cfg.reliable.enabled = true;
    return cfg;
  }

  void run() {
    for (auto& th : threads) th.wake();
    eng.run();
  }
};

class RelBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RelBackends, CleanFabricDeliversWithZeroFaultCounters) {
  RelWorld w(2, GetParam(), net::FabricConfig{});
  int got = 0;
  w.world.engine(1).tag_reg(
      kPing, [&](auto&&...) { ++got; }, nullptr, 64);
  w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(w.world.engine(0).send_am(kPing, 1, "x", 1), ce::Status::Ok);
  }
  w.run();
  EXPECT_EQ(got, 25);
  const ce::ReliableStats& rs = w.world.reliability()->stats();
  EXPECT_GE(rs.data_sent, 25u);
  EXPECT_EQ(rs.acks_sent, rs.data_sent);  // one ACK per tracked message
  EXPECT_EQ(rs.retransmits, 0u);
  EXPECT_EQ(rs.timeouts, 0u);
  EXPECT_EQ(rs.duplicates_suppressed, 0u);
  EXPECT_EQ(rs.nacks_sent, 0u);
  EXPECT_EQ(rs.corrupt_discarded, 0u);
  EXPECT_EQ(w.world.reliability()->unacked(), 0u);
}

TEST_P(RelBackends, ExactlyOnceDeliveryUnderChaos) {
  net::FabricConfig fc;
  fc.faults.drop_prob = 0.05;
  fc.faults.dup_prob = 0.05;
  fc.faults.corrupt_prob = 0.05;
  fc.faults.jitter_max = 2 * des::kMicrosecond;
  RelWorld w(2, GetParam(), fc);
  std::multiset<int> got;
  w.world.engine(1).tag_reg(
      kPing,
      [&](ce::CommEngine&, Tag, const void* msg, std::size_t size, int,
          void*) {
        ASSERT_EQ(size, sizeof(int));
        int v;
        std::memcpy(&v, msg, sizeof v);
        got.insert(v);
      },
      nullptr, 64);
  w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  const int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(w.world.engine(0).send_am(kPing, 1, &i, sizeof i),
              ce::Status::Ok);
  }
  w.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(got.count(i), 1u) << "message " << i << " not exactly-once";
  }
  const ce::ReliableStats& rs = w.world.reliability()->stats();
  EXPECT_GT(rs.retransmits, 0u);
  EXPECT_EQ(rs.timeouts, 0u) << "retry budget should ride out 5% faults";
  EXPECT_EQ(w.world.reliability()->unacked(), 0u);
  // Fabric saw real faults; the sublayer absorbed them.
  EXPECT_GT(w.fab.fault_stats().drops + w.fab.fault_stats().corruptions +
                w.fab.fault_stats().dups,
            0u);
}

TEST_P(RelBackends, InjectedDuplicatesAreSuppressed) {
  net::FabricConfig fc;
  fc.faults.dup_prob = 1.0;  // every wire message delivered twice
  RelWorld w(2, GetParam(), fc);
  int got = 0;
  w.world.engine(1).tag_reg(
      kPing, [&](auto&&...) { ++got; }, nullptr, 64);
  w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(w.world.engine(0).send_am(kPing, 1, "d", 1), ce::Status::Ok);
  }
  w.run();
  EXPECT_EQ(got, 30);
  EXPECT_GT(w.world.reliability()->stats().duplicates_suppressed, 0u);
}

TEST_P(RelBackends, TotalLossSurfacesRecoverableTimeout) {
  net::FabricConfig fc;
  fc.faults.drop_prob = 1.0;  // nothing ever arrives
  CeConfig cfg = RelWorld::make_reliable_cfg();
  cfg.reliable.max_retries = 3;  // keep the test quick
  RelWorld w(2, GetParam(), fc, cfg);
  std::vector<std::uint64_t> failed_seqs;
  ce::Status failed_status = ce::Status::Ok;
  w.world.reliability()->set_error_callback(
      [&](net::NodeId src, net::NodeId dst, std::uint64_t seq,
          ce::Status st) {
        EXPECT_EQ(src, 0);
        EXPECT_EQ(dst, 1);
        failed_seqs.push_back(seq);
        failed_status = st;
      });
  w.world.engine(1).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  ASSERT_EQ(w.world.engine(0).send_am(kPing, 1, "x", 1), ce::Status::Ok);
  w.run();  // must quiesce: the retry budget bounds the retransmissions
  ASSERT_EQ(failed_seqs.size(), 1u);
  EXPECT_EQ(failed_seqs[0], 1u);
  EXPECT_EQ(failed_status, ce::Status::ErrTimeout);
  const ce::ReliableStats& rs = w.world.reliability()->stats();
  EXPECT_EQ(rs.timeouts, 1u);
  EXPECT_EQ(rs.retransmits, 3u);
  EXPECT_EQ(w.world.reliability()->unacked(), 0u);
}

TEST_P(RelBackends, ChaosScheduleIsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    net::FabricConfig fc;
    fc.faults.seed = seed;
    fc.faults.drop_prob = 0.08;
    fc.faults.dup_prob = 0.05;
    fc.faults.corrupt_prob = 0.05;
    RelWorld w(2, GetParam(), fc);
    std::vector<int> order;
    w.world.engine(1).tag_reg(
        kPing,
        [&](ce::CommEngine&, Tag, const void* msg, std::size_t, int, void*) {
          int v;
          std::memcpy(&v, msg, sizeof v);
          order.push_back(v);
        },
        nullptr, 64);
    w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
    for (int i = 0; i < 60; ++i) {
      w.world.engine(0).send_am(kPing, 1, &i, sizeof i);
    }
    w.run();
    const ce::ReliableStats& rs = w.world.reliability()->stats();
    return std::make_tuple(order, rs.retransmits, rs.duplicates_suppressed,
                           rs.corrupt_discarded, w.eng.now());
  };
  EXPECT_EQ(run(11), run(11)) << "same seed, same delivery schedule";
}

// One cell per counter: after a reliable + failure-detector run the live
// recorder holds histograms only, and metrics_snapshot() carries every
// layer's stats struct field by field — present exactly when nonzero.
template <class Stats, std::size_t N>
void expect_exported(const obs::Recorder& snap, const Stats& s,
                     const obs::CounterField<Stats> (&table)[N]) {
  for (const obs::CounterField<Stats>& f : table) {
    SCOPED_TRACE(f.name);
    const obs::Counter* c = snap.find_counter(f.name);
    if (s.*f.field == 0) {
      EXPECT_EQ(c, nullptr);
    } else {
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->value(), s.*f.field);
    }
  }
}

TEST(MetricsSnapshot, LiveRecorderKeepsOnlyHistogramsOnLci) {
  net::FabricConfig fc;
  fc.faults.drop_prob = 0.05;
  fc.faults.dup_prob = 0.05;
  fc.faults.corrupt_prob = 0.05;
  CeConfig cfg = RelWorld::make_reliable_cfg();
  cfg.fd.enabled = true;
  RelWorld w(2, BackendKind::Lci, fc, cfg);
  int got = 0;
  w.world.engine(1).tag_reg(kPing, [&](auto&&...) { ++got; }, nullptr, 64);
  w.world.engine(0).tag_reg(kPing, [](auto&&...) {}, nullptr, 64);
  const int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(w.world.engine(0).send_am(kPing, 1, &i, sizeof i),
              ce::Status::Ok);
  }
  for (auto& th : w.threads) th.wake();
  ASSERT_TRUE(w.eng.run_while_pending([&]() {
    return got == kMsgs && w.world.reliability()->unacked() == 0;
  }));
  // Idle past a few heartbeat intervals so the detector fills the silence.
  w.eng.run_until(w.eng.now() +
                  4 * w.world.failure_detector()->config().heartbeat_interval);
  w.world.failure_detector()->stop();
  w.eng.run();

  EXPECT_TRUE(w.world.metrics().counters().empty());
  const obs::Histogram* ack = w.world.metrics().find_histogram("ce.rel.ack_ns");
  ASSERT_NE(ack, nullptr);
  EXPECT_GT(ack->count(), 0u);

  const obs::Recorder snap = w.world.metrics_snapshot();
  const ce::ReliableStats& rs = w.world.reliability()->stats();
  const ce::FdStats& fs = w.world.failure_detector()->stats();
  EXPECT_GT(rs.retransmits, 0u);
  EXPECT_GT(fs.heartbeats_sent, 0u);
  expect_exported(snap, rs, ce::kReliableCounters);
  expect_exported(snap, fs, ce::kFdCounters);
  expect_exported(snap, w.fab.fault_stats(), net::kFaultCounters);
  ASSERT_NE(snap.find_counter("net.msgs"), nullptr);
  EXPECT_EQ(snap.find_counter("net.msgs")->value(), w.fab.total_messages());
  EXPECT_EQ(snap.find_counter("ce.peer_failed_cancels"), nullptr);
  // The snapshot copies the live histograms and leaves the live recorder
  // as it was.
  EXPECT_EQ(snap.find_histogram("ce.rel.ack_ns")->count(), ack->count());
  EXPECT_TRUE(w.world.metrics().counters().empty());
}

INSTANTIATE_TEST_SUITE_P(Backends, RelBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& pinfo) {
                           return pinfo.param == BackendKind::Mpi ? "Mpi"
                                                                  : "Lci";
                         });

}  // namespace
