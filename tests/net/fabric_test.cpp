#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "des/engine.hpp"

namespace {

using des::Engine;
using net::Fabric;
using net::FabricConfig;
using net::Message;

// A config with round numbers so expected times are easy to compute:
// 10 GB/s links, 1 us wire latency, no hop cost, 10M msg/s (100 ns gap).
FabricConfig simple_config() {
  FabricConfig cfg;
  cfg.link_bandwidth_Bps = 10e9;
  cfg.wire_latency = 1000;
  cfg.per_hop_latency = 0;
  cfg.nodes_per_switch = 1024;
  cfg.nic_msg_rate = 10e6;
  return cfg;
}

Message msg(net::NodeId src, net::NodeId dst, std::uint64_t bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.wire_bytes = bytes;
  return m;
}

TEST(Fabric, SingleMessageLatencyAndBandwidth) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  des::Time delivered = -1;
  fab.nic(1).set_deliver_handler([&](Message&&) { delivered = eng.now(); });
  fab.nic(0).set_deliver_handler([](Message&&) {});
  // 100000 bytes at 10 GB/s = 10 us serialization; + 1 us latency.
  fab.nic(0).send(msg(0, 1, 100000));
  eng.run();
  EXPECT_EQ(delivered, 10 * des::kMicrosecond + 1 * des::kMicrosecond);
}

TEST(Fabric, SentHandlerFiresAtEgressEnd) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  fab.nic(1).set_deliver_handler([](Message&&) {});
  des::Time sent_at = -1;
  fab.nic(0).send(msg(0, 1, 100000), [&] { sent_at = eng.now(); });
  eng.run();
  EXPECT_EQ(sent_at, 10 * des::kMicrosecond);
}

TEST(Fabric, EgressSerializesBackToBackMessages) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  std::vector<des::Time> deliveries;
  fab.nic(1).set_deliver_handler(
      [&](Message&&) { deliveries.push_back(eng.now()); });
  fab.nic(0).send(msg(0, 1, 100000));
  fab.nic(0).send(msg(0, 1, 100000));
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 11 * des::kMicrosecond);
  // Second message starts serializing only at 10 us.
  EXPECT_EQ(deliveries[1], 21 * des::kMicrosecond);
}

TEST(Fabric, MessageRateGapLimitsSmallMessages) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  std::vector<des::Time> deliveries;
  fab.nic(1).set_deliver_handler(
      [&](Message&&) { deliveries.push_back(eng.now()); });
  // 8-byte messages: serialization ~1 ns but the 100 ns message gap rules.
  for (int i = 0; i < 10; ++i) fab.nic(0).send(msg(0, 1, 8));
  eng.run();
  ASSERT_EQ(deliveries.size(), 10u);
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_EQ(deliveries[i] - deliveries[i - 1], 100);
  }
}

TEST(Fabric, IngressSerializesConcurrentSenders) {
  Engine eng;
  Fabric fab(eng, 3, simple_config());
  std::vector<des::Time> deliveries;
  fab.nic(2).set_deliver_handler(
      [&](Message&&) { deliveries.push_back(eng.now()); });
  // Two senders inject 100 KB each simultaneously; the receiver port must
  // serialize them: first at 11 us, second 10 us later.
  fab.nic(0).send(msg(0, 2, 100000));
  fab.nic(1).send(msg(1, 2, 100000));
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 11 * des::kMicrosecond);
  EXPECT_EQ(deliveries[1], 21 * des::kMicrosecond);
}

TEST(Fabric, DeliveryPreservesHeaderAndPayload) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  Message got;
  fab.nic(1).set_deliver_handler([&](Message&& m) { got = std::move(m); });
  Message m = msg(0, 1, 64);
  m.hdr.proto = net::kProtoMpi;
  m.hdr.kind = 3;
  m.hdr.tag = 0xDEAD;
  m.hdr.seq = 42;
  m.hdr.size = 5;
  m.hdr.imm[2] = 0xBEEF;
  const char text[] = "hello";
  m.payload = net::make_payload(text, sizeof text);
  fab.nic(0).send(std::move(m));
  eng.run();
  EXPECT_EQ(got.hdr.proto, net::kProtoMpi);
  EXPECT_EQ(got.hdr.kind, 3);
  EXPECT_EQ(got.hdr.tag, 0xDEADu);
  EXPECT_EQ(got.hdr.seq, 42u);
  EXPECT_EQ(got.hdr.size, 5u);
  EXPECT_EQ(got.hdr.imm[2], 0xBEEFu);
  ASSERT_NE(got.payload, nullptr);
  EXPECT_EQ(0, std::memcmp(got.payload->data(), text, sizeof text));
}

TEST(Fabric, PayloadCopyIsIndependentOfSourceBuffer) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  std::vector<char> buf(16, 'a');
  Message m = msg(0, 1, 16);
  m.payload = net::make_payload(buf.data(), buf.size());
  std::fill(buf.begin(), buf.end(), 'b');  // reuse the app buffer
  Message got;
  fab.nic(1).set_deliver_handler([&](Message&& mm) { got = std::move(mm); });
  fab.nic(0).send(std::move(m));
  eng.run();
  ASSERT_NE(got.payload, nullptr);
  EXPECT_EQ(static_cast<char>((*got.payload)[0]), 'a');
}

TEST(Fabric, LoopbackDelivers) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  des::Time delivered = -1;
  fab.nic(0).set_deliver_handler([&](Message&&) { delivered = eng.now(); });
  fab.nic(0).send(msg(0, 0, 1000));
  eng.run();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, 2 * des::kMicrosecond);
}

TEST(Fabric, LoopbackAndNicPathsAgreeOnSentSemantics) {
  // on_sent means "the last byte left the sender; the send buffer is
  // reusable" on BOTH paths.  The loopback path used to fire it at
  // delivery time (after the loopback latency), overstating sender-side
  // completion latency for self-sends.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.loopback_bandwidth_Bps = cfg.link_bandwidth_Bps;  // same serialization
  cfg.loopback_latency = 5 * des::kMicrosecond;         // and a visible gap
  Fabric fab(eng, 2, cfg);
  des::Time loop_sent = -1, loop_delivered = -1;
  des::Time wire_sent = -1, wire_delivered = -1;
  fab.nic(0).set_deliver_handler([&](Message&&) { loop_delivered = eng.now(); });
  fab.nic(1).set_deliver_handler([&](Message&&) { wire_delivered = eng.now(); });
  const std::uint64_t bytes = 100000;  // 10 us at 10 GB/s: above msg-rate gap
  fab.nic(0).send(msg(0, 0, bytes), [&]() { loop_sent = eng.now(); });
  fab.nic(0).send(msg(0, 1, bytes), [&]() { wire_sent = eng.now(); });
  eng.run();
  // The loopback copy leaves the sender when its serialization finishes,
  // exactly like the NIC path's egress — not at delivery.
  const auto copy_time = des::transfer_time(bytes, cfg.loopback_bandwidth_Bps);
  EXPECT_EQ(loop_sent, copy_time);
  EXPECT_EQ(loop_delivered, loop_sent + cfg.loopback_latency);
  EXPECT_LT(loop_sent, loop_delivered);
  // NIC path for comparison: on_sent at egress_end, delivery later.  (The
  // second send queued behind the loopback copy?  No: loopback skips the
  // egress pipe, so the wire send's egress starts at t=0 too.)
  EXPECT_EQ(wire_sent, fab.occupancy(bytes));
  EXPECT_LT(wire_sent, wire_delivered);
}

TEST(Fabric, CrashReleasesPayloadsOfCancelledDeliveries) {
  Engine eng;
  FabricConfig cfg = simple_config();
  // Two 10 us frames race to node 1 and both arrive at 11 us; the second
  // waits out the first in node 1's ingress pipe and is due at 21 us.
  // Node 1 dies at 15 us, which cancels that delivery.
  cfg.faults.crashes.push_back(net::CrashEvent{1, 15 * des::kMicrosecond, 0});
  Fabric fab(eng, 3, cfg);
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  const net::PayloadPtr first =
      std::make_shared<const std::vector<std::byte>>(64, std::byte{1});
  const net::PayloadPtr second =
      std::make_shared<const std::vector<std::byte>>(64, std::byte{2});
  Message a = msg(0, 1, 100000);
  a.payload = first;
  Message b = msg(2, 1, 100000);
  b.payload = second;
  fab.nic(0).send(std::move(a));
  fab.nic(2).send(std::move(b));
  eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(fab.fault_stats().crash_cancelled_events, 1u);
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1) << "cancelled delivery still pins it";
}

TEST(Fabric, FatTreeHops) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.nodes_per_switch = 4;
  cfg.per_hop_latency = 100;
  Fabric fab(eng, 16, cfg);
  EXPECT_EQ(fab.hops(0, 0), 0);
  EXPECT_EQ(fab.hops(0, 3), 1);   // same leaf
  EXPECT_EQ(fab.hops(0, 4), 3);   // cross-leaf
  EXPECT_EQ(fab.latency(0, 3), 1000 + 100);
  EXPECT_EQ(fab.latency(0, 4), 1000 + 300);
}

TEST(Fabric, StatsCountMessagesAndBytes) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  fab.nic(1).set_deliver_handler([](Message&&) {});
  fab.nic(0).send(msg(0, 1, 100));
  fab.nic(0).send(msg(0, 1, 200));
  eng.run();
  EXPECT_EQ(fab.nic(0).stats().msgs_sent, 2u);
  EXPECT_EQ(fab.nic(0).stats().bytes_sent, 300u);
  EXPECT_EQ(fab.nic(1).stats().msgs_received, 2u);
  EXPECT_EQ(fab.nic(1).stats().bytes_received, 300u);
  EXPECT_EQ(fab.total_messages(), 2u);
  EXPECT_EQ(fab.total_bytes(), 300u);
}

// Property sweep: bytes are conserved for random traffic patterns.
class FabricConservation : public ::testing::TestWithParam<int> {};

TEST_P(FabricConservation, BytesSentEqualBytesReceived) {
  Engine eng;
  const int nodes = GetParam();
  Fabric fab(eng, nodes, simple_config());
  std::vector<std::uint64_t> received(static_cast<std::size_t>(nodes), 0);
  for (int n = 0; n < nodes; ++n) {
    fab.nic(n).set_deliver_handler([&received, n](Message&& m) {
      received[static_cast<std::size_t>(n)] += m.wire_bytes;
    });
  }
  des::Rng rng(des::derive_seed(17, static_cast<std::uint64_t>(nodes)));
  std::uint64_t sent_total = 0;
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<net::NodeId>(rng.below(
        static_cast<std::uint64_t>(nodes)));
    auto dst = static_cast<net::NodeId>(
        rng.below(static_cast<std::uint64_t>(nodes)));
    const std::uint64_t bytes = 8 + rng.below(1 << 16);
    sent_total += bytes;
    eng.schedule_at(static_cast<des::Time>(rng.below(1'000'000)),
                    [&fab, src, dst, bytes]() {
                      Message m;
                      m.src = src;
                      m.dst = dst;
                      m.wire_bytes = bytes;
                      fab.nic(src).send(std::move(m));
                    });
  }
  eng.run();
  std::uint64_t recv_total = 0;
  for (auto r : received) recv_total += r;
  EXPECT_EQ(recv_total, sent_total);
  EXPECT_EQ(fab.total_bytes(), sent_total);
}

INSTANTIATE_TEST_SUITE_P(Nodes, FabricConservation,
                         ::testing::Values(2, 3, 8, 17, 32));

// Property sweep: sustained bandwidth over many messages approaches the
// configured link bandwidth for large messages and the message-rate cap for
// small ones.
class FabricBandwidth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricBandwidth, SustainedRateMatchesModel) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  const std::uint64_t bytes = GetParam();
  constexpr int kCount = 1000;
  des::Time last = 0;
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) {
    last = eng.now();
    ++delivered;
  });
  for (int i = 0; i < kCount; ++i) fab.nic(0).send(msg(0, 1, bytes));
  eng.run();
  ASSERT_EQ(delivered, kCount);
  const double seconds = des::to_seconds(last);
  const double achieved_Bps =
      static_cast<double>(bytes) * kCount / seconds;
  const double serial = static_cast<double>(bytes) / 10e9;
  const double gap = 1.0 / 10e6;
  const double expected_Bps =
      static_cast<double>(bytes) / std::max(serial, gap);
  EXPECT_NEAR(achieved_Bps / expected_Bps, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FabricBandwidth,
                         ::testing::Values(64, 1024, 8192, 65536, 1 << 20));

}  // namespace
