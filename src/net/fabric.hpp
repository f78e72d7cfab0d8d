// The simulated cluster fabric.
//
// Timing model (LogGP-flavoured, cut-through):
//   - Sender NIC egress is a FIFO pipe: a message occupies it for
//     max(bytes / bandwidth, 1 / msg_rate) starting when the pipe frees.
//   - The last byte reaches the receiver egress_end + latency(src, dst)
//     later, where latency includes per-switch-hop costs from a two-level
//     fat-tree hop count.
//   - Receiver NIC ingress is a FIFO pipe too: concurrent senders to one
//     node serialize, which is what produces incast queueing.
//   - Delivery fires when the ingress pipe finishes the message; upper
//     layers treat it as "the NIC wrote a completion-queue entry".
//
// Host CPU costs (send/recv software overhead, matching, callbacks) are
// deliberately NOT modeled here — they belong to the communication
// libraries (mmpi / mlci), because the difference between those libraries
// is the paper's subject.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "des/rng.hpp"
#include "des/slab.hpp"
#include "des/time.hpp"
#include "net/config.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "obs/stats.hpp"

namespace net {

/// Per-NIC traffic counters.
struct NicStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Fabric-wide fault-injection counters (all zero when faults are off).
/// The only store of these counts; Fabric::export_metrics writes them out
/// through kFaultCounters.
struct FaultStats {
  std::uint64_t drops = 0;           ///< includes brownout drops
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dups = 0;
  std::uint64_t dup_bytes = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t spikes = 0;
  std::uint64_t stalled_msgs = 0;
  std::uint64_t brownout_drops = 0;
  std::uint64_t undeliverable = 0;  ///< arrivals with no handler installed
  std::uint64_t crashes = 0;        ///< fail-stop crash events fired
  std::uint64_t crash_drops = 0;    ///< frames eaten by a crashed NIC
  std::uint64_t crash_cancelled_events = 0;  ///< DES events killed by crashes
};

/// Export names of the FaultStats fields.
inline constexpr obs::CounterField<FaultStats> kFaultCounters[] = {
    {"net.fault.drops", &FaultStats::drops},
    {"net.fault.dropped_bytes", &FaultStats::dropped_bytes},
    {"net.fault.dups", &FaultStats::dups},
    {"net.fault.dup_bytes", &FaultStats::dup_bytes},
    {"net.fault.corruptions", &FaultStats::corruptions},
    {"net.fault.spikes", &FaultStats::spikes},
    {"net.fault.stalled_msgs", &FaultStats::stalled_msgs},
    {"net.fault.brownout_drops", &FaultStats::brownout_drops},
    {"net.fault.undeliverable", &FaultStats::undeliverable},
    {"net.fault.crashes", &FaultStats::crashes},
    {"net.fault.crash_drops", &FaultStats::crash_drops},
    {"net.fault.crash_cancelled", &FaultStats::crash_cancelled_events},
};

class Fabric;
class Nic;

/// Bump-in-the-wire interposer between the upper communication libraries
/// and the raw NIC pipes.  ce::ReliableChannel implements this to add
/// sequence numbers / checksums / retransmission below mmpi and mlci
/// without either library knowing.
class LinkShim {
 public:
  virtual ~LinkShim() = default;
  /// Outgoing message from the upper layer.  The shim must eventually call
  /// Nic::raw_send (possibly several times, for retransmits).
  virtual void shim_send(Message&& m, std::function<void()> on_sent) = 0;
  /// Incoming message off the wire.  Return true to consume it (control
  /// traffic, duplicates, corrupt frames); false passes it to the upper
  /// layer's deliver handler.
  virtual bool shim_deliver(Message& m) = 0;
};

/// One node's network interface.  Upper layers send through it and register
/// a delivery handler to receive.
class Nic {
 public:
  using DeliverHandler = std::function<void(Message&&)>;
  /// Invoked when the last byte of a sent message has left this NIC (the
  /// send buffer is reusable and, for RDMA-style semantics, the transfer is
  /// locally complete).
  using SentHandler = std::function<void()>;

  /// Starts sending `m` (m.src must equal this NIC's node).  `on_sent` may
  /// be null.  Delivery at the destination is asynchronous.  Routed
  /// through the installed LinkShim, if any.
  void send(Message m, SentHandler on_sent = nullptr);

  /// Sends bypassing the shim — the shim's own path to the wire (also
  /// what send() degenerates to with no shim installed).
  void raw_send(Message m, SentHandler on_sent = nullptr);

  /// Registers the function invoked on message arrival.  Exactly one
  /// handler per NIC (the owning communication library).
  void set_deliver_handler(DeliverHandler h) { deliver_ = std::move(h); }

  /// Installs (null: removes) the link-layer interposer.  The shim is not
  /// owned and must outlive all traffic through it.
  void set_shim(LinkShim* shim) { shim_ = shim; }
  LinkShim* shim() const { return shim_; }

  NodeId node() const { return node_; }
  const NicStats& stats() const { return stats_; }

  /// Earliest time a new egress could start (for tests / introspection).
  des::Time egress_free_at() const { return egress_free_; }

 private:
  friend class Fabric;
  Nic(Fabric& fabric, NodeId node) : fabric_(fabric), node_(node) {}

  /// Arrival entry point: shim first, then the deliver handler.
  void dispatch(Message&& m);

  Fabric& fabric_;
  NodeId node_;
  DeliverHandler deliver_;
  LinkShim* shim_ = nullptr;
  NicStats stats_;
  des::Time egress_free_ = 0;
  des::Time ingress_free_ = 0;
  // This node's in-flight deliveries: an incoming message parks in a
  // slot between schedule and dispatch, so the event closure captures
  // (Nic*, slot) — always inline in des::InplaceCallback — instead of a
  // whole Message.  Slots are recycled LIFO, so steady-state allocation
  // per message is zero.
  des::Slab<Message> deliveries_;
};

class Fabric {
 public:
  Fabric(des::Engine& engine, int num_nodes, FabricConfig config = {});

  des::Engine& engine() { return eng_; }
  const FabricConfig& config() const { return cfg_; }
  int num_nodes() const { return static_cast<int>(nics_.size()); }

  Nic& nic(NodeId node) { return *nics_.at(static_cast<std::size_t>(node)); }

  /// The fabric's topology model (hop math, link queues, per-link
  /// stats).  Link state mutates as messages transit; treat as
  /// read-only outside the fabric.
  const Topology& topology() const { return topo_; }

  /// Switch hops between two nodes under the configured topology.
  /// Node ids are validated — an out-of-range or negative id is a hard
  /// std::out_of_range, never silent garbage group math.
  int hops(NodeId a, NodeId b) const;

  /// One-way wire latency between two nodes (excludes pipe occupancy
  /// and link congestion; this is the uncongested propagation figure
  /// RTO estimators want).  Validates node ids like hops().
  des::Duration latency(NodeId a, NodeId b) const;

  /// Pure serialization time of `bytes` on one pipe (without the
  /// message-rate floor).
  des::Duration serialization_time(std::uint64_t bytes) const {
    return des::transfer_time(bytes, cfg_.link_bandwidth_Bps);
  }

  /// Pipe occupancy of one message: max(serialization, message-rate gap).
  des::Duration occupancy(std::uint64_t bytes) const;

  /// Frames that entered the wire, including fault-injected duplicates —
  /// so with faults on, total_messages() == delivered + fault drops.
  std::uint64_t total_messages() const { return total_msgs_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Fault-injection counters (all zero when cfg.faults is inactive).
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Registers a callback fired when a node's fail-stop state changes:
  /// fn(node, false) at crash time (after the events the node owns were
  /// cancelled), fn(node, true) at restart.  Handlers are invoked in
  /// registration order and are never removed — register for the
  /// fabric's lifetime.
  using CrashHandler = std::function<void(NodeId, bool up)>;
  void add_crash_handler(CrashHandler fn) {
    crash_handlers_.push_back(std::move(fn));
  }

  /// Attaches a metrics recorder for the per-message histograms
  /// ("net.wire_transit_ns", "net.egress_wait_ns", "net.fault.delay_ns").
  /// Null detaches; the fabric does not own it.  Resolves the histograms
  /// once, so the send path never pays a by-name lookup.
  void set_recorder(obs::Recorder* rec);
  obs::Recorder* recorder() const { return rec_; }

  /// Adds the fabric's counters to `rec`: frame totals (net.msgs /
  /// net.bytes), the nonzero FaultStats fields (net.fault.*), aggregate
  /// NIC delivery counters (net.delivered_msgs / net.delivered_bytes),
  /// and — when the topology routes over explicit links — per-boundary-
  /// tier and per-link msg/byte counters (net.link.*).  Call once per
  /// recorder; a second call into the same recorder double-counts.
  void export_metrics(obs::Recorder& rec) const;

 private:
  friend class Nic;

  std::uint32_t acquire_delivery(Nic& dst, Message&& m);
  void deliver_and_release(Nic& dst, std::uint32_t slot);

  void do_send(Nic& src, Message m, Nic::SentHandler on_sent);

  /// Throws std::out_of_range unless `n` is a valid node id.
  void check_node(const char* what, NodeId n) const;

 public:
  /// DES owner tag of a node's events (deliveries, completions,
  /// per-node protocol timers): a crash of the node cancels exactly the
  /// events it owns.  Owner 0 is reserved for non-node work (global
  /// timers, protocol clocks).
  static std::uint32_t shard_of(NodeId node) {
    return static_cast<std::uint32_t>(node) + 1;
  }

 private:

  /// Fault-injection decisions for one cross-node message, drawn in a
  /// fixed order from fault_rng_ (determinism comes from the engine's
  /// total event order).  Brownout is evaluated separately in do_send
  /// against the modeled transmit/arrival intervals — it consumes no
  /// randomness, so hoisting it preserves the per-seed draw sequence.
  struct FaultPlan {
    bool drop = false;
    bool dup = false;
    bool corrupt = false;
    des::Duration extra_latency = 0;  ///< jitter + spike
  };
  FaultPlan plan_faults();
  void corrupt_in_flight(Message& m);

  /// True when [a, b) overlaps `node`'s crash window (egress-side test).
  bool crash_overlaps(NodeId node, des::Time a, des::Time b) const {
    const auto i = static_cast<std::size_t>(node);
    return a < crash_end_[i] && b > crash_start_[i];
  }
  /// True when instant `t` falls inside `node`'s crash window
  /// (arrival-side test, mirroring the brownout boundary rules).
  bool crash_at_instant(NodeId node, des::Time t) const {
    const auto i = static_cast<std::size_t>(node);
    return t >= crash_start_[i] && t < crash_end_[i];
  }
  void count_crash_drop(std::uint64_t wire_bytes);
  void fire_crash(NodeId node);
  void fire_restart(NodeId node);

  des::Engine& eng_;
  FabricConfig cfg_;
  Topology topo_;
  std::vector<std::unique_ptr<Nic>> nics_;
  obs::Recorder* rec_ = nullptr;
  // Cached handles into rec_ (stable: Recorder's maps are node-based),
  // refreshed by set_recorder — one null check per sample, no name lookup.
  obs::Histogram* h_wire_transit_ = nullptr;
  obs::Histogram* h_egress_wait_ = nullptr;
  obs::Histogram* h_fault_delay_ = nullptr;
  std::uint64_t total_msgs_ = 0;
  std::uint64_t total_bytes_ = 0;
  FaultStats fault_stats_;
  des::Rng fault_rng_;
  // Fail-stop crash state: per-node half-open windows [start, end) for
  // the hot-path drop tests (kTimeNever start = never crashes) plus the
  // subscriber list.
  std::vector<des::Time> crash_start_;
  std::vector<des::Time> crash_end_;
  std::vector<CrashHandler> crash_handlers_;
};

}  // namespace net
