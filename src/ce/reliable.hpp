// End-to-end reliability sublayer shared by both communication-engine
// backends.
//
// The simulated fabric can be configured to drop, duplicate, corrupt, and
// delay messages (net::FaultConfig).  Neither mmpi nor mlci was designed
// for a lossy transport — a lost RTS or CTS deadlocks a rendezvous, a
// duplicated CTS trips protocol asserts.  Instead of teaching both
// libraries loss recovery, this sublayer slots in *below* them as a
// net::LinkShim on every NIC (the role a reliable-connection queue pair
// plays under a real InfiniBand MPI):
//
//   * every outgoing cross-node message gets a per-(src,dst) sequence
//     number and a CRC-32C over header + payload;
//   * the receiver verifies the checksum (NACKing corrupt frames),
//     suppresses duplicates, ACKs every data frame, and only then passes
//     the message up to the library's deliver handler;
//   * the sender retransmits unACKed messages under exponential backoff
//     with jitter and a bounded retry budget; exhausting the budget
//     surfaces as a recoverable ce::Status::ErrTimeout through an error
//     callback instead of an abort.
//
// With ReliableConfig::enabled == false the shim is never installed and
// the wire path is untouched.  The same Backoff policy object is reused by
// the LCI backend to pace its Retry-parked operations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "ce/comm_engine.hpp"
#include "des/engine.hpp"
#include "des/rng.hpp"
#include "des/slab.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"

namespace ce {

/// CRC-32C (Castagnoli), bitwise-reflected, software table.  `seed` chains
/// multi-buffer checksums (pass a previous result).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

/// The checksum the reliability sublayer stores in WireHeader::rel_crc:
/// CRC-32C over every load-bearing header field plus the payload bytes.
std::uint32_t message_crc(const net::Message& m);

/// Exponential backoff with multiplicative jitter: delay(i) =
/// base * factor^i * uniform[1, 1+jitter), capped at `cap`.  Shared by the
/// retransmission timers and the LCI backend's Retry pacing.
struct Backoff {
  des::Duration base = 1 * des::kMicrosecond;
  des::Duration cap = 64 * des::kMicrosecond;
  double factor = 2.0;
  double jitter = 0.25;

  /// Delay for the next attempt; grows the internal attempt count.
  des::Duration next(des::Rng& rng);
  void reset() { attempt_ = 0; }
  int attempts() const { return attempt_; }

 private:
  int attempt_ = 0;
};

/// Aggregate sublayer counters, exported as "ce.rel.*" through
/// kReliableCounters.
struct ReliableStats {
  std::uint64_t data_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t corrupt_discarded = 0;
  std::uint64_t peer_dead_fails = 0;  ///< sends failed fast with ErrPeerDead
  std::uint64_t unhandled_errors = 0; ///< give-ups with no callback installed
};

/// Export names of the ReliableStats fields.
inline constexpr obs::CounterField<ReliableStats> kReliableCounters[] = {
    {"ce.rel.data", &ReliableStats::data_sent},
    {"ce.rel.retransmits", &ReliableStats::retransmits},
    {"ce.rel.timeouts", &ReliableStats::timeouts},
    {"ce.rel.acks", &ReliableStats::acks_sent},
    {"ce.rel.nacks", &ReliableStats::nacks_sent},
    {"ce.rel.dups", &ReliableStats::duplicates_suppressed},
    {"ce.rel.corrupt", &ReliableStats::corrupt_discarded},
    {"ce.rel.peer_dead_fails", &ReliableStats::peer_dead_fails},
    {"ce.rel.err_unhandled", &ReliableStats::unhandled_errors},
};

/// Delivery-failure notification: the sublayer gave up on (src -> dst,
/// seq) — `status` is ErrTimeout after the retry budget, or ErrPeerDead
/// when the destination was declared dead (seq 0 for a send that never
/// entered the sequence space).
using DeliveryErrorCallback = std::function<void(
    net::NodeId src, net::NodeId dst, std::uint64_t seq, Status status)>;

class ReliableDomain;

/// One node's half of the sublayer: sender-side retransmission state and
/// receiver-side dedup/ACK state, installed as the NIC's LinkShim.
class ReliableChannel final : public net::LinkShim {
 public:
  ReliableChannel(ReliableDomain& domain, net::Fabric& fabric,
                  net::NodeId node);
  ~ReliableChannel() override;

  void shim_send(net::Message&& m, std::function<void()> on_sent) override;
  bool shim_deliver(net::Message& m) override;

  /// Cancels every pending retransmission timer (domain teardown).
  void cancel_timers();

  /// The destination was confirmed dead: cancel its RTO timers, fail
  /// every outstanding message to it with ErrPeerDead, and fast-fail
  /// subsequent sends to it until peer_alive().
  void peer_dead(net::NodeId peer);
  /// Ground-truth restart of `peer`: resume normal transmission.  The
  /// per-peer sequence spaces continue where they left off.
  void peer_alive(net::NodeId peer);

  std::size_t unacked() const;

 private:
  // Tracked-send state lives in a per-channel des::Slab: each slot holds
  // the RTO/timer fields next to the retransmission copy of the message,
  // and slots are recycled LIFO, so a tracked send allocates nothing in
  // steady state (the former std::map<seq, Unacked> cost a node
  // allocation per tracked send).  The slot's message is dropped on
  // release, so an ACKed payload is freed at once.
  struct UnackedHot {
    des::Time first_sent = 0;
    std::uint32_t attempts = 1;  ///< transmissions so far
    des::Duration rto = 0;       ///< current timeout
    des::Duration rto_cap = 0;   ///< per-message cap (size-dependent)
    // RTO timer handle, owned by the sending node in the DES queue so
    // the node's crash cancels it.
    des::EventId timer = des::kInvalidEvent;
  };
  struct Tracked {
    UnackedHot hot;
    net::Message msg;  ///< retransmission copy
  };
  /// One entry of a peer's send window: the tracked seq and its slab
  /// slot.  Windows stay sorted for free — seqs are assigned
  /// monotonically per peer, so tracking is a push_back and lookup is a
  /// binary search over a few in-flight entries.
  struct SeqSlot {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct PeerRecv {
    std::uint64_t cum = 0;            ///< all seq <= cum seen
    std::set<std::uint64_t> ahead;    ///< out-of-order seqs > cum
  };

  std::uint32_t slab_acquire();
  void slab_release(std::uint32_t slot);
  /// Index of `seq` in a peer's window, or SIZE_MAX when not tracked.
  static std::size_t window_find(const std::vector<SeqSlot>& w,
                                 std::uint64_t seq);

  void transmit(net::NodeId dst, std::uint64_t seq,
                std::function<void()> on_sent);
  void arm_timer(net::NodeId dst, std::uint64_t seq);
  void on_timer(net::NodeId dst, std::uint64_t seq);
  /// Shared RTO-expiry logic: retransmit (or give up) for (dst, seq).
  /// Reached from a fired timer (on_timer) or a NACK (timer still
  /// pending — arm_timer then reschedules it in place).
  void expire(net::NodeId dst, std::uint64_t seq);
  void send_control(net::NodeId dst, std::uint16_t kind, std::uint64_t seq);
  void on_control(const net::Message& m);
  bool note_received(net::NodeId src, std::uint64_t seq);  ///< false = dup

  ReliableDomain& domain_;
  net::Fabric& fabric_;
  des::Engine& eng_;
  net::NodeId node_;
  des::Rng rng_;
  std::vector<std::uint64_t> next_seq_;              ///< per peer
  std::vector<std::vector<SeqSlot>> unacked_;        ///< per peer, seq-sorted
  des::Slab<Tracked> slab_;
  std::vector<PeerRecv> recv_;                       ///< per peer
  std::vector<bool> peer_dead_;                      ///< fast-fail sends
  std::vector<bool> err_logged_;  ///< once-per-peer unhandled-error log
};

/// Owns one ReliableChannel per node and installs them as NIC shims;
/// uninstalls on destruction.  Holds the shared config, stats, histogram
/// handles, and the error callback.
class ReliableDomain {
 public:
  ReliableDomain(net::Fabric& fabric, ReliableConfig cfg);
  ~ReliableDomain();
  ReliableDomain(const ReliableDomain&) = delete;
  ReliableDomain& operator=(const ReliableDomain&) = delete;

  const ReliableConfig& config() const { return cfg_; }
  const ReliableStats& stats() const { return stats_; }

  /// Invoked (from event context) when a message exhausts its retry
  /// budget or its destination is declared dead.  Default: counted only.
  void set_error_callback(DeliveryErrorCallback cb) { on_error_ = std::move(cb); }

  /// Invoked on every retry-budget exhaustion, independently of the
  /// error callback: an ErrTimeout is a strong hint the peer may be down,
  /// so CommWorld wires this into the failure detector's suspect_hint.
  using SuspicionHook = std::function<void(net::NodeId src, net::NodeId dst)>;
  void set_suspicion_hook(SuspicionHook fn) { on_suspect_ = std::move(fn); }

  /// Marks `peer` dead / alive on every channel (see
  /// ReliableChannel::peer_dead).
  void peer_dead(net::NodeId peer);
  void peer_alive(net::NodeId peer);

  /// Metrics sink for the ACK-wait and retransmit-latency histograms
  /// ("ce.rel.ack_ns", "ce.rel.retransmit_latency_ns"), resolved once
  /// here (null detaches; not owned).
  void set_recorder(obs::Recorder* rec);

  /// Adds the nonzero ReliableStats counters to `rec` ("ce.rel.*").
  void export_metrics(obs::Recorder& rec) const;

  /// Messages currently awaiting an ACK, over all nodes (quiescence
  /// check for drivers and tests).
  std::size_t unacked() const;

  /// Messages `node` currently has awaiting an ACK (its send window /
  /// RTO-pending count — every unacked message holds a pending RTO
  /// timer).  O(peers) per call; used by the timeline sampler.
  std::size_t unacked(net::NodeId node) const;

 private:
  friend class ReliableChannel;

  net::Fabric& fabric_;
  ReliableConfig cfg_;
  ReliableStats stats_;
  obs::Histogram* ack_ns_ = nullptr;  ///< null without a recorder
  obs::Histogram* retransmit_latency_ns_ = nullptr;
  DeliveryErrorCallback on_error_;
  SuspicionHook on_suspect_;
  std::vector<std::unique_ptr<ReliableChannel>> channels_;
};

}  // namespace ce
