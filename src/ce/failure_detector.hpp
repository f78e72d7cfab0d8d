// Fail-stop failure detection (heartbeats + adaptive timeout).
//
// One FailureDetectorDomain covers the whole simulated cluster: a
// per-node detector shim interposes in FRONT of whatever link shim is
// already installed (the reliability sublayer, usually), so it observes
// every frame each node sends and receives — data, ACKs, retransmits —
// and treats all of them as proof of life.  Dedicated kProtoFd
// heartbeat frames fill silent gaps: a node heartbeats a peer only when
// it has sent that peer nothing for a full heartbeat interval
// (piggybacking on existing traffic the rest of the time).
//
// Peer-state machine, evaluated on each node's periodic timer:
//
//   Alive --silence > max(min_timeout, phi * mean_gap)--> Suspect
//   Suspect --any frame arrives--> Alive            (a "flap": counted
//                                                    as a false suspect)
//   Suspect --further confirm_timeout of silence--> Dead
//
// Dead is sticky — subscribers (reliability fast-fail, backend transfer
// cancellation, the AMT recovery coordinator) have acted on it — until
// the fabric's ground-truth restart signal revives the peer.  The
// suspicion threshold adapts phi-accrual-style to the observed
// inter-arrival gap so bursty-but-healthy peers (e.g. a NIC busy
// serializing a multi-MB tile) are not declared suspect; at fault-rate
// zero the detector must produce zero false positives, which the unit
// tests pin.
//
// A node's timer is owned by the node in the DES queue: when the node
// crashes the fabric cancels every event it owns, and the dead node
// stops heartbeating and detecting — exactly the fail-stop semantics.
// On restart the domain re-arms the timer and resets the node's views.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ce/comm_engine.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"

namespace ce {

enum class PeerState : std::uint8_t { Alive = 0, Suspect = 1, Dead = 2 };

/// Domain-wide detector counters (summed over all nodes), exported as
/// "ce.fd.*" through kFdCounters.
struct FdStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t suspects = 0;        ///< Alive -> Suspect transitions
  std::uint64_t false_suspects = 0;  ///< Suspect -> Alive flaps
  std::uint64_t deaths = 0;          ///< Suspect -> Dead confirmations
  std::uint64_t revivals = 0;        ///< Dead -> Alive on ground-truth restart
  std::uint64_t hints = 0;           ///< external suspicion hints accepted
};

/// Export names of the FdStats fields.
inline constexpr obs::CounterField<FdStats> kFdCounters[] = {
    {"ce.fd.heartbeats", &FdStats::heartbeats_sent},
    {"ce.fd.suspects", &FdStats::suspects},
    {"ce.fd.false_suspects", &FdStats::false_suspects},
    {"ce.fd.dead", &FdStats::deaths},
    {"ce.fd.revivals", &FdStats::revivals},
    {"ce.fd.hints", &FdStats::hints},
};

class FailureDetectorDomain {
 public:
  /// Observer of peer-state transitions: `node`'s view of `peer` changed
  /// to `state`.  Invoked synchronously from the detector (timer events
  /// and frame arrivals); keep it cheap and re-entrant-safe.
  using StateCallback = std::function<void(int node, int peer, PeerState)>;

  FailureDetectorDomain(net::Fabric& fabric, FdConfig cfg);
  ~FailureDetectorDomain();
  FailureDetectorDomain(const FailureDetectorDomain&) = delete;
  FailureDetectorDomain& operator=(const FailureDetectorDomain&) = delete;

  const FdConfig& config() const { return cfg_; }
  const FdStats& stats() const { return stats_; }

  void subscribe(StateCallback cb) { subscribers_.push_back(std::move(cb)); }

  /// `node`'s current view of `peer`.
  PeerState peer_state(int node, int peer) const;

  /// How many live observers currently view `peer` as Suspect / Dead.
  /// Maintained incrementally at each state transition, so a timeline
  /// probe sampling every peer is O(n) per sample, not O(n^2).
  std::uint32_t suspect_views(int peer) const {
    return suspect_views_of_.at(static_cast<std::size_t>(peer));
  }
  std::uint32_t dead_views(int peer) const {
    return dead_views_of_.at(static_cast<std::size_t>(peer));
  }

  /// External suspicion hint (the reliability sublayer's ErrTimeout):
  /// accelerates Alive -> Suspect without waiting for the silence bound.
  /// Confirmation still requires confirm_timeout of real silence.
  void suspect_hint(int node, int peer);

  /// Cancels every pending heartbeat timer.  The detector stops; call
  /// when the workload reached quiescence so the periodic timers don't
  /// keep the event queue alive forever.
  void stop();

  /// Attaches a metrics recorder for the ce.fd.detect_ns
  /// detection-latency histogram, resolved once here.  Null detaches.
  void set_recorder(obs::Recorder* rec);

  /// Adds the nonzero FdStats counters to `rec` ("ce.fd.*").
  void export_metrics(obs::Recorder& rec) const;

 private:
  class NodeDetector;
  friend class NodeDetector;

  void notify(int node, int peer, PeerState state);
  /// Samples ce.fd.detect_ns for a Dead verdict on `peer` at `now`.
  void record_detect_latency(int peer, des::Time now);
  /// Updates the aggregate view counters for one observer's transition.
  void track_view(int peer, PeerState from, PeerState to);

  net::Fabric& fabric_;
  FdConfig cfg_;
  FdStats stats_;
  bool stopped_ = false;
  obs::Histogram* detect_ns_ = nullptr;  ///< null without a recorder
  std::vector<StateCallback> subscribers_;
  std::vector<std::unique_ptr<NodeDetector>> nodes_;
  std::vector<std::uint32_t> suspect_views_of_;  ///< observers seeing Suspect
  std::vector<std::uint32_t> dead_views_of_;     ///< observers seeing Dead
};

}  // namespace ce
