#include "ce/failure_detector.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"

namespace ce {

// ---------------------------------------------------------------------------
// Per-node detector shim

class FailureDetectorDomain::NodeDetector final : public net::LinkShim {
 public:
  NodeDetector(FailureDetectorDomain& domain, int node)
      : domain_(domain), node_(node) {
    const auto n = static_cast<std::size_t>(domain_.fabric_.num_nodes());
    last_rx_.resize(n, 0);
    last_tx_.resize(n, 0);
    mean_gap_.resize(n, 0.0);
    state_.resize(n, PeerState::Alive);
    net::Nic& nic = domain_.fabric_.nic(node_);
    inner_ = nic.shim();
    nic.set_shim(this);
    arm_timer();
  }

  ~NodeDetector() override {
    cancel_timer();
    domain_.fabric_.nic(node_).set_shim(inner_);
  }

  void shim_send(net::Message&& m, std::function<void()> on_sent) override {
    if (m.dst != node_) {
      last_tx_[static_cast<std::size_t>(m.dst)] = eng().now();
    }
    if (inner_ != nullptr) {
      inner_->shim_send(std::move(m), std::move(on_sent));
      return;
    }
    domain_.fabric_.nic(node_).raw_send(std::move(m), std::move(on_sent));
  }

  bool shim_deliver(net::Message& m) override {
    if (m.src != node_) note_alive(m.src);
    if (m.hdr.proto == net::kProtoFd) return true;  // heartbeat: consumed
    if (inner_ != nullptr) return inner_->shim_deliver(m);
    return false;
  }

  PeerState state(int peer) const {
    return state_[static_cast<std::size_t>(peer)];
  }

  void hint(int peer) {
    PeerState& st = state_[static_cast<std::size_t>(peer)];
    if (st != PeerState::Alive) return;
    st = PeerState::Suspect;
    domain_.track_view(peer, PeerState::Alive, PeerState::Suspect);
    ++domain_.stats_.suspects;
    ++domain_.stats_.hints;
    domain_.notify(node_, peer, PeerState::Suspect);
  }

  /// Ground-truth restart of `peer`: revive a sticky Dead verdict.  A
  /// Suspect verdict is left alone — resumed heartbeats clear it (the
  /// suspect -> alive flap the stats count).
  void peer_restarted(int peer) {
    const auto i = static_cast<std::size_t>(peer);
    last_rx_[i] = eng().now();
    mean_gap_[i] = 0.0;
    if (state_[i] != PeerState::Dead) return;
    state_[i] = PeerState::Alive;
    domain_.track_view(peer, PeerState::Dead, PeerState::Alive);
    ++domain_.stats_.revivals;
    domain_.notify(node_, peer, PeerState::Alive);
  }

  /// This node itself restarted: reset every view and restart the timer
  /// (the crash cancelled it along with every other event the node owned).
  void self_restarted() {
    const des::Time now = eng().now();
    std::fill(last_rx_.begin(), last_rx_.end(), now);
    std::fill(last_tx_.begin(), last_tx_.end(), now);
    std::fill(mean_gap_.begin(), mean_gap_.end(), 0.0);
    arm_timer();
  }

  void cancel_timer() { eng().cancel(timer_); }

 private:
  des::Engine& eng() { return domain_.fabric_.engine(); }

  void arm_timer() {
    if (domain_.stopped_) return;
    timer_ = eng().schedule_on(net::Fabric::shard_of(node_),
                               eng().now() + domain_.cfg_.heartbeat_interval,
                               [this]() { tick(); });
  }

  void note_alive(int peer) {
    const auto i = static_cast<std::size_t>(peer);
    const des::Time now = eng().now();
    if (last_rx_[i] > 0) {
      const auto gap = static_cast<double>(now - last_rx_[i]);
      mean_gap_[i] = mean_gap_[i] == 0.0 ? gap
                                         : 0.8 * mean_gap_[i] + 0.2 * gap;
    }
    last_rx_[i] = now;
    if (state_[i] == PeerState::Suspect) {
      state_[i] = PeerState::Alive;
      domain_.track_view(peer, PeerState::Suspect, PeerState::Alive);
      ++domain_.stats_.false_suspects;
      domain_.notify(node_, peer, PeerState::Alive);
    }
  }

  des::Duration suspect_threshold(std::size_t i) const {
    const auto adaptive = static_cast<des::Duration>(
        domain_.cfg_.phi_factor * mean_gap_[i]);
    return std::max(domain_.cfg_.min_timeout, adaptive);
  }

  void tick() {
    const des::Time now = eng().now();
    const FdConfig& cfg = domain_.cfg_;
    const int n = domain_.fabric_.num_nodes();
    for (int peer = 0; peer < n; ++peer) {
      if (peer == node_) continue;
      const auto i = static_cast<std::size_t>(peer);
      if (state_[i] == PeerState::Dead) continue;

      // Heartbeat only into silence: any frame to the peer within the
      // interval already proved us alive over there.
      if (now - last_tx_[i] >= cfg.heartbeat_interval) {
        send_heartbeat(peer);
        last_tx_[i] = now;
      }

      const des::Duration silence = now - last_rx_[i];
      const des::Duration threshold = suspect_threshold(i);
      if (state_[i] == PeerState::Alive && silence > threshold) {
        state_[i] = PeerState::Suspect;
        domain_.track_view(peer, PeerState::Alive, PeerState::Suspect);
        ++domain_.stats_.suspects;
        domain_.notify(node_, peer, PeerState::Suspect);
      }
      if (state_[i] == PeerState::Suspect &&
          silence > threshold + cfg.confirm_timeout) {
        state_[i] = PeerState::Dead;
        domain_.track_view(peer, PeerState::Suspect, PeerState::Dead);
        ++domain_.stats_.deaths;
        domain_.record_detect_latency(peer, now);
        domain_.notify(node_, peer, PeerState::Dead);
      }
    }
    arm_timer();
  }

  void send_heartbeat(int peer) {
    net::Message m;
    m.src = node_;
    m.dst = peer;
    m.wire_bytes = domain_.cfg_.heartbeat_bytes;
    m.hdr.proto = net::kProtoFd;
    domain_.fabric_.nic(node_).raw_send(std::move(m));
    ++domain_.stats_.heartbeats_sent;
  }

  FailureDetectorDomain& domain_;
  int node_;
  net::LinkShim* inner_ = nullptr;
  des::EventId timer_ = des::kInvalidEvent;
  std::vector<des::Time> last_rx_;
  std::vector<des::Time> last_tx_;
  std::vector<double> mean_gap_;     ///< EWMA inter-arrival gap (ns)
  std::vector<PeerState> state_;
};

// ---------------------------------------------------------------------------
// Domain

FailureDetectorDomain::FailureDetectorDomain(net::Fabric& fabric, FdConfig cfg)
    : fabric_(fabric), cfg_(cfg) {
  const int n = fabric_.num_nodes();
  suspect_views_of_.resize(static_cast<std::size_t>(n), 0);
  dead_views_of_.resize(static_cast<std::size_t>(n), 0);
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    nodes_.emplace_back(std::make_unique<NodeDetector>(*this, node));
  }
  fabric_.add_crash_handler([this](net::NodeId node, bool up) {
    if (!up) return;  // the crash itself needs no action: its timer died
    nodes_[static_cast<std::size_t>(node)]->self_restarted();
    for (auto& d : nodes_) d->peer_restarted(node);
  });
}

FailureDetectorDomain::~FailureDetectorDomain() {
  // Uninstall in reverse construction order so each detector restores
  // the inner shim it captured.
  while (!nodes_.empty()) nodes_.pop_back();
}

PeerState FailureDetectorDomain::peer_state(int node, int peer) const {
  return nodes_.at(static_cast<std::size_t>(node))->state(peer);
}

void FailureDetectorDomain::suspect_hint(int node, int peer) {
  nodes_.at(static_cast<std::size_t>(node))->hint(peer);
}

void FailureDetectorDomain::stop() {
  stopped_ = true;
  for (auto& d : nodes_) d->cancel_timer();
}

void FailureDetectorDomain::set_recorder(obs::Recorder* rec) {
  detect_ns_ = rec != nullptr ? &rec->histogram("ce.fd.detect_ns") : nullptr;
}

void FailureDetectorDomain::export_metrics(obs::Recorder& rec) const {
  obs::export_counters(stats_, kFdCounters, rec);
}

void FailureDetectorDomain::track_view(int peer, PeerState from,
                                       PeerState to) {
  const auto i = static_cast<std::size_t>(peer);
  if (from == PeerState::Suspect) --suspect_views_of_[i];
  if (from == PeerState::Dead) --dead_views_of_[i];
  if (to == PeerState::Suspect) ++suspect_views_of_[i];
  if (to == PeerState::Dead) ++dead_views_of_[i];
}

void FailureDetectorDomain::notify(int node, int peer, PeerState state) {
  obs::FlightRecorder::global().record(
      node, obs::FlightKind::FdState, fabric_.engine().now(), 0,
      static_cast<std::uint64_t>(peer),
      static_cast<std::uint64_t>(static_cast<std::uint8_t>(state)));
  for (const StateCallback& cb : subscribers_) cb(node, peer, state);
}

void FailureDetectorDomain::record_detect_latency(int peer, des::Time now) {
  if (detect_ns_ == nullptr) return;
  // Detection latency against the fabric's ground-truth crash schedule.
  for (const net::CrashEvent& c : fabric_.config().faults.crashes) {
    if (c.node == peer && now >= c.crash_at) {
      detect_ns_->add(static_cast<double>(now - c.crash_at));
      return;
    }
  }
}

}  // namespace ce
