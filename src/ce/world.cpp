#include "ce/world.hpp"

#include "ce/lci_backend.hpp"
#include "ce/mpi_backend.hpp"

namespace ce {

CommWorld::CommWorld(net::Fabric& fabric, BackendKind kind, CeConfig ce_cfg,
                     mmpi::Config mpi_cfg, mlci::Config lci_cfg)
    : kind_(kind), fabric_(fabric) {
  const int n = fabric.num_nodes();
  engines_.reserve(static_cast<std::size_t>(n));
  if (kind == BackendKind::Mpi) {
    mpi_ = std::make_unique<mmpi::Mpi>(fabric, mpi_cfg);
    for (int r = 0; r < n; ++r) {
      engines_.push_back(
          std::make_unique<MpiBackend>(mpi_->rank(r), ce_cfg));
    }
  } else {
    lci_ = std::make_unique<mlci::Lci>(fabric, lci_cfg);
    for (int r = 0; r < n; ++r) {
      engines_.push_back(std::make_unique<LciBackend>(
          lci_->device(r), fabric.engine(), ce_cfg));
    }
  }
  if (ce_cfg.reliable.enabled) {
    reliable_ = std::make_unique<ReliableDomain>(fabric, ce_cfg.reliable);
    reliable_->set_recorder(&recorder_);
  }
  if (ce_cfg.fd.enabled) {
    // Constructed after reliable_ so the detector shim wraps the
    // reliability shim and sees every frame first.
    fd_ = std::make_unique<FailureDetectorDomain>(fabric, ce_cfg.fd);
    fd_->set_recorder(&recorder_);
    // Dead verdict: stop retransmitting to the corpse and release
    // backend transfers wedged on it.  Revival re-opens the channels.
    fd_->subscribe([this](int /*node*/, int peer, PeerState state) {
      if (state == PeerState::Dead) {
        peer_failed(peer);
      } else if (state == PeerState::Alive && reliable_ != nullptr) {
        reliable_->peer_alive(peer);
      }
    });
    if (reliable_ != nullptr) {
      reliable_->set_suspicion_hook([this](net::NodeId src, net::NodeId dst) {
        fd_->suspect_hint(src, dst);
      });
    }
  }
  fabric.set_recorder(&recorder_);
  for (auto& e : engines_) e->set_recorder(&recorder_);
}

CommWorld::~CommWorld() {
  // The fabric outlives this world; don't leave it a dangling recorder.
  if (fabric_.recorder() == &recorder_) fabric_.set_recorder(nullptr);
}

obs::Recorder CommWorld::metrics_snapshot() const {
  obs::Recorder snap = recorder_;
  fabric_.export_metrics(snap);
  if (reliable_ != nullptr) reliable_->export_metrics(snap);
  if (fd_ != nullptr) fd_->export_metrics(snap);
  std::uint64_t cancels = 0;
  for (const auto& e : engines_) {
    cancels += e->stats().peer_failed_sends + e->stats().peer_failed_recvs;
  }
  if (cancels > 0) snap.counter("ce.peer_failed_cancels").add(cancels);
  return snap;
}

}  // namespace ce
