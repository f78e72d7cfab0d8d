// CommWorld: constructs one communication engine per simulated node over a
// shared fabric, for either backend.  This is the object experiments and
// the AMT runtime hold; it owns the underlying mmpi/mlci library instance.
#pragma once

#include <memory>
#include <vector>

#include "ce/comm_engine.hpp"
#include "ce/failure_detector.hpp"
#include "ce/reliable.hpp"
#include "mlci/lci.hpp"
#include "mmpi/mpi.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"

namespace ce {

enum class BackendKind { Mpi, Lci };

inline const char* backend_name(BackendKind k) {
  return k == BackendKind::Mpi ? "Open MPI" : "LCI";
}

class CommWorld {
 public:
  CommWorld(net::Fabric& fabric, BackendKind kind, CeConfig ce_cfg = {},
            mmpi::Config mpi_cfg = {}, mlci::Config lci_cfg = {});
  ~CommWorld();

  BackendKind kind() const { return kind_; }

  /// World-wide live metrics: the histograms the fabric, every engine and
  /// the reliability/detector sublayers sample into.  Holds no counters;
  /// those live in each layer's stats struct (see metrics_snapshot).
  obs::Recorder& metrics() { return recorder_; }
  const obs::Recorder& metrics() const { return recorder_; }

  /// A copy of metrics() plus every layer's counters: the fabric's
  /// (net.*), the reliability and detector sublayers' (ce.rel.*,
  /// ce.fd.*) and the engines' summed peer-failure cancellations
  /// (ce.peer_failed_cancels).  Counters at zero are left out.
  obs::Recorder metrics_snapshot() const;
  int size() const { return static_cast<int>(engines_.size()); }
  CommEngine& engine(int node) {
    return *engines_.at(static_cast<std::size_t>(node));
  }

  /// True when every engine is idle (global communication quiescence).
  /// With the reliability sublayer enabled this also requires every sent
  /// message to have been ACKed.
  bool all_idle() const {
    for (const auto& e : engines_) {
      if (!e->idle()) return false;
    }
    return reliable_ == nullptr || reliable_->unacked() == 0;
  }

  /// The end-to-end reliability sublayer, or null when
  /// CeConfig::reliable.enabled was false.
  ReliableDomain* reliability() { return reliable_.get(); }
  const ReliableDomain* reliability() const { return reliable_.get(); }

  /// Declares `peer` dead at the communication level: the reliability
  /// sublayer stops retransmitting to it and every engine cancels
  /// transfers wedged on it.  Idempotent.  Invoked automatically on
  /// detector Dead verdicts; callers with ground-truth crash knowledge
  /// (e.g. the AMT runtime without a detector) may call it directly.
  void peer_failed(int peer) {
    if (reliable_ != nullptr) reliable_->peer_dead(peer);
    for (auto& e : engines_) e->peer_failed(peer);
  }

  /// The failure detector, or null when CeConfig::fd.enabled was false.
  /// When both sublayers are on, CommWorld has already wired: detector
  /// Dead verdicts -> reliability peer_dead + backend peer_failed;
  /// reliability ErrTimeout give-ups -> detector suspicion hints.
  FailureDetectorDomain* failure_detector() { return fd_.get(); }
  const FailureDetectorDomain* failure_detector() const { return fd_.get(); }

 private:
  BackendKind kind_;
  net::Fabric& fabric_;
  obs::Recorder recorder_;
  std::unique_ptr<mmpi::Mpi> mpi_;
  std::unique_ptr<mlci::Lci> lci_;
  std::vector<std::unique_ptr<CommEngine>> engines_;
  // Declared last: uninstalls its NIC shims and cancels retransmission
  // timers before the libraries above go away.
  std::unique_ptr<ReliableDomain> reliable_;
  // After reliable_: the detector shims wrap the reliability shims, so
  // they must uninstall first (reverse declaration order).
  std::unique_ptr<FailureDetectorDomain> fd_;
};

}  // namespace ce
