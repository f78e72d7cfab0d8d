// The PaRSEC communication-engine API (paper §4.1, Listing 1).
//
// An active-message abstraction with a one-sided put for bulk data.  The
// runtime registers AM tags once at startup (ACTIVATE, GET DATA); task
// data moves with put(), which notifies *both* sides: a local callback at
// the origin and a registered AM callback (r_tag) at the target — the
// remote-completion requirement that rules out standard MPI RMA (§4.2.2).
//
// Two backends implement this interface:
//   MpiBackend (§4.2): persistent wildcard receives, MPI_Testsome polling
//     over a global request array, handshake + two-sided data transport,
//     a 30-transfer concurrency cap with deferred queues.
//   LciBackend (§5.3): dedicated progress thread, AM tag hash table,
//     handshake with the eager-data optimization, callback-handle FIFO
//     queues drained with a 5-AM fairness loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "des/time.hpp"
#include "net/message.hpp"

namespace obs {
class Recorder;
}

namespace ce {

using Tag = std::uint64_t;

class CommEngine;

/// Recoverable result codes for communication-engine calls.  API misuse
/// (unregistered tags, oversized messages, double registration) reports an
/// error instead of assert-aborting, so release builds validate too; the
/// reliability sublayer reports delivery failures the same way.
enum class Status : int {
  Ok = 0,
  ErrTagUnregistered,  ///< send_am on a tag never passed to tag_reg
  ErrTagDuplicate,     ///< tag_reg on an already-registered tag
  ErrTooLarge,         ///< message exceeds the registered/backing limit
  ErrTimeout,          ///< reliability: retry budget exhausted
  ErrPeerDead,         ///< destination confirmed dead by the failure detector
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "Ok";
    case Status::ErrTagUnregistered: return "ErrTagUnregistered";
    case Status::ErrTagDuplicate: return "ErrTagDuplicate";
    case Status::ErrTooLarge: return "ErrTooLarge";
    case Status::ErrTimeout: return "ErrTimeout";
    case Status::ErrPeerDead: return "ErrPeerDead";
  }
  return "?";
}

/// End-to-end reliability sublayer configuration (ce/reliable).  Disabled
/// by default: the sublayer is not installed and the wire path is
/// byte-for-byte what it was before the sublayer existed.
struct ReliableConfig {
  bool enabled = false;

  /// Retransmission timer: the per-message initial timeout is
  ///   rto_initial + rtt_factor * (queue wait + serialization + latency),
  /// then grows by rto_backoff per retry (jittered by up to rto_jitter,
  /// capped at max(rto_max, 2 * initial)).
  des::Duration rto_initial = 20 * des::kMicrosecond;
  des::Duration rto_max = 2 * des::kMillisecond;
  double rto_backoff = 2.0;
  double rto_jitter = 0.25;
  int rtt_factor = 4;

  /// Retry budget: after this many retransmissions the message is dropped
  /// and the failure surfaces through the error callback as ErrTimeout.
  int max_retries = 12;

  std::uint64_t seed = 0xAC4;     ///< jitter rng seed (per-node derived)
  std::uint64_t ack_bytes = 32;   ///< wire size of an ACK/NACK frame
};

/// Failure-detector configuration (ce/failure_detector).  Disabled by
/// default: no heartbeats, no detector shims, wire path unchanged.
struct FdConfig {
  bool enabled = false;

  /// Heartbeat period per (node, peer) direction.  A heartbeat to a peer
  /// is skipped when any frame was sent to that peer within the period
  /// (piggybacking on existing traffic).
  des::Duration heartbeat_interval = 5 * des::kMillisecond;

  /// Suspicion threshold: a peer becomes Suspect when nothing has been
  /// heard from it for max(min_timeout, phi_factor * mean observed
  /// inter-arrival gap) — a cheap phi-accrual-style adaptive bound.
  des::Duration min_timeout = 50 * des::kMillisecond;
  double phi_factor = 6.0;

  /// Confirmation: a Suspect peer is declared Dead after this additional
  /// silence.  Death is sticky until the peer's NIC provably restarts.
  des::Duration confirm_timeout = 25 * des::kMillisecond;

  std::uint64_t heartbeat_bytes = 16;  ///< wire size of a heartbeat frame
};

/// Active-message callback: invoked when a message with the registered tag
/// arrives (or, for r_tag, when a put completes at the target).
/// `msg`/`size` is the message body; `src` the sending rank; `cb_data` the
/// pointer registered with the tag.
using AmCallback = std::function<void(CommEngine& ce, Tag tag, const void* msg,
                                      std::size_t size, int src,
                                      void* cb_data)>;

/// Registered memory handle.  Trivially copyable so a registration can be
/// shipped inside an ACTIVATE message and used as the remote side of a
/// put.  `base == nullptr` denotes a virtual region (paper-scale runs move
/// sized-but-empty payloads).
struct MemReg {
  net::NodeId node = -1;
  void* base = nullptr;
  std::size_t size = 0;
};

/// Origin-side completion callback for put().
using OnesidedCallback =
    std::function<void(CommEngine& ce, const MemReg& lreg,
                       std::ptrdiff_t ldispl, const MemReg& rreg,
                       std::ptrdiff_t rdispl, std::size_t size, int remote,
                       void* cb_data)>;

struct CeConfig {
  // --- MPI backend (§4.2) ----------------------------------------------
  int persistent_recvs_per_tag = 5;   ///< MPI_Recv_init instances per AM tag
  int max_concurrent_transfers = 30;  ///< actively polled data transfers

  // --- LCI backend (§5.3) ----------------------------------------------
  bool progress_thread = true;        ///< dedicate a progress thread
  /// Put data at or below this size rides inside the handshake message
  /// (the eager-data optimization of §5.3.3); 0 disables it.
  std::size_t eager_put_max = 4096;
  /// §7 future work: use LCI's native one-sided put (no handshake, no
  /// rendezvous round-trip) to implement the PaRSEC put interface
  /// directly.  Off by default — the paper evaluates the emulated path.
  bool native_put = false;
  int am_fairness_batch = 5;          ///< AM handles per fairness round (§5.3.4)

  // --- shared -------------------------------------------------------------
  std::size_t max_am_size = 12 * 1024;  ///< AM payload limit (LCI ~12 KiB)
  des::Duration dispatch_cost = 40;     ///< per callback-handle dispatch
  des::Duration loop_cost = 25;         ///< per progress-loop iteration

  /// End-to-end reliability sublayer, shared by both backends (installed
  /// below mmpi/mlci by CommWorld when enabled).
  ReliableConfig reliable;

  /// Fail-stop failure detector (installed above the reliability shim by
  /// CommWorld when enabled).
  FdConfig fd;
};

/// Counters exposed by every backend (for tests and instrumentation).
struct CeStats {
  std::uint64_t ams_sent = 0;
  std::uint64_t ams_delivered = 0;
  std::uint64_t puts_started = 0;
  std::uint64_t puts_completed_local = 0;
  std::uint64_t puts_completed_remote = 0;
  std::uint64_t puts_deferred = 0;     ///< MPI: sends hitting the 30-cap
  std::uint64_t recvs_dynamic = 0;     ///< MPI: dynamic (unpromoted) recvs
  std::uint64_t retries_delegated = 0; ///< LCI: recvd retries delegated
  std::uint64_t eager_puts = 0;        ///< LCI: puts carried in handshakes
  std::uint64_t peer_failed_sends = 0; ///< sends released by peer_failed()
  std::uint64_t peer_failed_recvs = 0; ///< recvs dropped by peer_failed()
};

/// Per-node communication engine (Listing 1).
class CommEngine {
 public:
  virtual ~CommEngine() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Registers an active-message callback under `tag`.  `max_len` bounds
  /// the message body (receive buffers are sized accordingly).  Fails with
  /// ErrTagDuplicate on re-registration and ErrTooLarge when max_len
  /// exceeds the backend AM limit.
  virtual Status tag_reg(Tag tag, AmCallback cb, void* cb_data,
                         std::size_t max_len) = 0;

  /// Registers memory for one-sided transfers.
  virtual MemReg mem_reg(void* mem, std::size_t size) = 0;

  /// Sends an active message (body <= registered max_len and the backend
  /// AM limit).  Returns Status::Ok on success; ErrTagUnregistered /
  /// ErrTooLarge on misuse (nothing is sent).  The body is copied; the
  /// caller's buffer is immediately reusable.
  virtual Status send_am(Tag tag, int remote, const void* msg,
                         std::size_t size) = 0;

  /// One-sided put with completion on both ends (Listing 1).  Transfers
  /// `size` bytes from lreg+ldispl into rreg+rdispl on `remote`.  At local
  /// completion `l_cb(l_cb_data)` runs at the origin; at remote completion
  /// the AM callback registered under `r_tag` runs at the target with the
  /// r_cb_data bytes as its message body.
  virtual int put(const MemReg& lreg, std::ptrdiff_t ldispl,
                  const MemReg& rreg, std::ptrdiff_t rdispl, std::size_t size,
                  int remote, OnesidedCallback l_cb, void* l_cb_data,
                  Tag r_tag, const void* r_cb_data,
                  std::size_t r_cb_data_size) = 0;

  /// Makes communication progress; executes completion callbacks.  Called
  /// from the runtime's communication thread.  Returns the number of
  /// completions processed.
  virtual int progress() = 0;

  /// True when the engine has nothing in flight and nothing queued (used
  /// by drivers to detect quiescence).
  virtual bool idle() const = 0;

  /// Hook invoked when new work becomes available for progress(); the
  /// runtime's communication thread parks on it.
  virtual void set_wake_callback(std::function<void()> fn) = 0;

  virtual const CeStats& stats() const = 0;

  /// Attaches a metrics recorder for latency histograms ("ce.put_local_ns",
  /// "ce.put_remote_ns", queue-wait metrics), resolved once here so the
  /// event path never looks a metric up by name.  Null detaches; the
  /// engine does not own the recorder.  Default: metrics are dropped.
  virtual void set_recorder(obs::Recorder* /*rec*/) {}

  /// Notification that `remote` was confirmed dead by the failure
  /// detector.  Backends cancel or fast-complete transfers wedged on the
  /// dead peer (e.g. rendezvous handshakes that will never get a CTS) so
  /// progress engines and concurrency caps drain instead of stalling
  /// forever.  Default: nothing to release.
  virtual void peer_failed(int /*remote*/) {}
};

}  // namespace ce
