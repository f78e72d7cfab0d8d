// mlci — a miniature LCI (Lightweight Communication Interface) over the
// simulated fabric, modeling the feature set the paper's §5 relies on:
//
//   * Three protocols: Immediate (cache-line-sized, sent inline), Buffered
//     (a few pages, copied to pre-registered packets), Direct (any length,
//     RDMA with rendezvous), selected explicitly by the caller.
//   * Non-blocking calls that return Status::Retry under resource
//     exhaustion, letting the library exert back-pressure on the runtime.
//   * Completion delivery via completion queue, handler function, or
//     synchronizer — chosen per operation.
//   * An explicit progress() call that drains hardware completions,
//     matches Direct messages, runs handlers, and delivers completions.
//     Unlike MPI, progress is fully decoupled from operation submission,
//     so a dedicated progress thread can run it (paper §5.3.1).
//   * Dynamic receive-buffer allocation for active messages: the target
//     never posts receives or matches tags for Immediate/Buffered sends.
//
// Costs are charged to the calling simulated thread; they are deliberately
// lighter than mmpi's — that difference (no request-array scanning, no
// wildcard matching, handler dispatch instead of polling) is the paper's
// central claim about why LCI fits AMT runtimes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "des/ring.hpp"
#include "des/sim_thread.hpp"
#include "des/slab.hpp"
#include "des/time.hpp"
#include "net/fabric.hpp"

namespace mlci {

using Tag = std::uint64_t;

enum class Status {
  Ok,
  Retry,    ///< insufficient resources; progress and resubmit
  Invalid,  ///< protocol size limit violated; the call did nothing
};

struct Config {
  std::size_t immediate_size = 64;        ///< max Immediate payload
  std::size_t buffered_size = 12 * 1024;  ///< max Buffered payload (~12 KiB)

  int packet_pool_size = 256;   ///< packets for Buffered sends (per device)
  int immediate_slots = 256;    ///< outstanding Immediate injections
  int direct_slots = 1024;      ///< outstanding Direct sends+recvs

  // --- software overhead model -----------------------------------------
  des::Duration op_overhead = 200;        ///< per communication call
  des::Duration progress_poll_cost = 100; ///< per progress() invocation
  des::Duration event_cost = 150;         ///< per hardware event drained
  des::Duration handler_cost = 250;       ///< per handler/AM dispatch
  des::Duration match_cost = 100;         ///< per Direct-recv list element
  des::Duration alloc_cost = 300;         ///< per dynamic recv allocation
  double copy_bandwidth_Bps = 8e9;       ///< packet-copy memcpy rate

  std::uint64_t header_bytes = 64;       ///< wire header per message
};

/// Completion descriptor, delivered through the chosen mechanism.
struct Request {
  enum class Type { SendDone, RecvDone, Am };
  Type type = Type::Am;
  int peer = -1;
  Tag tag = 0;
  std::size_t size = 0;
  net::PayloadPtr payload;     ///< AM data (dynamically allocated buffer)
  void* user_context = nullptr;
};

/// MPI-request-like completion flag that a thread can test or wait on.
class Synchronizer {
 public:
  bool test() const { return signaled_; }
  void reset() { signaled_ = false; }

 private:
  friend class Device;
  bool signaled_ = false;
  Request request_;

 public:
  /// The completed operation's descriptor (valid once test() is true).
  const Request& request() const { return request_; }
};

/// FIFO completion queue drained by polling.
class CompQueue {
 public:
  std::optional<Request> poll() {
    if (queue_.empty()) return std::nullopt;
    return queue_.pop_front();
  }
  std::size_t size() const { return queue_.size(); }

 private:
  friend class Device;
  des::Ring<Request> queue_;
};

/// Handler for incoming active messages and native puts, invoked from
/// inside progress().
using Handler = std::function<void(Request&&)>;

/// Completion handler of one operation: a plain function plus the context
/// it was registered with (LCI's handler completion object).  The
/// operation's own user_context arrives in the Request.
using HandlerFn = void (*)(void* ctx, Request&& req);

/// Per-operation completion target.  Trivially copyable: it rides inside
/// pending operations and hardware completions without allocating.
class Comp {
 public:
  static Comp none() { return Comp{}; }
  static Comp queue(CompQueue* q) {
    Comp c;
    c.queue_ = q;
    return c;
  }
  static Comp handler(HandlerFn fn, void* ctx) {
    Comp c;
    c.fn_ = fn;
    c.ctx_ = ctx;
    return c;
  }
  static Comp sync(Synchronizer* s) {
    Comp c;
    c.sync_ = s;
    return c;
  }

 private:
  friend class Device;
  CompQueue* queue_ = nullptr;
  HandlerFn fn_ = nullptr;
  void* ctx_ = nullptr;
  Synchronizer* sync_ = nullptr;
};

/// Per-node LCI device: owns packet pools, matching state, and the
/// hardware event queue.  Endpoint-style communication calls live here
/// (one endpoint per device in this implementation).
class Device {
 public:
  int rank() const { return rank_; }
  int num_ranks() const;
  const Config& config() const;

  /// Handler for incoming active messages (Immediate/Buffered sends).
  /// Invoked from progress() with the message payload; the buffer was
  /// "dynamically allocated" at the receiver (alloc cost charged).
  void set_am_handler(Handler h) { am_handler_ = std::move(h); }

  // --- sends -------------------------------------------------------------
  /// Immediate protocol: payload <= immediate_size, sent inline from the
  /// user buffer.  Fire-and-forget (no local completion object).
  Status sends(int dst, Tag tag, const void* buf, std::size_t n);

  /// Buffered protocol: payload <= buffered_size, copied into a
  /// pre-registered packet.  Fire-and-forget.
  Status sendm(int dst, Tag tag, const void* buf, std::size_t n);

  /// Direct protocol: any length, rendezvous + RDMA.  Local completion is
  /// delivered through `comp` when the remote transfer finishes.
  Status sendd(int dst, Tag tag, const void* buf, std::size_t n, Comp comp,
               void* user_context = nullptr);

  /// Posts the matching receive for a Direct send (match on (src, tag)).
  Status recvd(int src, Tag tag, void* buf, std::size_t capacity, Comp comp,
               void* user_context = nullptr);

  /// Native one-sided put (the paper's §7 future-work LCI feature): RDMA
  /// write of `n` bytes into the remote registered region `remote_base`
  /// (0 = virtual), carrying up to a packet of immediate data that the
  /// target's put handler receives on completion.  No receive is posted
  /// and no rendezvous round-trip occurs.  `comp` fires at local
  /// completion (buffer reusable).
  Status putd(int dst, Tag tag, const void* buf, std::size_t n,
              std::uint64_t remote_base, Comp comp, const void* imm_data,
              std::size_t imm_size, void* user_context = nullptr);

  /// Handler for incoming native puts (remote completion); receives the
  /// immediate data as payload, the data size in Request::size.
  void set_put_handler(Handler h) { put_handler_ = std::move(h); }

  /// Fail-stop peer death: releases every Direct resource wedged on
  /// `peer`.  Direct sends awaiting CTS complete through their Comp as
  /// SendDone (the send is locally complete — the buffer is reusable —
  /// even though the target died); posted and matched Direct receives
  /// from `peer` are dropped WITHOUT completing (their data never
  /// arrived), and queued RTS/incoming traffic from `peer` is discarded.
  /// Completions are deferred through the hardware CQ, so handlers run
  /// inside the next progress() call, never in the caller's context.
  /// Idempotent.  Safe to call from event context.
  struct PurgeResult {
    std::size_t sends = 0;  ///< direct sends completed-as-cancelled
    std::size_t recvs = 0;  ///< direct receives dropped
  };
  PurgeResult peer_failed(int peer);

  // --- introspection -------------------------------------------------------
  int free_packets() const { return packets_free_; }
  int free_direct_slots() const { return direct_free_; }

  /// Registers a hook invoked whenever hardware activity occurs for this
  /// device (arrival or local completion).  A dedicated progress thread
  /// parks on this instead of burning its core while idle.  Runs in event
  /// context — must only schedule work, never call progress() directly.
  void set_event_notifier(std::function<void()> fn) {
    notifier_ = std::move(fn);
  }
  std::size_t pending_hw_events() const {
    return hw_completions_.size() + incoming_.size();
  }

 private:
  friend class Lci;
  friend int progress(Device&);

  struct DirectRecv {
    int src = -1;
    Tag tag = 0;
    void* buf = nullptr;
    std::size_t capacity = 0;
    Comp comp;
    void* user_context = nullptr;
  };
  /// A Direct send or native put from submission to local completion.
  /// Its slab id travels in RTS/CTS/DATA, and the NIC's sent handler
  /// captures only the device and the id.
  struct DirectSend {
    int dst = -1;
    Tag tag = 0;
    net::PayloadPtr payload;
    std::size_t size = 0;
    Comp comp;
    void* user_context = nullptr;
    std::uint64_t seq = 0;     ///< submission order
    bool awaiting_cts = false; ///< RTS sent, DATA not yet
  };
  struct PendingCompletion {
    Comp comp;
    Request request;
  };

  Device(class Lci& lci, int rank) : lci_(lci), rank_(rank) {}

  void deliver(net::Message&& m);
  void complete(const Comp& comp, Request&& req);
  int do_progress();
  void handle_incoming(net::Message& m);
  void handle_rts(net::Message& m);
  void handle_cts(net::Message& m);
  void handle_data(net::Message& m);
  void try_match_rts();
  net::Message base_message(int dst, Tag tag, std::uint16_t kind,
                            std::size_t logical_size) const;

  void handle_put(net::Message& m);
  /// The NIC finished a Direct DATA or native put: local completion.
  void on_direct_sent(std::uint64_t id);
  /// Frees the Direct send in `slot` and queues its SendDone on the
  /// hardware CQ.
  void send_done(std::uint32_t slot);

  class Lci& lci_;
  int rank_;
  Handler am_handler_;
  Handler put_handler_;

  int packets_free_ = 0;
  int immediate_free_ = 0;
  int direct_free_ = 0;

  des::Ring<net::Message> incoming_;           ///< hardware receive queue
  des::Ring<PendingCompletion> hw_completions_;  ///< local send CQ
  std::vector<DirectRecv> posted_direct_;      ///< posted Direct receives
  des::Ring<net::Message> pending_rts_;        ///< RTS awaiting a recvd
  // Operations in flight, named on the wire by slab ids; a stale id
  // misses instead of reaching its slot's next occupant.  A slot is reset
  // when its operation ends.
  des::Slab<DirectSend> direct_sends_;         ///< sends + puts in flight
  des::Slab<DirectRecv> matched_recvs_;        ///< CTS sent, DATA pending
  std::uint64_t direct_seq_ = 0;
  std::function<void()> notifier_;

  void notify() {
    if (notifier_) notifier_();
  }
};

/// The LCI "job": per-node devices bound to the fabric.
class Lci {
 public:
  Lci(net::Fabric& fabric, Config config = {});
  ~Lci();
  Lci(const Lci&) = delete;
  Lci& operator=(const Lci&) = delete;

  net::Fabric& fabric() { return fabric_; }
  const Config& config() const { return cfg_; }
  int size() const { return static_cast<int>(devices_.size()); }
  Device& device(int rank) {
    return *devices_.at(static_cast<std::size_t>(rank));
  }

 private:
  friend class Device;
  net::Fabric& fabric_;
  Config cfg_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// Explicit progress: drains hardware events and incoming messages,
/// matches Direct transfers, runs handlers, delivers completions.
/// Returns the number of completions/messages processed.
int progress(Device& dev);

inline const Config& Device::config() const { return lci_.config(); }
inline int Device::num_ranks() const { return lci_.size(); }

}  // namespace mlci
