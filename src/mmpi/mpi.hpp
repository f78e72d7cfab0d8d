// mmpi — a miniature MPI implementation over the simulated fabric.
//
// Implements the MPI subset the PaRSEC MPI backend (paper §4.2) uses:
// two-sided nonblocking sends/receives, persistent requests
// (MPI_Recv_init / MPI_Start), MPI_Testsome over a request array, wildcard
// MPI_ANY_SOURCE, blocking eager MPI_Send, tag matching with posted- and
// unexpected-message queues, and an eager/rendezvous protocol switch.
// PaRSEC asserts mpi_assert_allow_overtaking (§4.2.2); FIFO matching obeys it.
//
// Progress semantics mirror real MPI: the library only progresses inside
// MPI calls.  Arriving fabric messages queue in a per-rank hardware queue;
// they are matched (and their CPU costs paid) only when some thread on that
// rank enters an MPI call that polls.  This is the property the paper's
// §4.3 identifies as a latency bottleneck — while the communication thread
// executes a long callback, nothing is matched.
//
// Software overheads are explicit model parameters (Config) charged to the
// calling simulated thread via des::charge_current.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "des/ring.hpp"
#include "des/sim_thread.hpp"
#include "des/slab.hpp"
#include "des/time.hpp"
#include "net/fabric.hpp"

namespace mmpi {

/// Wildcard source rank.
inline constexpr int kAnySource = -1;

using Tag = std::uint64_t;
/// Request handle: the des::Slab id (`generation << 32 | (slot + 1)`) of
/// the request in its owning rank's table, so ids of freed requests never
/// reach the slot's next occupant.
using RequestId = std::uint64_t;
inline constexpr RequestId kNullRequest = 0;

struct Config {
  /// Messages at or below this size use the eager protocol.
  std::size_t eager_threshold = 8192;

  // --- software overhead model (charged to the calling sim thread) ---
  des::Duration call_overhead = 1500;        ///< fixed cost of any MPI call
  des::Duration request_scan_cost = 100;     ///< per request examined by testsome
  des::Duration match_scan_cost = 150;       ///< per queue element traversed
  des::Duration unexpected_cost = 800;      ///< per unexpected message queued
  des::Duration rendezvous_cost = 800;      ///< per RTS/CTS handled
  double copy_bandwidth_Bps = 8e9;          ///< eager-buffer memcpy rate

  /// Thread-contention model (§4.3 / [24]): MPI implementations guard
  /// their internals with a global lock; when the calling thread differs
  /// from the previous caller, the lock (and its cache lines) must
  /// migrate.  This is the cost that makes multithreaded ACTIVATE sends
  /// "neutral or negative" for MPI (§6.4.3).
  des::Duration thread_switch_cost = 6 * des::kMicrosecond;

  /// Extra wire bytes per message for transport headers.
  std::uint64_t header_bytes = 64;
};

struct MpiStatus {
  int source = kAnySource;
  Tag tag = 0;
  std::size_t count = 0;
};

class Mpi;

/// Per-rank MPI library handle.  All calls must happen "on" the owning
/// simulated node; costs are charged to the calling thread.
class Rank {
 public:
  ~Rank();

  int rank() const { return rank_; }
  int size() const;

  // --- point-to-point -------------------------------------------------
  /// Blocking send.  Only valid for eager-size messages (the PaRSEC MPI
  /// backend uses MPI_Send exclusively for active messages, which are
  /// always eager-size); completes locally at the call.
  void send(const void* buf, std::size_t bytes, int dst, Tag tag);

  /// Nonblocking send.  `buf` may be null for virtual payloads.
  RequestId isend(const void* buf, std::size_t bytes, int dst, Tag tag);

  /// Nonblocking receive.  `buf` may be null (virtual); `src` may be
  /// kAnySource.
  RequestId irecv(void* buf, std::size_t capacity, int src, Tag tag);

  // --- persistent requests ---------------------------------------------
  /// A persistent receive owns no buffer: a completion borrows the
  /// arrived payload (received()); the modeled copy is charged anyway.
  RequestId recv_init(std::size_t capacity, int src, Tag tag);
  void start(RequestId req);

  /// The bytes persistent receive `req` last borrowed, truncated to its
  /// capacity, readable until start(), free, cancel or purge.  Empty for
  /// a message without payload and for an id naming no live request.
  std::span<const std::byte> received(RequestId req);

  // --- completion -------------------------------------------------------
  struct TestsomeResult {
    std::vector<std::size_t> indices;  ///< positions in the passed array
    std::vector<MpiStatus> statuses;   ///< parallel to indices
  };

  /// MPI_Testsome: progresses the library, then reports completed requests
  /// among `reqs` (kNullRequest entries are skipped) into `out`, which is
  /// cleared first; reusing one `out` across calls allocates nothing once
  /// its vectors have grown.  Completed persistent requests become
  /// inactive (restart with start()); completed ordinary requests are
  /// freed and their ids invalidated.
  void testsome(std::span<const RequestId> reqs, TestsomeResult& out);

  /// Value-returning form of the above.
  TestsomeResult testsome(std::span<const RequestId> reqs);

  /// MPI_Test on one request; on completion fills `st` (may be null) and,
  /// for non-persistent requests, frees the request.  An id that names no
  /// live request (already completed and freed) tests true with an empty
  /// status, like MPI_REQUEST_NULL.
  bool test(RequestId req, MpiStatus* st);

  /// Frees an inactive persistent request.  Unknown ids are ignored.
  void free_request(RequestId req);

  /// MPI_Cancel + MPI_Request_free in one step: drops a request even if
  /// it is still Active (a transfer wedged on a dead peer will never
  /// complete, so normal completion rules cannot apply).  Unknown ids are
  /// ignored.  Posted-receive queue entries for the request are removed.
  void cancel(RequestId req);

  /// Drops every request wedged on `peer` (Active sends to it, Active
  /// receives specifically from it) plus all queued traffic from it
  /// (hardware queue and unexpected-message queue).  Used by the ce layer
  /// when the failure detector confirms `peer` dead.  Returns the number
  /// of requests cancelled.
  std::size_t purge_peer(int peer);

  /// Progress-only call (like MPI_Testsome on an empty array): drains and
  /// matches the hardware queue without completing any caller request.
  void poll();

  /// Number of messages sitting in the hardware queue, not yet matched
  /// (visible for tests and instrumentation).
  std::size_t pending_incoming() const { return incoming_.size(); }

  /// The simulation engine driving this rank's fabric (for timestamps and
  /// tracing in layers that only hold a Rank).
  des::Engine& engine();

  /// Registers a hook invoked whenever hardware activity occurs for this
  /// rank (message arrival, local send completion).  Polling threads use
  /// it to park between MPI calls without missing events.  The hook runs
  /// in event context — it must only schedule work, not call back into
  /// the library.
  void set_event_notifier(std::function<void()> fn) {
    notifier_ = std::move(fn);
  }

 private:
  friend class Mpi;
  Rank(Mpi& mpi, int rank) : mpi_(mpi), rank_(rank) {}

  struct Request {
    enum class Kind { Send, Recv };
    enum class State { Inactive, Active, Complete };

    Kind kind = Kind::Recv;
    State state = State::Inactive;
    bool persistent = false;

    // Receive parameters.
    void* rbuf = nullptr;  ///< irecv only; persistent receives borrow
    std::size_t capacity = 0;
    int src = kAnySource;

    // Send parameters.
    std::size_t bytes = 0;
    int dst = -1;
    /// Send: the payload captured at isend time (rendezvous).  Persistent
    /// receive: the payload its last completion borrowed.
    net::PayloadPtr payload;

    Tag tag = 0;
    MpiStatus status;
    RequestId id = kNullRequest;
  };

  /// Takes a free slot (or grows the table) and returns its request,
  /// reset, with its id assigned.
  Request& alloc_request();
  /// The live request `id` names, or null (kNullRequest, stale, unknown).
  Request* find(RequestId id) { return requests_.find(id); }
  /// Marks `r` Complete, counting it as not yet reported.
  void mark_complete(Request& r);
  /// Hands a Complete request to the caller: persistent ones go Inactive,
  /// ordinary ones are freed.
  void report(Request& r);
  /// Resets `r` and frees its slot, so `r.id` stops resolving.
  void release(Request& r);
  void cancel_request(Request& r);

  void progress();
  void deliver(net::Message&& m);
  void handle_eager(net::Message& m);
  void accept_rts(Request& r, net::Message& rts);
  void handle_rts(net::Message& m);
  void handle_cts(net::Message& m);
  void handle_data(net::Message& m);
  Request* find_matching_posted(int src, Tag tag);
  void complete_recv_from_message(Request& r, net::Message& m);
  void post_recv(RequestId id);

  Mpi& mpi_;
  int rank_;
  des::Ring<net::Message> incoming_;        ///< hardware queue
  /// A posted receive's matching key, copied so that the matching walk
  /// reads one plain array instead of the request table.
  struct PostedRecv {
    RequestId id;
    int src;
    Tag tag;
  };
  std::vector<PostedRecv> posted_recvs_;    ///< posted-receive queue (FIFO)
  des::Ring<net::Message> unexpected_;      ///< unexpected-message queue
  des::Slab<Request> requests_;             ///< request table
  /// Live requests that are Complete but not yet reported by test or
  /// testsome.  While it is 0, testsome has nothing to find.
  std::size_t unreported_ = 0;
  std::function<void()> notifier_;
  const des::ChargeTarget* last_caller_ = nullptr;

  void notify() {
    if (notifier_) notifier_();
  }

  /// Charges the global-lock hand-off cost when the calling thread is not
  /// the one that made the previous MPI call on this rank.
  void charge_thread_switch();
};

/// The MPI "job": owns per-rank state and binds to the fabric.
class Mpi {
 public:
  Mpi(net::Fabric& fabric, Config config = {});
  ~Mpi();
  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  net::Fabric& fabric() { return fabric_; }
  const Config& config() const { return cfg_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }

 private:
  friend class Rank;

  net::Fabric& fabric_;
  Config cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace mmpi
