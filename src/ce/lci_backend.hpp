// The LCI backend of the PaRSEC communication engine (paper §5.3).
//
// Mechanisms reproduced:
//   * A dedicated progress thread runs LCI_progress: it drains hardware
//     completions, matches Direct transfers, and runs handler functions —
//     fully decoupled from callback execution (§5.3.1).  Disable it with
//     CeConfig::progress_thread = false (ablation: progress then happens
//     inside progress() on the communication thread, MPI-style).
//   * Active-message tags live in a hash table mapping tag -> callback
//     handle; registration is a table insert, no receives posted (§5.3.2).
//   * send_am picks the Immediate or Buffered protocol by size; receive
//     buffers are dynamically allocated at the target (§5.3.2).
//   * put() sends a handshake (Immediate/Buffered by size) on a
//     specialized path that bypasses the AM hash lookup, then moves data
//     with the Direct protocol.  Small data rides inside the handshake
//     (the eager-data optimization) and completes locally at once
//     (§5.3.3).
//   * The handshake handler posts the matching Direct receive from the
//     progress thread; when LCI returns Retry (resource pressure), the
//     receive is delegated to the communication thread (§5.3.3).
//   * Completion callbacks are queued as handles into two FIFO queues (AM
//     vs bulk data); progress() takes up to 5 AM handles, then all bulk
//     handles, looping until both are empty (§5.3.4).
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ce/comm_engine.hpp"
#include "ce/reliable.hpp"
#include "des/ring.hpp"
#include "des/rng.hpp"
#include "des/sim_thread.hpp"
#include "des/slab.hpp"
#include "mlci/lci.hpp"

namespace ce {

class LciBackend final : public CommEngine {
 public:
  /// The progress thread is created only when cfg.progress_thread is set.
  LciBackend(mlci::Device& device, des::Engine& engine, CeConfig cfg = {});
  ~LciBackend() override;

  int rank() const override { return dev_.rank(); }
  int size() const override;

  Status tag_reg(Tag tag, AmCallback cb, void* cb_data,
                 std::size_t max_len) override;
  MemReg mem_reg(void* mem, std::size_t size) override;
  Status send_am(Tag tag, int remote, const void* msg,
                 std::size_t size) override;
  int put(const MemReg& lreg, std::ptrdiff_t ldispl, const MemReg& rreg,
          std::ptrdiff_t rdispl, std::size_t size, int remote,
          OnesidedCallback l_cb, void* l_cb_data, Tag r_tag,
          const void* r_cb_data, std::size_t r_cb_data_size) override;
  int progress() override;
  void peer_failed(int remote) override;
  bool idle() const override;
  void set_wake_callback(std::function<void()> fn) override;
  const CeStats& stats() const override { return stats_; }
  void set_recorder(obs::Recorder* rec) override;

 private:
  struct AmTagInfo {
    AmCallback cb;
    void* cb_data = nullptr;
    std::size_t max_len = 0;
  };

  /// Callback handle: filled by the progress thread, consumed by the
  /// communication thread through the FIFO queues (§5.3.2/§5.3.4).
  struct AmHandle {
    Tag tag = 0;
    int src = -1;
    net::PayloadPtr payload;
    std::size_t size = 0;
    des::Time arrived = 0;  ///< FIFO entry time ("ce.am_queue_ns")
  };
  /// A put's completion at one end.  Handles live in `handles_` from the
  /// put call (origin) or handshake arrival (target) until dispatch; mlci
  /// carries the handle's address as the operation's user_context, and
  /// the data FIFO holds addresses too.  Recycled slots keep the capacity
  /// of their callback-data buffer.
  struct DataHandle {
    enum class Kind { LocalDone, RemoteDone };
    Kind kind = Kind::LocalDone;
    // LocalDone
    OnesidedCallback l_cb;
    void* l_cb_data = nullptr;
    MemReg lreg, rreg;
    std::ptrdiff_t ldispl = 0, rdispl = 0;
    std::size_t size = 0;
    int remote = -1;
    // RemoteDone
    Tag r_tag = 0;
    std::vector<std::byte> r_cb_data;
    int origin = -1;
    std::uint64_t flow_id = 0;  ///< put trace-flow id (origin, data_tag)
    bool in_recv = false;       ///< Direct receive posted to mlci
    std::uint32_t slot = 0;     ///< its slot in handles_
    /// Put start (origin call / handshake arrival): put_local/put_remote
    /// latency base.
    des::Time started = 0;
    des::Time queued = 0;  ///< FIFO entry time ("ce.data_queue_ns")
  };
  /// A Direct receive that hit Retry on the progress thread and was
  /// delegated to the communication thread.
  struct PendingRecv {
    int src = -1;
    std::uint64_t data_tag = 0;
    void* dst = nullptr;
    std::size_t size = 0;
    DataHandle* remote_done = nullptr;  ///< pushed when the data lands
  };
  /// An AM or handshake whose send hit Retry (pool exhaustion).
  struct PendingSend {
    int remote = -1;
    Tag wire_tag = 0;
    std::vector<std::byte> body;
  };
  /// A Direct data send (or native put) that hit Retry.
  struct PendingDataSend {
    int remote = -1;
    std::uint64_t data_tag = 0;
    const void* src = nullptr;
    std::size_t size = 0;
    DataHandle* local_done = nullptr;
    // Native-put fields (cfg.native_put).
    bool native = false;
    std::uint64_t remote_base = 0;
    std::vector<std::byte> imm;  ///< filled only once parked
  };

  void on_am_arrival(mlci::Request&& req);      // progress-thread context
  void handle_handshake(mlci::Request&& req);   // progress-thread context
  void on_native_put(mlci::Request&& req);      // progress-thread context
  // mlci completion handlers; `self` is the backend, the request's
  // user_context the DataHandle.
  static void on_send_done(void* self, mlci::Request&& req);
  static void on_recv_done(void* self, mlci::Request&& req);
  bool post_data_recv(const PendingRecv& pr);   // false => Retry
  bool start_data_send(const PendingDataSend& ps, const void* imm,
                       std::size_t imm_size);   // false => Retry
  mlci::Status send_wire_am(int remote, Tag wire_tag, const void* body,
                            std::size_t size);  // Immediate/Buffered by size
  /// Sends the packed handshake, parking a copy when mlci says Retry.
  void send_handshake(int remote);
  DataHandle* acquire_handle();
  void release_handle(DataHandle* h);
  DataHandle* local_done_handle(const MemReg& lreg, std::ptrdiff_t ldispl,
                                const MemReg& rreg, std::ptrdiff_t rdispl,
                                std::size_t size, int remote,
                                OnesidedCallback&& l_cb, void* l_cb_data,
                                des::Time started);
  void push_data_handle(DataHandle* h);
  void dispatch_data_handle(DataHandle* h);
  void wake_comm_thread();
  int drain_retries();
  void arm_retry_timer();
  void clear_retry_pacing();
  bool has_retries() const {
    return !retry_sends_.empty() || !retry_recvs_.empty() ||
           !retry_data_sends_.empty();
  }

  mlci::Device& dev_;
  des::Engine& eng_;
  CeConfig cfg_;
  CeStats stats_;
  std::unordered_map<Tag, AmTagInfo> tags_;

  des::Ring<AmHandle> am_fifo_;
  des::Ring<DataHandle*> data_fifo_;
  des::Ring<PendingRecv> retry_recvs_;
  des::Ring<PendingSend> retry_sends_;
  des::Ring<PendingDataSend> retry_data_sends_;
  des::Slab<DataHandle> handles_;
  std::vector<std::byte> handshake_buf_;  ///< reused handshake packing

  std::optional<des::PollThread> progress_thread_;  ///< none when disabled

  // Retry pacing: instead of hot-spinning drain_retries() on every
  // progress() pass while mlci keeps answering Retry, attempts back off
  // exponentially (with jitter, same Backoff policy as the reliability
  // sublayer) until either the timer expires or the progress thread
  // signals that resources were actually freed.
  Backoff retry_backoff_;
  des::Rng retry_rng_;
  des::Time retry_next_at_ = 0;   ///< gate: no drain before this time
  des::EventId retry_timer_ = des::kInvalidEvent;

  std::uint64_t next_data_tag_;
  std::uint64_t outstanding_direct_ = 0;  ///< sends with pending local done
  std::function<void()> wake_;
  // Queue-wait and put-completion histograms, resolved once by
  // set_recorder; null without a recorder.
  obs::Histogram* am_queue_ns_ = nullptr;
  obs::Histogram* data_queue_ns_ = nullptr;
  obs::Histogram* put_local_ns_ = nullptr;
  obs::Histogram* put_remote_ns_ = nullptr;
};

}  // namespace ce
