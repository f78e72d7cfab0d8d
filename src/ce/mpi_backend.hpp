// The MPI backend of the PaRSEC communication engine (paper §4.2).
//
// Mechanisms reproduced:
//   * tag_reg posts a fixed number (5) of persistent wildcard receives
//     (MPI_Recv_init + MPI_Start, MPI_ANY_SOURCE) per registered tag.
//   * send_am uses blocking eager MPI_Send with the AM tag.
//   * put() is emulated: a handshake active message announces target
//     address / size / data tag / remote callback, then the data moves
//     with nonblocking two-sided sends on a per-transfer unique tag.
//   * A global array of requests paired with a parallel callback array,
//     length 5*Nam + 30: at most 30 data transfers (sends + receives) are
//     actively polled.  Put-sends that find no space are deferred; data
//     receives posted by the handshake callback when the array is full
//     use dynamically allocated requests that are only polled once
//     promoted into the array (§4.2.2).
//   * progress() loops MPI_Testsome over the array, runs callbacks for
//     completions, compacts, starts deferred work FIFO, and repeats until
//     a pass completes nothing (§4.2.3).
//
// The modeled costs above are charged in simulated time.  On the host a
// progress pass that completes nothing allocates nothing: the request-id
// array, the testsome result and the handshake buffer are members reused
// across passes, and the array is compacted in place.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "ce/comm_engine.hpp"
#include "mmpi/mpi.hpp"

namespace obs {
class Histogram;
}

namespace ce {

class MpiBackend final : public CommEngine {
 public:
  MpiBackend(mmpi::Rank& rank, CeConfig cfg = {});
  ~MpiBackend() override;

  int rank() const override { return rank_.rank(); }
  int size() const override { return rank_.size(); }

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
    Tag tag = 0;
    AmCallback cb;
    void* cb_data = nullptr;
    std::size_t max_len = 0;
  };

  /// One entry of the global request array + parallel callback array.
  struct Entry {
    enum class Kind { AmRecv, DataSend, DataRecv };
    Kind kind = Kind::AmRecv;
    mmpi::RequestId req = mmpi::kNullRequest;
    // AmRecv: index of the registered tag in tags_, and the receive
    // buffer (its bytes stay put when the entry moves).
    std::size_t am = 0;
    std::vector<std::byte> buffer;
    // DataSend: origin-side completion.
    OnesidedCallback l_cb;
    void* l_cb_data = nullptr;
    MemReg lreg, rreg;
    std::ptrdiff_t ldispl = 0, rdispl = 0;
    std::size_t size = 0;
    int remote = -1;
    std::uint64_t data_tag = 0;
    // DataRecv: remote-completion callback data (a buffer recycled
    // through cb_spares_).
    Tag r_tag = 0;
    std::vector<std::byte> r_cb_data;
    int origin = -1;
    /// When this transfer entered the engine (put() call / handshake
    /// arrival) — start of the put_local/put_remote latency histograms.
    des::Time started = 0;
  };

  /// Deferred work, kept in one FIFO to preserve global start order.
  struct Pending {
    enum class What { StartSend, PromoteRecv };
    What what;
    Entry entry;  ///< fully formed; req set for PromoteRecv only
  };

  int data_entries_active() const {
    return static_cast<int>(entries_.size() - am_entries_);
  }
  const AmTagInfo* find_tag(Tag tag) const;
  void start_data_send(Entry&& e);
  void drain_pending();
  void handle_handshake(const void* msg, std::size_t size, int src);
  void run_am_callback(const Entry& e, const mmpi::MpiStatus& st);

  mmpi::Rank& rank_;
  CeConfig cfg_;
  CeStats stats_;
  /// Registered AM tags, in registration order.  A handful at most, so a
  /// linear scan beats hashing; tag_reg must not run inside a callback.
  std::vector<AmTagInfo> tags_;
  std::vector<Entry> entries_;        ///< the global array
  std::size_t am_entries_ = 0;        ///< AmRecv entries (never leave)
  std::deque<Pending> pending_;       ///< deferred sends + dynamic recvs
  std::uint64_t next_data_tag_;
  std::function<void()> wake_;
  obs::Recorder* rec_ = nullptr;
  obs::Histogram* put_local_ns_ = nullptr;   ///< null without a recorder
  obs::Histogram* put_remote_ns_ = nullptr;

  // Host scratch reused across progress passes.
  std::vector<mmpi::RequestId> ids_;         ///< entries_[i].req
  mmpi::Rank::TestsomeResult done_;          ///< this pass's completions
  std::vector<std::byte> handshake_buf_;     ///< packed outgoing handshake
  std::vector<std::vector<std::byte>> cb_spares_;  ///< released r_cb_data
};

}  // namespace ce
