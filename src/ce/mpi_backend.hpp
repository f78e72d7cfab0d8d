// The MPI backend of the PaRSEC communication engine (paper §4.2).
//
// Mechanisms reproduced:
//   * tag_reg posts a fixed number (5) of persistent wildcard receives
//     (MPI_Recv_init + MPI_Start, MPI_ANY_SOURCE) per registered tag.
//     They own no buffer: callbacks read the payload mmpi borrowed.
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
// The modeled costs above are charged in simulated time.  On the host the
// array is two plain vectors, a request id and an 8-byte handle per entry,
// compacted in place; a transfer's state lives in a recycled slab slot
// that the deferred FIFO names by number.  A progress pass that completes
// nothing allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ce/comm_engine.hpp"
#include "des/ring.hpp"
#include "des/slab.hpp"
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
  /// Transfers holding state: in the array or deferred.
  std::size_t live_transfers() const { return transfers_.live_count(); }
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

  /// One position of the callback array, parallel to the request array
  /// reqs_: what completed there and where its state lives.
  struct Handle {
    enum class Kind : std::uint8_t { AmRecv, DataSend, DataRecv };
    Kind kind = Kind::AmRecv;
    /// AmRecv: index of the registered tag in tags_; otherwise the
    /// transfer's slot in transfers_.
    std::uint32_t index = 0;
  };

  /// One put's data transfer: the origin's send (DataSend) or the
  /// target's receive (DataRecv), from put() or handshake arrival until
  /// its completion leaves the array.  Slots are recycled, so r_cb_data
  /// keeps its capacity from one receive to the next.
  struct Transfer {
    Handle::Kind kind = Handle::Kind::DataSend;
    int peer = -1;  ///< the target of a send, the origin of a receive
    /// Posted request; unset for a deferred send until it starts.
    mmpi::RequestId req = mmpi::kNullRequest;
    std::size_t size = 0;
    std::uint64_t data_tag = 0;
    /// When this transfer entered the engine (put() call / handshake
    /// arrival) — start of the put_local/put_remote latency histograms.
    des::Time started = 0;
    // DataSend: origin-side completion.
    OnesidedCallback l_cb;
    void* l_cb_data = nullptr;
    MemReg lreg, rreg;
    std::ptrdiff_t ldispl = 0, rdispl = 0;
    // DataRecv: remote-completion callback and its data.
    Tag r_tag = 0;
    std::vector<std::byte> r_cb_data;
  };

  int data_entries_active() const {
    return static_cast<int>(handles_.size() - am_entries_);
  }
  const AmTagInfo* find_tag(Tag tag) const;
  /// Appends a posted transfer to the global array.
  void push_transfer(std::uint32_t slot);
  void start_data_send(std::uint32_t slot);
  void release_transfer(std::uint32_t slot);
  void drain_pending();
  void handle_handshake(const void* msg, std::size_t size, int src);
  void run_am_callback(std::size_t am, mmpi::RequestId req,
                       const mmpi::MpiStatus& st);

  mmpi::Rank& rank_;
  CeConfig cfg_;
  CeStats stats_;
  /// Registered AM tags, in registration order.  A handful at most, so a
  /// linear scan beats hashing; tag_reg must not run inside a callback.
  std::vector<AmTagInfo> tags_;
  // The global array (§4.2): requests, handed to testsome as they stand,
  // and the parallel callback handles.  AM receives never leave; data
  // transfers join at the back in start order.
  std::vector<mmpi::RequestId> reqs_;
  std::vector<Handle> handles_;
  std::size_t am_entries_ = 0;        ///< AmRecv entries
  des::Slab<Transfer> transfers_;     ///< state of every live transfer
  /// Deferred work in global start order: sends not yet posted and
  /// dynamically allocated receives, both waiting for array space.
  des::Ring<std::uint32_t> deferred_;
  std::uint64_t next_data_tag_;
  std::function<void()> wake_;
  obs::Histogram* put_local_ns_ = nullptr;   ///< null without a recorder
  obs::Histogram* put_remote_ns_ = nullptr;

  // Host scratch reused across progress passes.
  mmpi::Rank::TestsomeResult done_;          ///< this pass's completions
  std::vector<std::byte> handshake_buf_;     ///< packed outgoing handshake
};

}  // namespace ce
