#include "ce/mpi_backend.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>

#include "ce/put_protocol.hpp"
#include "des/sim_thread.hpp"
#include "obs/stats.hpp"

namespace ce {
namespace {

/// Internal AM tag carrying put handshakes.
constexpr Tag kHandshakeTag = 0xFFFF'FFFF'FFFF'0001ULL;
/// Data-transfer tags live in their own range; unique per origin.
constexpr Tag kDataTagBase = 0x8000'0000'0000'0000ULL;

}  // namespace

MpiBackend::MpiBackend(mmpi::Rank& rank, CeConfig cfg)
    : rank_(rank), cfg_(cfg), next_data_tag_(kDataTagBase) {
  // The handshake handler is itself a registered active message.
  const Status st = tag_reg(
      kHandshakeTag,
      [](CommEngine& ce, Tag, const void* msg, std::size_t size, int src,
         void* cb_data) {
        static_cast<MpiBackend*>(cb_data)->handle_handshake(msg, size, src);
        (void)ce;
      },
      this, sizeof(PutHandshake) + cfg_.max_am_size);
  assert(st == Status::Ok);
  (void)st;
}

MpiBackend::~MpiBackend() { rank_.set_event_notifier(nullptr); }

void MpiBackend::set_wake_callback(std::function<void()> fn) {
  wake_ = std::move(fn);
  rank_.set_event_notifier(wake_);
}

void MpiBackend::set_recorder(obs::Recorder* rec) {
  put_local_ns_ = rec != nullptr ? &rec->histogram("ce.put_local_ns") : nullptr;
  put_remote_ns_ =
      rec != nullptr ? &rec->histogram("ce.put_remote_ns") : nullptr;
}

const MpiBackend::AmTagInfo* MpiBackend::find_tag(Tag tag) const {
  for (const AmTagInfo& t : tags_) {
    if (t.tag == tag) return &t;
  }
  return nullptr;
}

Status MpiBackend::tag_reg(Tag tag, AmCallback cb, void* cb_data,
                           std::size_t max_len) {
  if (find_tag(tag) != nullptr) return Status::ErrTagDuplicate;
  const std::size_t am = tags_.size();
  tags_.push_back(AmTagInfo{tag, std::move(cb), cb_data, max_len});
  // Five persistent wildcard receives per tag (§4.2.1), bufferless.
  for (int i = 0; i < cfg_.persistent_recvs_per_tag; ++i) {
    const mmpi::RequestId req =
        rank_.recv_init(max_len, mmpi::kAnySource, tag);
    rank_.start(req);
    reqs_.push_back(req);
    handles_.push_back(
        Handle{Handle::Kind::AmRecv, static_cast<std::uint32_t>(am)});
    ++am_entries_;
  }
  return Status::Ok;
}

MemReg MpiBackend::mem_reg(void* mem, std::size_t size) {
  return MemReg{rank(), mem, size};
}

Status MpiBackend::send_am(Tag tag, int remote, const void* msg,
                           std::size_t size) {
  const AmTagInfo* t = find_tag(tag);
  if (t == nullptr) return Status::ErrTagUnregistered;
  // Oversized bodies would overflow the posted receive buffers.
  if (size > t->max_len) return Status::ErrTooLarge;
  // Blocking eager MPI_Send with the registered tag (§4.2.1).
  rank_.send(msg, size, remote, tag);
  ++stats_.ams_sent;
  return Status::Ok;
}

int MpiBackend::put(const MemReg& lreg, std::ptrdiff_t ldispl,
                    const MemReg& rreg, std::ptrdiff_t rdispl,
                    std::size_t size, int remote, OnesidedCallback l_cb,
                    void* l_cb_data, Tag r_tag, const void* r_cb_data,
                    std::size_t r_cb_data_size) {
  ++stats_.puts_started;
  const std::uint64_t data_tag = next_data_tag_++;

  // Handshake first: tells the target to post the matching receive.
  PutHandshake h;
  h.rbase = reinterpret_cast<std::uint64_t>(rreg.base);
  h.rdispl = rdispl;
  h.size = size;
  h.r_tag = r_tag;
  h.data_tag = data_tag;
  h.r_cb_size = static_cast<std::uint32_t>(r_cb_data_size);
  // Blocking eager send: the buffer is reusable when it returns.
  pack_handshake(handshake_buf_, h, r_cb_data, nullptr, 0);
  rank_.send(handshake_buf_.data(), handshake_buf_.size(), remote,
             kHandshakeTag);
  des::emit_flow(rank_.engine(), "put", put_flow_id(rank(), data_tag),
                 /*begin=*/true);

  const std::uint32_t slot = transfers_.acquire();
  Transfer& t = transfers_[slot];
  t.kind = Handle::Kind::DataSend;
  t.req = mmpi::kNullRequest;
  t.peer = remote;
  t.size = size;
  t.data_tag = data_tag;
  t.started = rank_.engine().now();
  t.l_cb = std::move(l_cb);
  t.l_cb_data = l_cb_data;
  t.lreg = lreg;
  t.rreg = rreg;
  t.ldispl = ldispl;
  t.rdispl = rdispl;

  if (data_entries_active() < cfg_.max_concurrent_transfers) {
    start_data_send(slot);
  } else {
    // No space in the global array: defer posting the send (§4.2.2).
    ++stats_.puts_deferred;
    deferred_.push_back(slot);
  }
  return 0;
}

void MpiBackend::push_transfer(std::uint32_t slot) {
  const Transfer& t = transfers_[slot];
  reqs_.push_back(t.req);
  handles_.push_back(Handle{t.kind, slot});
}

void MpiBackend::start_data_send(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  const void* src = nullptr;
  if (t.lreg.base != nullptr) {
    src = static_cast<const std::byte*>(t.lreg.base) + t.ldispl;
  }
  t.req = rank_.isend(src, t.size, t.peer, t.data_tag);
  push_transfer(slot);
}

void MpiBackend::release_transfer(std::uint32_t slot) {
  transfers_[slot].l_cb = nullptr;  // drops what the callback captured
  transfers_.release(slot);
}

void MpiBackend::handle_handshake(const void* msg, std::size_t size,
                                  int src) {
  const auto v = HandshakeView::parse(msg, size);
  const std::uint32_t slot = transfers_.acquire();
  Transfer& t = transfers_[slot];
  t.kind = Handle::Kind::DataRecv;
  t.peer = src;
  t.size = static_cast<std::size_t>(v.hdr.size);
  t.data_tag = v.hdr.data_tag;
  t.started = rank_.engine().now();
  t.r_tag = v.hdr.r_tag;
  t.r_cb_data.assign(v.r_cb_data, v.r_cb_data + v.hdr.r_cb_size);
  void* dst = nullptr;
  if (v.hdr.rbase != 0) {
    dst = reinterpret_cast<std::byte*>(v.hdr.rbase) + v.hdr.rdispl;
  }
  // The receive is posted either way; without array space the request is
  // "dynamically allocated" and not polled until promoted (§4.2.2).
  t.req = rank_.irecv(dst, t.size, src, v.hdr.data_tag);
  if (data_entries_active() < cfg_.max_concurrent_transfers) {
    push_transfer(slot);
  } else {
    ++stats_.recvs_dynamic;
    deferred_.push_back(slot);
  }
}

void MpiBackend::drain_pending() {
  while (!deferred_.empty() &&
         data_entries_active() < cfg_.max_concurrent_transfers) {
    const std::uint32_t slot = deferred_.pop_front();
    if (transfers_[slot].kind == Handle::Kind::DataSend) {
      start_data_send(slot);
    } else {
      push_transfer(slot);  // request already posted
    }
  }
}

void MpiBackend::run_am_callback(std::size_t am, mmpi::RequestId req,
                                 const mmpi::MpiStatus& st) {
  des::charge_current(cfg_.dispatch_cost);
  const AmTagInfo& t = tags_[am];
  ++stats_.ams_delivered;
  std::optional<des::ChargeSpan> span;
  if (rank_.engine().trace_sink() != nullptr) {
    char label[32];
    std::snprintf(label, sizeof label, "am 0x%llx",
                  static_cast<unsigned long long>(t.tag));
    span.emplace(rank_.engine(), label);
  }
  // The borrowed bytes stay readable until progress() restarts req.
  t.cb(*this, t.tag, rank_.received(req).data(), st.count, st.source,
       t.cb_data);
}

int MpiBackend::progress() {
  int total = 0;
  // §4.2.3: Testsome, execute callbacks, compact, start deferred work;
  // repeat until a pass completes nothing.
  for (;;) {
    des::charge_current(cfg_.loop_cost);
    rank_.testsome(reqs_, done_);
    if (done_.indices.empty()) break;

    for (std::size_t k = 0; k < done_.indices.size(); ++k) {
      const std::size_t idx = done_.indices[k];
      const mmpi::MpiStatus& st = done_.statuses[k];
      // Callbacks may append entries (reentrant put/send_am): read the
      // arrays by index, never hold references into them across a
      // callback.  Transfer slots keep their address.
      const Handle h = handles_[idx];
      switch (h.kind) {
        case Handle::Kind::AmRecv: {
          run_am_callback(h.index, reqs_[idx], st);
          rank_.start(reqs_[idx]);  // re-enable the persistent recv
          break;
        }
        case Handle::Kind::DataSend: {
          des::charge_current(cfg_.dispatch_cost);
          Transfer& t = transfers_[h.index];
          ++stats_.puts_completed_local;
          if (put_local_ns_ != nullptr) {
            put_local_ns_->add(
                static_cast<double>(rank_.engine().now() - t.started));
          }
          if (t.l_cb) {
            std::optional<des::ChargeSpan> span;
            if (rank_.engine().trace_sink() != nullptr) {
              span.emplace(rank_.engine(), "put.l_cb");
            }
            t.l_cb(*this, t.lreg, t.ldispl, t.rreg, t.rdispl, t.size, t.peer,
                   t.l_cb_data);
          }
          break;
        }
        case Handle::Kind::DataRecv: {
          des::charge_current(cfg_.dispatch_cost);
          ++stats_.puts_completed_remote;
          // Remote completion: invoke the AM callback registered for
          // r_tag with the callback data from the handshake.
          const Transfer& t = transfers_[h.index];
          if (put_remote_ns_ != nullptr) {
            put_remote_ns_->add(
                static_cast<double>(rank_.engine().now() - t.started));
          }
          const AmTagInfo* tag = find_tag(t.r_tag);
          assert(tag != nullptr && "put r_tag not registered");
          std::optional<des::ChargeSpan> span;
          if (rank_.engine().trace_sink() != nullptr) {
            span.emplace(rank_.engine(), "put.r_cb");
          }
          des::emit_flow(rank_.engine(), "put",
                         put_flow_id(t.peer, t.data_tag),
                         /*begin=*/false);
          tag->cb(*this, t.r_tag, t.r_cb_data.data(), t.r_cb_data.size(),
                  t.peer, tag->cb_data);
          break;
        }
      }
      ++total;
    }

    // Compact in place: completed data entries leave and free their
    // transfer slots, persistent AM receives stay.  Stable, because array
    // order is testsome index order, which is callback order; entries
    // appended by callbacks stay at the back.
    const std::vector<std::size_t>& done = done_.indices;
    std::size_t w = done.front();
    for (std::size_t i = w, k = 0; i < handles_.size(); ++i) {
      if (k < done.size() && done[k] == i) {
        ++k;
        if (handles_[i].kind != Handle::Kind::AmRecv) {
          release_transfer(handles_[i].index);
          continue;
        }
      }
      if (w != i) {
        reqs_[w] = reqs_[i];
        handles_[w] = handles_[i];
      }
      ++w;
    }
    reqs_.resize(w);
    handles_.resize(w);

    drain_pending();
  }
  return total;
}

void MpiBackend::peer_failed(int remote) {
  // A transfer wedged on a dead peer never completes through MPI: cancel
  // its request and release its array slot so the 30-entry cap (§4.2.2)
  // is not permanently consumed by a corpse.  Idempotent — after the
  // first call nothing matching `remote` remains.
  //
  // Put sends are locally complete the moment the data leaves the origin
  // buffer; their origin callback still fires (below, in array then FIFO
  // order) so upper layers can release the tile.  The remote side is
  // dead — no r_cb.  Receives are dropped without any callback: the data
  // never arrived, so faking remote completion would hand garbage to the
  // consumer.
  std::vector<std::uint32_t> released_sends;
  const auto drop = [&](std::uint32_t slot) {
    const Transfer& t = transfers_[slot];
    if (t.kind == Handle::Kind::DataSend) {
      ++stats_.peer_failed_sends;
      released_sends.push_back(slot);
    } else {
      ++stats_.peer_failed_recvs;
      release_transfer(slot);
    }
  };
  std::size_t w = 0;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    const Handle h = handles_[i];
    const bool doomed = h.kind != Handle::Kind::AmRecv &&
                        transfers_[h.index].peer == remote;
    if (!doomed) {
      if (w != i) {  // stable, in place
        reqs_[w] = reqs_[i];
        handles_[w] = h;
      }
      ++w;
      continue;
    }
    rank_.cancel(reqs_[i]);
    drop(h.index);
  }
  reqs_.resize(w);
  handles_.resize(w);

  // Deferred work targeting the corpse: deferred sends were never posted
  // (req unset); dynamic recvs hold a live request that must be dropped.
  deferred_.erase_if([&](std::uint32_t slot) {
    const Transfer& t = transfers_[slot];
    if (t.peer != remote) return false;
    if (t.kind == Handle::Kind::DataRecv) rank_.cancel(t.req);
    drop(slot);
    return true;
  });

  rank_.purge_peer(remote);
  for (const std::uint32_t slot : released_sends) {
    Transfer& t = transfers_[slot];
    if (t.l_cb) {
      t.l_cb(*this, t.lreg, t.ldispl, t.rreg, t.rdispl, t.size, t.peer,
             t.l_cb_data);
    }
    release_transfer(slot);
  }
  drain_pending();
  if (wake_) wake_();
}

bool MpiBackend::idle() const {
  // Every array transfer and every deferred one holds a live slot.
  return live_transfers() == 0 && rank_.pending_incoming() == 0;
}

}  // namespace ce
