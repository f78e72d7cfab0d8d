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
    Entry e;
    e.kind = Entry::Kind::AmRecv;
    e.am = am;
    e.req = rank_.recv_init(max_len, mmpi::kAnySource, tag);
    rank_.start(e.req);
    entries_.push_back(std::move(e));
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

  Entry e;
  e.kind = Entry::Kind::DataSend;
  e.l_cb = std::move(l_cb);
  e.l_cb_data = l_cb_data;
  e.lreg = lreg;
  e.rreg = rreg;
  e.ldispl = ldispl;
  e.rdispl = rdispl;
  e.size = size;
  e.remote = remote;
  e.data_tag = data_tag;
  e.started = rank_.engine().now();

  if (data_entries_active() < cfg_.max_concurrent_transfers) {
    start_data_send(std::move(e));
  } else {
    // No space in the global array: defer posting the send (§4.2.2).
    ++stats_.puts_deferred;
    pending_.push_back(Pending{Pending::What::StartSend, std::move(e)});
  }
  return 0;
}

void MpiBackend::start_data_send(Entry&& e) {
  const void* src = nullptr;
  if (e.lreg.base != nullptr) {
    src = static_cast<const std::byte*>(e.lreg.base) + e.ldispl;
  }
  e.req = rank_.isend(src, e.size, e.remote, e.data_tag);
  entries_.push_back(std::move(e));
}

void MpiBackend::handle_handshake(const void* msg, std::size_t size,
                                  int src) {
  const auto v = HandshakeView::parse(msg, size);
  Entry e;
  e.kind = Entry::Kind::DataRecv;
  e.r_tag = v.hdr.r_tag;
  if (v.hdr.r_cb_size > 0) {
    if (!cb_spares_.empty()) {
      e.r_cb_data = std::move(cb_spares_.back());
      cb_spares_.pop_back();
    }
    e.r_cb_data.assign(v.r_cb_data, v.r_cb_data + v.hdr.r_cb_size);
  }
  e.origin = src;
  e.size = static_cast<std::size_t>(v.hdr.size);
  e.data_tag = v.hdr.data_tag;
  e.started = rank_.engine().now();
  void* dst = nullptr;
  if (v.hdr.rbase != 0) {
    dst = reinterpret_cast<std::byte*>(v.hdr.rbase) + v.hdr.rdispl;
  }
  // The receive is posted either way; without array space the request is
  // "dynamically allocated" and not polled until promoted (§4.2.2).
  e.req = rank_.irecv(dst, e.size, src, v.hdr.data_tag);
  if (data_entries_active() < cfg_.max_concurrent_transfers) {
    entries_.push_back(std::move(e));
  } else {
    ++stats_.recvs_dynamic;
    pending_.push_back(Pending{Pending::What::PromoteRecv, std::move(e)});
  }
}

void MpiBackend::drain_pending() {
  while (!pending_.empty() &&
         data_entries_active() < cfg_.max_concurrent_transfers) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (p.what == Pending::What::StartSend) {
      start_data_send(std::move(p.entry));
    } else {
      entries_.push_back(std::move(p.entry));  // request already posted
    }
  }
}

void MpiBackend::run_am_callback(const Entry& e, const mmpi::MpiStatus& st) {
  des::charge_current(cfg_.dispatch_cost);
  const AmTagInfo& t = tags_[e.am];
  ++stats_.ams_delivered;
  std::optional<des::ChargeSpan> span;
  if (rank_.engine().trace_sink() != nullptr) {
    char label[32];
    std::snprintf(label, sizeof label, "am 0x%llx",
                  static_cast<unsigned long long>(t.tag));
    span.emplace(rank_.engine(), label);
  }
  // The borrowed bytes stay readable until progress() restarts e.req.
  t.cb(*this, t.tag, rank_.received(e.req).data(), st.count, st.source,
       t.cb_data);
}

int MpiBackend::progress() {
  int total = 0;
  // §4.2.3: Testsome, execute callbacks, compact, start deferred work;
  // repeat until a pass completes nothing.
  for (;;) {
    des::charge_current(cfg_.loop_cost);
    ids_.clear();
    for (const Entry& e : entries_) ids_.push_back(e.req);
    rank_.testsome(ids_, done_);
    if (done_.indices.empty()) break;

    for (std::size_t k = 0; k < done_.indices.size(); ++k) {
      const std::size_t idx = done_.indices[k];
      const mmpi::MpiStatus& st = done_.statuses[k];
      // Callbacks may append entries (reentrant put/send_am): access by
      // index, never hold references across a callback.
      switch (entries_[idx].kind) {
        case Entry::Kind::AmRecv: {
          run_am_callback(entries_[idx], st);
          rank_.start(entries_[idx].req);  // re-enable the persistent recv
          break;
        }
        case Entry::Kind::DataSend: {
          des::charge_current(cfg_.dispatch_cost);
          Entry& e = entries_[idx];
          ++stats_.puts_completed_local;
          if (put_local_ns_ != nullptr) {
            put_local_ns_->add(
                static_cast<double>(rank_.engine().now() - e.started));
          }
          if (e.l_cb) {
            std::optional<des::ChargeSpan> span;
            if (rank_.engine().trace_sink() != nullptr) {
              span.emplace(rank_.engine(), "put.l_cb");
            }
            e.l_cb(*this, e.lreg, e.ldispl, e.rreg, e.rdispl, e.size,
                   e.remote, e.l_cb_data);
          }
          break;
        }
        case Entry::Kind::DataRecv: {
          des::charge_current(cfg_.dispatch_cost);
          ++stats_.puts_completed_remote;
          // Remote completion: invoke the AM callback registered for
          // r_tag with the callback data from the handshake.
          const Entry& e = entries_[idx];
          if (put_remote_ns_ != nullptr) {
            put_remote_ns_->add(
                static_cast<double>(rank_.engine().now() - e.started));
          }
          const AmTagInfo* t = find_tag(e.r_tag);
          assert(t != nullptr && "put r_tag not registered");
          std::optional<des::ChargeSpan> span;
          if (rank_.engine().trace_sink() != nullptr) {
            span.emplace(rank_.engine(), "put.r_cb");
          }
          des::emit_flow(rank_.engine(), "put",
                         put_flow_id(e.origin, e.data_tag),
                         /*begin=*/false);
          t->cb(*this, e.r_tag, e.r_cb_data.data(), e.r_cb_data.size(),
                e.origin, t->cb_data);
          // Keep the buffer for the next handshake's callback data.
          std::vector<std::byte>& spent = entries_[idx].r_cb_data;
          if (spent.capacity() > 0) cb_spares_.push_back(std::move(spent));
          break;
        }
      }
      ++total;
    }

    // Compact in place: completed data entries leave, persistent AM
    // receives stay.  Stable, because array order is testsome index
    // order, which is callback order; entries appended by callbacks
    // stay at the back.
    const std::vector<std::size_t>& done = done_.indices;
    std::size_t w = done.front();
    for (std::size_t i = w, k = 0; i < entries_.size(); ++i) {
      if (k < done.size() && done[k] == i) {
        ++k;
        if (entries_[i].kind != Entry::Kind::AmRecv) continue;
      }
      if (w != i) entries_[w] = std::move(entries_[i]);
      ++w;
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(w),
                   entries_.end());

    drain_pending();
  }
  return total;
}

void MpiBackend::peer_failed(int remote) {
  // A transfer wedged on a dead peer never completes through MPI: cancel
  // its request and release its array slot so the 30-entry cap (§4.2.2)
  // is not permanently consumed by a corpse.  Idempotent — after the
  // first call nothing matching `remote` remains.
  std::vector<Entry> released_sends;
  std::size_t w = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    const bool doomed =
        (e.kind == Entry::Kind::DataSend && e.remote == remote) ||
        (e.kind == Entry::Kind::DataRecv && e.origin == remote);
    if (!doomed) {
      if (w != i) entries_[w] = std::move(e);  // stable, in place
      ++w;
      continue;
    }
    rank_.cancel(e.req);
    if (e.kind == Entry::Kind::DataSend) {
      // Put sends are locally complete the moment the data leaves the
      // origin buffer; the origin callback still fires so upper layers
      // can release the tile.  The remote side is dead — no r_cb.
      ++stats_.peer_failed_sends;
      released_sends.push_back(std::move(e));
    } else {
      // Dropped without any callback: the data never arrived, so faking
      // remote completion would hand garbage to the consumer.
      ++stats_.peer_failed_recvs;
    }
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(w),
                 entries_.end());

  // Deferred work targeting the corpse: deferred sends were never posted
  // (req unset); dynamic recvs hold a live request that must be dropped.
  for (auto it = pending_.begin(); it != pending_.end();) {
    Entry& e = it->entry;
    if (it->what == Pending::What::StartSend && e.remote == remote) {
      ++stats_.peer_failed_sends;
      released_sends.push_back(std::move(e));
      it = pending_.erase(it);
    } else if (it->what == Pending::What::PromoteRecv &&
               e.origin == remote) {
      rank_.cancel(e.req);
      ++stats_.peer_failed_recvs;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  rank_.purge_peer(remote);
  for (Entry& e : released_sends) {
    if (e.l_cb) {
      e.l_cb(*this, e.lreg, e.ldispl, e.rreg, e.rdispl, e.size, e.remote,
             e.l_cb_data);
    }
  }
  drain_pending();
  if (wake_) wake_();
}

bool MpiBackend::idle() const {
  if (!pending_.empty()) return false;
  if (rank_.pending_incoming() > 0) return false;
  return data_entries_active() == 0;
}

}  // namespace ce
