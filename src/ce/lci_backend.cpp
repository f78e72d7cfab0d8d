#include "ce/lci_backend.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "ce/put_protocol.hpp"
#include "obs/stats.hpp"

namespace ce {
namespace {

/// Reserved wire tag for put handshakes: the device AM handler recognizes
/// it structurally and bypasses the AM hash-table lookup (§5.3.3).
constexpr Tag kLciHandshakeTag = 0xFFFF'FFFF'FFFF'0002ULL;
constexpr Tag kDataTagBase = 0x8000'0000'0000'0000ULL;

}  // namespace

LciBackend::LciBackend(mlci::Device& device, des::Engine& engine,
                       CeConfig cfg)
    : dev_(device), eng_(engine), cfg_(cfg),
      retry_rng_(des::derive_seed(0xB0FFULL,
                                  static_cast<std::uint64_t>(device.rank()))),
      next_data_tag_(kDataTagBase) {
  dev_.set_am_handler(
      [this](mlci::Request&& req) { on_am_arrival(std::move(req)); });
  dev_.set_put_handler(
      [this](mlci::Request&& req) { on_native_put(std::move(req)); });

  if (cfg_.progress_thread) {
    // §5.3.1: a thread dedicated to LCI_progress, decoupling progress on
    // existing communications from callback execution.
    progress_thread_.emplace(
        eng_, "lci-progress-" + std::to_string(dev_.rank()), cfg_.loop_cost,
        [this]() {
          const int n = mlci::progress(dev_);
          // Progress may have freed the resources a Retry-parked
          // operation is waiting for; those retries live on the
          // communication thread (§5.3.3), so lift the backoff gate and
          // hand it the baton.
          if (n > 0 && has_retries()) {
            clear_retry_pacing();
            wake_comm_thread();
          }
          return n > 0;
        });
    dev_.set_event_notifier([this]() { progress_thread_->wake(); });
    progress_thread_->wake();
  } else {
    // Ablation: no progress thread; the communication thread must drive
    // LCI progress from within progress().
    dev_.set_event_notifier([this]() { wake_comm_thread(); });
  }
}

LciBackend::~LciBackend() {
  if (retry_timer_ != des::kInvalidEvent) {
    eng_.cancel(retry_timer_);
    retry_timer_ = des::kInvalidEvent;
  }
  dev_.set_event_notifier(nullptr);
  dev_.set_am_handler(nullptr);
  dev_.set_put_handler(nullptr);
}

int LciBackend::size() const { return dev_.num_ranks(); }

void LciBackend::set_wake_callback(std::function<void()> fn) {
  wake_ = std::move(fn);
}

void LciBackend::set_recorder(obs::Recorder* rec) {
  const auto resolve = [rec](const char* name) {
    return rec != nullptr ? &rec->histogram(name) : nullptr;
  };
  am_queue_ns_ = resolve("ce.am_queue_ns");
  data_queue_ns_ = resolve("ce.data_queue_ns");
  put_local_ns_ = resolve("ce.put_local_ns");
  put_remote_ns_ = resolve("ce.put_remote_ns");
}

void LciBackend::wake_comm_thread() {
  if (wake_) wake_();
}

Status LciBackend::tag_reg(Tag tag, AmCallback cb, void* cb_data,
                           std::size_t max_len) {
  // §5.3.2: registration is a hash-table insert; no receives are posted
  // and no buffers are pre-committed.
  if (tags_.contains(tag)) return Status::ErrTagDuplicate;
  if (max_len > cfg_.max_am_size) return Status::ErrTooLarge;
  tags_.emplace(tag, AmTagInfo{std::move(cb), cb_data, max_len});
  return Status::Ok;
}

MemReg LciBackend::mem_reg(void* mem, std::size_t size) {
  return MemReg{rank(), mem, size};
}

mlci::Status LciBackend::send_wire_am(int remote, Tag wire_tag,
                                      const void* body, std::size_t size) {
  const auto& lcfg = dev_.config();
  if (size <= lcfg.immediate_size) {
    return dev_.sends(remote, wire_tag, body, size);
  }
  return dev_.sendm(remote, wire_tag, body, size);
}

Status LciBackend::send_am(Tag tag, int remote, const void* msg,
                           std::size_t size) {
  const auto it = tags_.find(tag);
  if (it == tags_.end()) return Status::ErrTagUnregistered;
  if (size > it->second.max_len) return Status::ErrTooLarge;
  const mlci::Status st = send_wire_am(remote, tag, msg, size);
  if (st == mlci::Status::Invalid) return Status::ErrTooLarge;
  ++stats_.ams_sent;
  if (st == mlci::Status::Retry) {
    // Back-pressure: park the message; the communication thread retries.
    PendingSend ps;
    ps.remote = remote;
    ps.wire_tag = tag;
    const auto* b = static_cast<const std::byte*>(msg);
    ps.body.assign(b, b + size);
    retry_sends_.push_back(std::move(ps));
    wake_comm_thread();
  }
  return Status::Ok;
}

// ---------------------------------------------------------------------------
// Data handles

LciBackend::DataHandle* LciBackend::acquire_handle() {
  const std::uint32_t slot = handles_.acquire();
  DataHandle* h = &handles_[slot];
  h->slot = slot;
  return h;
}

void LciBackend::release_handle(DataHandle* h) {
  h->l_cb = nullptr;
  h->r_cb_data.clear();  // keeps its capacity for the next occupant
  h->in_recv = false;
  handles_.release(h->slot);
}

LciBackend::DataHandle* LciBackend::local_done_handle(
    const MemReg& lreg, std::ptrdiff_t ldispl, const MemReg& rreg,
    std::ptrdiff_t rdispl, std::size_t size, int remote,
    OnesidedCallback&& l_cb, void* l_cb_data, des::Time started) {
  DataHandle* h = acquire_handle();
  h->kind = DataHandle::Kind::LocalDone;
  h->l_cb = std::move(l_cb);
  h->l_cb_data = l_cb_data;
  h->lreg = lreg;
  h->rreg = rreg;
  h->ldispl = ldispl;
  h->rdispl = rdispl;
  h->size = size;
  h->remote = remote;
  h->started = started;
  return h;
}

void LciBackend::push_data_handle(DataHandle* h) {
  h->queued = eng_.now();
  data_fifo_.push_back(h);
  wake_comm_thread();
}

// ---------------------------------------------------------------------------
// put

void LciBackend::send_handshake(int remote) {
  if (send_wire_am(remote, kLciHandshakeTag, handshake_buf_.data(),
                   handshake_buf_.size()) != mlci::Status::Ok) {
    PendingSend ps;
    ps.remote = remote;
    ps.wire_tag = kLciHandshakeTag;
    ps.body = handshake_buf_;
    retry_sends_.push_back(std::move(ps));
    wake_comm_thread();
  }
}

int LciBackend::put(const MemReg& lreg, std::ptrdiff_t ldispl,
                    const MemReg& rreg, std::ptrdiff_t rdispl,
                    std::size_t size, int remote, OnesidedCallback l_cb,
                    void* l_cb_data, Tag r_tag, const void* r_cb_data,
                    std::size_t r_cb_data_size) {
  ++stats_.puts_started;
  const des::Time put_start = eng_.now();
  const std::uint64_t data_tag = next_data_tag_++;
  des::emit_flow(eng_, "put", put_flow_id(rank(), data_tag),
                 /*begin=*/true);
  const void* src = nullptr;
  if (lreg.base != nullptr) {
    src = static_cast<const std::byte*>(lreg.base) + ldispl;
  }

  PutHandshake h;
  h.rbase = reinterpret_cast<std::uint64_t>(rreg.base);
  h.rdispl = rdispl;
  h.size = size;
  h.r_tag = r_tag;
  h.data_tag = data_tag;
  h.r_cb_size = static_cast<std::uint32_t>(r_cb_data_size);

  if (cfg_.native_put) {
    // §7 future work: a single one-sided message — no handshake AM, no
    // rendezvous round-trip, remote completion via the put handler.
    PendingDataSend ds;
    ds.native = true;
    ds.remote = remote;
    ds.data_tag = data_tag;
    ds.src = src;
    ds.size = size;
    ds.remote_base = reinterpret_cast<std::uint64_t>(
        rreg.base == nullptr
            ? nullptr
            : static_cast<std::byte*>(rreg.base) + rdispl);
    pack_handshake(handshake_buf_, h, r_cb_data, nullptr, 0);
    ds.local_done = local_done_handle(lreg, ldispl, rreg, rdispl, size,
                                      remote, std::move(l_cb), l_cb_data,
                                      put_start);
    if (!start_data_send(ds, handshake_buf_.data(), handshake_buf_.size())) {
      ds.imm = handshake_buf_;
      retry_data_sends_.push_back(std::move(ds));
      wake_comm_thread();
    }
    return 0;
  }

  const auto& lcfg = dev_.config();
  const bool eager =
      cfg_.eager_put_max > 0 && size <= cfg_.eager_put_max &&
      sizeof(PutHandshake) + r_cb_data_size + size <= lcfg.buffered_size;

  if (eager) {
    // §5.3.3: small data rides inside the handshake; no Direct transfer,
    // and the local completion callback runs immediately.
    h.flags |= kHandshakeEagerData;
    pack_handshake(handshake_buf_, h, r_cb_data, src, size);
    send_handshake(remote);
    ++stats_.eager_puts;
    ++stats_.puts_completed_local;
    if (put_local_ns_ != nullptr) {
      // Eager local completion is immediate; the histogram still records
      // it so put_local distributions reflect the eager fraction.
      put_local_ns_->add(static_cast<double>(eng_.now() - put_start));
    }
    if (l_cb) {
      l_cb(*this, lreg, ldispl, rreg, rdispl, size, remote, l_cb_data);
    }
    return 0;
  }

  pack_handshake(handshake_buf_, h, r_cb_data, nullptr, 0);
  send_handshake(remote);

  PendingDataSend ds;
  ds.remote = remote;
  ds.data_tag = data_tag;
  ds.src = src;
  ds.size = size;
  ds.local_done = local_done_handle(lreg, ldispl, rreg, rdispl, size, remote,
                                    std::move(l_cb), l_cb_data, put_start);
  if (!start_data_send(ds, nullptr, 0)) {
    retry_data_sends_.push_back(std::move(ds));
    wake_comm_thread();
  }
  return 0;
}

bool LciBackend::start_data_send(const PendingDataSend& ps, const void* imm,
                                 std::size_t imm_size) {
  // Local completion runs on_send_done on the progress thread: it pushes
  // the handle to the bulk-data FIFO for the communication thread
  // (§5.3.3).
  const mlci::Comp comp = mlci::Comp::handler(&LciBackend::on_send_done, this);
  const mlci::Status st =
      ps.native ? dev_.putd(ps.remote, ps.data_tag, ps.src, ps.size,
                            ps.remote_base, comp, imm, imm_size, ps.local_done)
                : dev_.sendd(ps.remote, ps.data_tag, ps.src, ps.size, comp,
                             ps.local_done);
  if (st != mlci::Status::Ok) return false;
  ++outstanding_direct_;
  return true;
}

void LciBackend::on_send_done(void* self, mlci::Request&& req) {
  auto& be = *static_cast<LciBackend*>(self);
  --be.outstanding_direct_;
  be.push_data_handle(static_cast<DataHandle*>(req.user_context));
}

void LciBackend::on_recv_done(void* self, mlci::Request&& req) {
  auto* h = static_cast<DataHandle*>(req.user_context);
  h->in_recv = false;
  static_cast<LciBackend*>(self)->push_data_handle(h);
}

// ---------------------------------------------------------------------------
// Progress-thread-side handlers

void LciBackend::on_am_arrival(mlci::Request&& req) {
  if (req.tag == kLciHandshakeTag) {
    handle_handshake(std::move(req));
    return;
  }
  // Ordinary AM: allocate a callback handle, push to the shared FIFO for
  // the communication thread (§5.3.2).
  AmHandle h;
  h.tag = req.tag;
  h.src = req.peer;
  h.payload = std::move(req.payload);
  h.size = req.size;
  h.arrived = eng_.now();
  am_fifo_.push_back(std::move(h));
  wake_comm_thread();
}

void LciBackend::on_native_put(mlci::Request&& req) {
  // Remote completion of a native put (§7 future work).  The immediate
  // data is a PutHandshake header plus the remote-callback bytes.
  assert(req.payload != nullptr);
  const auto v =
      HandshakeView::parse(req.payload->data(), req.payload->size());
  DataHandle* done = acquire_handle();
  done->kind = DataHandle::Kind::RemoteDone;
  done->r_tag = v.hdr.r_tag;
  done->r_cb_data.assign(v.r_cb_data, v.r_cb_data + v.hdr.r_cb_size);
  done->origin = req.peer;
  done->flow_id = put_flow_id(req.peer, v.hdr.data_tag);
  done->size = req.size;
  done->started = eng_.now();
  push_data_handle(done);
}

void LciBackend::handle_handshake(mlci::Request&& req) {
  assert(req.payload != nullptr && "handshake must carry a body");
  const auto v = HandshakeView::parse(req.payload->data(),
                                      req.payload->size());
  DataHandle* done = acquire_handle();
  done->kind = DataHandle::Kind::RemoteDone;
  done->r_tag = v.hdr.r_tag;
  done->r_cb_data.assign(v.r_cb_data, v.r_cb_data + v.hdr.r_cb_size);
  done->origin = req.peer;
  done->flow_id = put_flow_id(req.peer, v.hdr.data_tag);
  done->size = static_cast<std::size_t>(v.hdr.size);
  done->started = eng_.now();

  std::byte* dst = nullptr;
  if (v.hdr.rbase != 0) {
    dst = reinterpret_cast<std::byte*>(v.hdr.rbase) + v.hdr.rdispl;
  }

  if ((v.hdr.flags & kHandshakeEagerData) != 0) {
    if (dst != nullptr && v.eager_data != nullptr) {
      std::memcpy(dst, v.eager_data, static_cast<std::size_t>(v.hdr.size));
    }
    push_data_handle(done);
    return;
  }

  PendingRecv pr;
  pr.src = req.peer;
  pr.data_tag = v.hdr.data_tag;
  pr.dst = dst;
  pr.size = static_cast<std::size_t>(v.hdr.size);
  pr.remote_done = done;
  if (!post_data_recv(pr)) {
    // §5.3.3: cannot retry on the progress thread (recursion hazard);
    // delegate the receive to the communication thread.
    retry_recvs_.push_back(std::move(pr));
    ++stats_.retries_delegated;
    wake_comm_thread();
  }
}

bool LciBackend::post_data_recv(const PendingRecv& pr) {
  const mlci::Status st = dev_.recvd(
      pr.src, pr.data_tag, pr.dst, pr.size,
      mlci::Comp::handler(&LciBackend::on_recv_done, this), pr.remote_done);
  if (st != mlci::Status::Ok) return false;
  pr.remote_done->in_recv = true;
  return true;
}

// ---------------------------------------------------------------------------
// Communication-thread side

void LciBackend::dispatch_data_handle(DataHandle* h) {
  des::charge_current(cfg_.dispatch_cost);
  if (data_queue_ns_ != nullptr) {
    data_queue_ns_->add(static_cast<double>(eng_.now() - h->queued));
  }
  // The handle stays taken while its callback runs (a callback may put,
  // and must not be handed this slot), and is recycled after.
  if (h->kind == DataHandle::Kind::LocalDone) {
    ++stats_.puts_completed_local;
    if (put_local_ns_ != nullptr) {
      put_local_ns_->add(static_cast<double>(eng_.now() - h->started));
    }
    if (h->l_cb) {
      std::optional<des::ChargeSpan> span;
      if (eng_.trace_sink() != nullptr) span.emplace(eng_, "put.l_cb");
      h->l_cb(*this, h->lreg, h->ldispl, h->rreg, h->rdispl, h->size,
              h->remote, h->l_cb_data);
    }
  } else {
    ++stats_.puts_completed_remote;
    if (put_remote_ns_ != nullptr) {
      put_remote_ns_->add(static_cast<double>(eng_.now() - h->started));
    }
    const auto it = tags_.find(h->r_tag);
    assert(it != tags_.end() && "put r_tag not registered");
    std::optional<des::ChargeSpan> span;
    if (eng_.trace_sink() != nullptr) span.emplace(eng_, "put.r_cb");
    des::emit_flow(eng_, "put", h->flow_id, /*begin=*/false);
    it->second.cb(*this, h->r_tag, h->r_cb_data.data(), h->r_cb_data.size(),
                  h->origin, it->second.cb_data);
  }
  release_handle(h);
}

int LciBackend::drain_retries() {
  int resumed = 0;
  while (!retry_sends_.empty()) {
    PendingSend& ps = retry_sends_.front();
    const mlci::Status st = send_wire_am(ps.remote, ps.wire_tag,
                                         ps.body.data(), ps.body.size());
    if (st != mlci::Status::Ok) {
      assert(st == mlci::Status::Retry && "parked send turned invalid");
      break;  // still no resources
    }
    retry_sends_.pop_front();
    ++resumed;
  }
  // Strict FIFO: attempt the front, pop only on success.  Rotating the
  // queue on failure would let the two sides of a rendezvous work on
  // mismatched subsets and livelock under tight resource limits.
  while (!retry_recvs_.empty()) {
    if (!post_data_recv(retry_recvs_.front())) break;
    retry_recvs_.pop_front();
    ++resumed;
  }
  while (!retry_data_sends_.empty()) {
    const PendingDataSend& ps = retry_data_sends_.front();
    if (!start_data_send(ps, ps.imm.data(), ps.imm.size())) break;
    retry_data_sends_.pop_front();
    ++resumed;
  }
  if (has_retries()) {
    // The front is still blocked: pace the next attempt instead of
    // retrying on every progress() pass.
    retry_next_at_ = eng_.now() + retry_backoff_.next(retry_rng_);
    arm_retry_timer();
  } else {
    clear_retry_pacing();
  }
  return resumed;
}

void LciBackend::arm_retry_timer() {
  // Push a still-pending timer out in place; only a fired/cleared timer
  // needs a fresh event.
  if (retry_timer_ != des::kInvalidEvent &&
      eng_.reschedule(retry_timer_, retry_next_at_)) {
    return;
  }
  retry_timer_ = eng_.schedule_at(retry_next_at_, [this]() {
    retry_timer_ = des::kInvalidEvent;
    wake_comm_thread();
  });
}

void LciBackend::clear_retry_pacing() {
  if (retry_timer_ != des::kInvalidEvent) {
    eng_.cancel(retry_timer_);
    retry_timer_ = des::kInvalidEvent;
  }
  retry_next_at_ = 0;
  retry_backoff_.reset();
}

int LciBackend::progress() {
  int total = 0;
  for (;;) {
    des::charge_current(cfg_.loop_cost);
    int processed = 0;
    if (has_retries() && eng_.now() >= retry_next_at_) {
      processed += drain_retries();
    }
    if (!cfg_.progress_thread) {
      // Ablation mode: the communication thread doubles as the progress
      // engine, like the MPI backend's coupled design.
      const int n = mlci::progress(dev_);
      // Completions may free the resources the parked front is waiting
      // on: lift the pacing gate so the next pass retries immediately.
      if (n > 0 && has_retries()) clear_retry_pacing();
      processed += n;
    }
    // §5.3.4: up to five AM completion handles, then all available bulk
    // handles; loop until nothing completes.
    for (int i = 0; i < cfg_.am_fairness_batch && !am_fifo_.empty(); ++i) {
      const AmHandle h = am_fifo_.pop_front();
      des::charge_current(cfg_.dispatch_cost);
      const auto it = tags_.find(h.tag);
      assert(it != tags_.end() && "AM for unregistered tag");
      ++stats_.ams_delivered;
      if (am_queue_ns_ != nullptr) {
        am_queue_ns_->add(static_cast<double>(eng_.now() - h.arrived));
      }
      const void* body = h.payload ? h.payload->data() : nullptr;
      std::optional<des::ChargeSpan> span;
      if (eng_.trace_sink() != nullptr) {
        char label[32];
        std::snprintf(label, sizeof label, "am 0x%llx",
                      static_cast<unsigned long long>(h.tag));
        span.emplace(eng_, label);
      }
      it->second.cb(*this, h.tag, body, h.size, h.src, it->second.cb_data);
      ++processed;
    }
    while (!data_fifo_.empty()) {
      dispatch_data_handle(data_fifo_.pop_front());
      ++processed;
    }
    total += processed;
    if (processed == 0) break;
  }
  return total;
}

void LciBackend::peer_failed(int remote) {
  // Retry-parked work aimed at the corpse would otherwise block the FIFO
  // head forever (strict-FIFO drain) and starve live peers.  Idempotent.
  std::size_t sends = 0;
  std::size_t recvs = 0;
  retry_sends_.erase_if(
      [&](const PendingSend& ps) { return ps.remote == remote; });
  retry_recvs_.erase_if([&](const PendingRecv& pr) {
    if (pr.src != remote) return false;
    ++recvs;  // dropped without completing: the data never arrived
    release_handle(pr.remote_done);
    return true;
  });
  // Local-complete semantics: the origin buffer is reusable, so the
  // local callback still fires (through the bulk FIFO, like any other
  // local completion).  No slot was held — start_data_send failed.
  retry_data_sends_.erase_if([&](const PendingDataSend& ps) {
    if (ps.remote != remote) return false;
    ps.local_done->queued = eng_.now();
    data_fifo_.push_back(ps.local_done);
    ++sends;
    return true;
  });
  if (!has_retries()) clear_retry_pacing();

  // Device-level: direct sends awaiting CTS complete-as-cancelled (their
  // Comp handlers run inside the next progress pass), wedged receives
  // and queued RTS from the corpse are dropped.
  const mlci::Device::PurgeResult purged = dev_.peer_failed(remote);
  sends += purged.sends;
  recvs += purged.recvs;
  // The receives mlci dropped never complete: recycle their handles.
  for (std::uint32_t s = 0; s < handles_.size(); ++s) {
    DataHandle& h = handles_[s];
    if (h.in_recv && h.origin == remote) release_handle(&h);
  }
  stats_.peer_failed_sends += sends;
  stats_.peer_failed_recvs += recvs;
  if (sends + recvs > 0) wake_comm_thread();
}

bool LciBackend::idle() const {
  return am_fifo_.empty() && data_fifo_.empty() && retry_sends_.empty() &&
         retry_recvs_.empty() && retry_data_sends_.empty() &&
         outstanding_direct_ == 0 && dev_.pending_hw_events() == 0;
}

}  // namespace ce
