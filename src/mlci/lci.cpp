#include "mlci/lci.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "net/payload_pool.hpp"

namespace mlci {
namespace {

// WireHeader::kind values for the mlci protocol.
enum : std::uint16_t {
  kAmImmediate = 1,
  kAmBuffered = 2,
  kRts = 3,
  kCts = 4,
  kData = 5,
  kPut = 6,  // native one-sided put (§7 future-work feature)
};

// An operation enters its slab with its whole state and leaves it reset,
// so a slot never carries one operation's state into the next.
template <class T>
std::uint64_t track(des::Slab<T>& slab, T&& op) {
  const std::uint32_t s = slab.acquire();
  slab[s] = std::move(op);
  return slab.id(s);
}
template <class T>
void retire(des::Slab<T>& slab, std::uint32_t s) {
  slab[s] = T{};
  slab.release(s);
}

}  // namespace

Lci::Lci(net::Fabric& fabric, Config config) : fabric_(fabric), cfg_(config) {
  const int n = fabric.num_nodes();
  devices_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto dev = std::unique_ptr<Device>(new Device(*this, r));
    dev->packets_free_ = cfg_.packet_pool_size;
    dev->immediate_free_ = cfg_.immediate_slots;
    dev->direct_free_ = cfg_.direct_slots;
    devices_.push_back(std::move(dev));
    fabric.nic(r).set_deliver_handler([this, r](net::Message&& m) {
      if (m.hdr.proto == net::kProtoLci) device(r).deliver(std::move(m));
    });
  }
}

Lci::~Lci() {
  for (int r = 0; r < size(); ++r) {
    fabric_.nic(r).set_deliver_handler(nullptr);
  }
}

void Device::deliver(net::Message&& m) {
  // Hardware queue; software costs are paid inside progress().
  incoming_.push_back(std::move(m));
  notify();
}

net::Message Device::base_message(int dst, Tag tag, std::uint16_t kind,
                                  std::size_t logical_size) const {
  net::Message m;
  m.src = rank_;
  m.dst = dst;
  m.wire_bytes = lci_.cfg_.header_bytes;
  m.hdr.proto = net::kProtoLci;
  m.hdr.kind = kind;
  m.hdr.tag = tag;
  m.hdr.size = logical_size;
  return m;
}

// ---------------------------------------------------------------------------
// Sends

Status Device::sends(int dst, Tag tag, const void* buf, std::size_t n) {
  const Config& cfg = lci_.cfg_;
  if (n > cfg.immediate_size) return Status::Invalid;
  des::charge_current(cfg.op_overhead);
  if (immediate_free_ == 0) return Status::Retry;
  --immediate_free_;
  net::Message m = base_message(dst, tag, kAmImmediate, n);
  m.wire_bytes += n;
  if (buf != nullptr && n > 0) m.payload = net::make_payload(buf, n);
  lci_.fabric_.nic(rank_).send(std::move(m), [this]() {
    // Send-queue slot returns: a hardware event consumers may be
    // back-pressure-parked on.
    ++immediate_free_;
    notify();
  });
  return Status::Ok;
}

Status Device::sendm(int dst, Tag tag, const void* buf, std::size_t n) {
  const Config& cfg = lci_.cfg_;
  if (n > cfg.buffered_size) return Status::Invalid;
  des::charge_current(cfg.op_overhead);
  if (packets_free_ == 0) return Status::Retry;
  --packets_free_;
  // Copy into the pre-registered packet: the user buffer is immediately
  // reusable; the packet returns to the pool once it leaves the NIC.
  if (buf != nullptr && n > 0) {
    des::charge_current(des::transfer_time(n, cfg.copy_bandwidth_Bps));
  }
  net::Message m = base_message(dst, tag, kAmBuffered, n);
  m.wire_bytes += n;
  if (buf != nullptr && n > 0) m.payload = net::make_payload(buf, n);
  lci_.fabric_.nic(rank_).send(std::move(m), [this]() {
    ++packets_free_;  // packet back in the pool
    notify();
  });
  return Status::Ok;
}

Status Device::sendd(int dst, Tag tag, const void* buf, std::size_t n,
                     Comp comp, void* user_context) {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.op_overhead);
  if (direct_free_ == 0) return Status::Retry;
  --direct_free_;

  DirectSend ds;
  ds.dst = dst;
  ds.tag = tag;
  ds.size = n;
  ds.comp = comp;
  ds.user_context = user_context;
  ds.seq = direct_seq_++;
  ds.awaiting_cts = true;
  if (buf != nullptr && n > 0) ds.payload = net::make_payload(buf, n);

  net::Message rts = base_message(dst, tag, kRts, n);
  rts.hdr.imm[0] = track(direct_sends_, std::move(ds));
  lci_.fabric_.nic(rank_).send(std::move(rts));
  return Status::Ok;
}

Status Device::putd(int dst, Tag tag, const void* buf, std::size_t n,
                    std::uint64_t remote_base, Comp comp,
                    const void* imm_data, std::size_t imm_size,
                    void* user_context) {
  const Config& cfg = lci_.cfg_;
  if (imm_size > cfg.buffered_size) return Status::Invalid;
  des::charge_current(cfg.op_overhead);
  if (direct_free_ == 0) return Status::Retry;
  --direct_free_;

  net::Message m = base_message(dst, tag, kPut, n);
  m.wire_bytes += n + imm_size;
  m.hdr.imm[0] = remote_base;
  m.hdr.imm[1] = imm_size;
  // Payload layout: [imm_size bytes of immediate data][data bytes].
  if (imm_size > 0 || (buf != nullptr && n > 0)) {
    auto body = net::PayloadPool::global().acquire_mutable(
        imm_size + (buf != nullptr ? n : 0));
    if (imm_size > 0) std::memcpy(body->data(), imm_data, imm_size);
    if (buf != nullptr && n > 0) {
      std::memcpy(body->data() + imm_size, buf, n);
    }
    m.payload = std::move(body);
  }
  DirectSend ds;
  ds.dst = dst;
  ds.tag = tag;
  ds.size = n;
  ds.comp = comp;
  ds.user_context = user_context;
  ds.seq = direct_seq_++;
  const std::uint64_t id = track(direct_sends_, std::move(ds));
  lci_.fabric_.nic(rank_).send(std::move(m),
                               [this, id]() { on_direct_sent(id); });
  return Status::Ok;
}

void Device::handle_put(net::Message& m) {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.event_cost);
  const auto imm_size = static_cast<std::size_t>(m.hdr.imm[1]);
  const auto n = static_cast<std::size_t>(m.hdr.size);
  auto* base = reinterpret_cast<std::byte*>(m.hdr.imm[0]);
  if (base != nullptr && m.payload != nullptr &&
      m.payload->size() >= imm_size + n) {
    // The RDMA write already landed (no CPU copy is charged).
    std::memcpy(base, m.payload->data() + imm_size, n);
  }
  if (put_handler_) {
    des::charge_current(cfg.handler_cost);
    Request req;
    req.type = Request::Type::RecvDone;
    req.peer = m.src;
    req.tag = m.hdr.tag;
    req.size = n;
    if (imm_size > 0 && m.payload != nullptr) {
      req.payload = net::make_payload(m.payload->data(), imm_size);
    }
    put_handler_(std::move(req));
  }
}

Status Device::recvd(int src, Tag tag, void* buf, std::size_t capacity,
                     Comp comp, void* user_context) {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.op_overhead);
  if (direct_free_ == 0) return Status::Retry;
  --direct_free_;
  posted_direct_.push_back(
      DirectRecv{src, tag, buf, capacity, comp, user_context});
  // A matching RTS may already be waiting; matching happens in progress(),
  // which the caller is responsible for driving (explicit-progress model).
  return Status::Ok;
}

// ---------------------------------------------------------------------------
// Completion delivery

void Device::complete(const Comp& comp, Request&& req) {
  const Config& cfg = lci_.cfg_;
  if (comp.fn_ != nullptr) {
    des::charge_current(cfg.handler_cost);
    comp.fn_(comp.ctx_, std::move(req));
  } else if (comp.queue_ != nullptr) {
    comp.queue_->queue_.push_back(std::move(req));
  } else if (comp.sync_ != nullptr) {
    comp.sync_->request_ = std::move(req);
    comp.sync_->signaled_ = true;
  }
}

// ---------------------------------------------------------------------------
// Progress

void Device::handle_incoming(net::Message& m) {
  const Config& cfg = lci_.cfg_;
  switch (m.hdr.kind) {
    case kAmImmediate:
    case kAmBuffered: {
      // Dynamic receive allocation: no posted receive, no matching.
      des::charge_current(cfg.alloc_cost + cfg.handler_cost);
      if (am_handler_) {
        Request req;
        req.type = Request::Type::Am;
        req.peer = m.src;
        req.tag = m.hdr.tag;
        req.size = static_cast<std::size_t>(m.hdr.size);
        req.payload = std::move(m.payload);
        am_handler_(std::move(req));
      }
      break;
    }
    case kRts:
      handle_rts(m);
      break;
    case kCts:
      handle_cts(m);
      break;
    case kData:
      handle_data(m);
      break;
    case kPut:
      handle_put(m);
      break;
    default:
      assert(false && "unknown mlci message kind");
  }
}

void Device::handle_rts(net::Message& m) {
  pending_rts_.push_back(std::move(m));
  try_match_rts();
}

void Device::try_match_rts() {
  const Config& cfg = lci_.cfg_;
  for (std::size_t r = 0; r < pending_rts_.size();) {
    const net::Message& rts = pending_rts_[r];
    bool matched = false;
    for (auto pr = posted_direct_.begin(); pr != posted_direct_.end(); ++pr) {
      des::charge_current(cfg.match_cost);
      if (pr->src == rts.src && pr->tag == rts.hdr.tag) {
        // Send clear-to-send carrying both sides' identifiers: the
        // sender's id and the matched receive's, both echoed in DATA.
        net::Message cts = base_message(rts.src, rts.hdr.tag, kCts, 0);
        cts.hdr.imm[0] = rts.hdr.imm[0];
        cts.hdr.imm[1] = track(matched_recvs_, std::move(*pr));
        posted_direct_.erase(pr);
        lci_.fabric_.nic(rank_).send(std::move(cts));
        matched = true;
        break;
      }
    }
    if (matched) {
      pending_rts_.take(r);
    } else {
      ++r;
    }
  }
}

void Device::handle_cts(net::Message& m) {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.event_cost);
  const std::uint64_t id = m.hdr.imm[0];
  DirectSend* ds = direct_sends_.find(id);
  assert(ds != nullptr && ds->awaiting_cts && "CTS for unknown direct send");
  ds->awaiting_cts = false;
  net::Message data = base_message(ds->dst, ds->tag, kData, ds->size);
  data.wire_bytes += ds->size;
  data.hdr.imm[0] = id;
  data.hdr.imm[1] = m.hdr.imm[1];
  data.payload = std::move(ds->payload);
  // Local completion once the RDMA write has drained from the NIC: a
  // hardware event consumed by a later progress() call.
  lci_.fabric_.nic(rank_).send(std::move(data),
                               [this, id]() { on_direct_sent(id); });
}

void Device::on_direct_sent(std::uint64_t id) {
  assert(direct_sends_.find(id) != nullptr &&
         "local completion of an unknown direct send");
  send_done(des::Slab<DirectSend>::slot_of(id));
  notify();
}

void Device::send_done(std::uint32_t slot) {
  const DirectSend& ds = direct_sends_[slot];
  Request req;
  req.type = Request::Type::SendDone;
  req.peer = ds.dst;
  req.tag = ds.tag;
  req.size = ds.size;
  req.user_context = ds.user_context;
  ++direct_free_;
  hw_completions_.push_back(PendingCompletion{ds.comp, std::move(req)});
  retire(direct_sends_, slot);
}

void Device::handle_data(net::Message& m) {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.event_cost);
  const std::uint64_t rid = m.hdr.imm[1];
  DirectRecv* found = matched_recvs_.find(rid);
  assert(found != nullptr && "DATA without matched recv");
  const DirectRecv dr = *found;
  retire(matched_recvs_, des::Slab<DirectRecv>::slot_of(rid));
  const auto n = static_cast<std::size_t>(m.hdr.size);
  const std::size_t copied = n < dr.capacity ? n : dr.capacity;
  if (dr.buf != nullptr && m.payload != nullptr && copied > 0) {
    // RDMA wrote into the registered buffer; model as free for the CPU.
    std::memcpy(dr.buf, m.payload->data(), copied);
  }
  ++direct_free_;
  Request req;
  req.type = Request::Type::RecvDone;
  req.peer = m.src;
  req.tag = m.hdr.tag;
  req.size = copied;
  req.user_context = dr.user_context;
  complete(dr.comp, std::move(req));
}

Device::PurgeResult Device::peer_failed(int peer) {
  PurgeResult res;
  // Direct sends parked on a CTS that will never come: free the slot and
  // defer a SendDone through the hardware CQ (the next progress() call
  // runs the handler on a real thread, mirroring the NIC-drain path), in
  // submission order.
  std::vector<std::uint32_t> wedged;
  for (std::uint32_t s = 0; s < direct_sends_.size(); ++s) {
    const DirectSend& ds = direct_sends_[s];
    if (direct_sends_.live(s) && ds.awaiting_cts && ds.dst == peer) {
      wedged.push_back(s);
    }
  }
  std::sort(wedged.begin(), wedged.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return direct_sends_[a].seq < direct_sends_[b].seq;
            });
  for (const std::uint32_t s : wedged) send_done(s);
  res.sends = wedged.size();
  // Receives matched (CTS sent) or merely posted against the corpse: the
  // DATA never arrives, so the slot is freed and no completion fires —
  // signalling RecvDone would hand a buffer of garbage to the consumer.
  for (std::uint32_t s = 0; s < matched_recvs_.size(); ++s) {
    if (matched_recvs_.live(s) && matched_recvs_[s].src == peer) {
      retire(matched_recvs_, s);
      ++direct_free_;
      ++res.recvs;
    }
  }
  for (auto it = posted_direct_.begin(); it != posted_direct_.end();) {
    if (it->src == peer) {
      it = posted_direct_.erase(it);
      ++direct_free_;
      ++res.recvs;
    } else {
      ++it;
    }
  }
  // Queued traffic from the corpse: an RTS left here could match a future
  // receive and wedge its slot on never-arriving DATA, so everything not
  // yet processed is discarded (fail-stop semantics).
  pending_rts_.erase_if(
      [peer](const net::Message& m) { return m.src == peer; });
  incoming_.erase_if([peer](const net::Message& m) { return m.src == peer; });
  if (res.sends > 0) notify();
  return res;
}

int Device::do_progress() {
  const Config& cfg = lci_.cfg_;
  des::charge_current(cfg.progress_poll_cost);
  int processed = 0;
  // Drain local hardware completions (send-side CQ).
  while (!hw_completions_.empty()) {
    des::charge_current(cfg.event_cost);
    PendingCompletion pc = hw_completions_.pop_front();
    complete(pc.comp, std::move(pc.request));
    ++processed;
  }
  // Drain incoming messages.
  while (!incoming_.empty()) {
    des::charge_current(cfg.event_cost);
    net::Message m = incoming_.pop_front();
    handle_incoming(m);
    ++processed;
  }
  // Newly posted receives may match queued RTS.
  if (!pending_rts_.empty() && !posted_direct_.empty()) try_match_rts();
  return processed;
}

int progress(Device& dev) { return dev.do_progress(); }

}  // namespace mlci
