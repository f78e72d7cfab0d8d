#include "mmpi/mpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mmpi {
namespace {

// WireHeader::kind values for the mmpi protocol.
enum : std::uint16_t {
  kEager = 1,  // payload inline
  kRts = 2,    // rendezvous ready-to-send
  kCts = 3,    // rendezvous clear-to-send
  kData = 4,   // rendezvous bulk data (modeled RDMA write)
};

}  // namespace

Rank::~Rank() = default;

Mpi::Mpi(net::Fabric& fabric, Config config)
    : fabric_(fabric), cfg_(config) {
  const int n = fabric.num_nodes();
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ranks_.emplace_back(std::unique_ptr<Rank>(new Rank(*this, r)));
    fabric.nic(r).set_deliver_handler([this, r](net::Message&& m) {
      if (m.hdr.proto == net::kProtoMpi) rank(r).deliver(std::move(m));
    });
  }
}

Mpi::~Mpi() {
  for (int r = 0; r < size(); ++r) {
    fabric_.nic(r).set_deliver_handler(nullptr);
  }
}

int Rank::size() const { return mpi_.size(); }

des::Engine& Rank::engine() { return mpi_.fabric().engine(); }

// ---------------------------------------------------------------------------
// Request table

Rank::Request& Rank::alloc_request() {
  const std::uint32_t slot = requests_.acquire();
  Request& r = requests_[slot];
  r.id = requests_.id(slot);
  return r;
}

void Rank::mark_complete(Request& r) {
  if (r.state != Request::State::Complete) ++unreported_;
  r.state = Request::State::Complete;
}

void Rank::report(Request& r) {
  assert(r.state == Request::State::Complete);
  if (r.persistent) {
    --unreported_;
    r.state = Request::State::Inactive;
  } else {
    release(r);
  }
}

void Rank::release(Request& r) {
  if (r.state == Request::State::Complete) --unreported_;
  const std::uint32_t slot = des::Slab<Request>::slot_of(r.id);
  r = Request{};  // drops a held payload now, not at slot reuse
  requests_.release(slot);
}

void Rank::charge_thread_switch() {
  const des::ChargeTarget* caller = des::ChargeTarget::current();
  if (caller == nullptr) return;  // test-driver calls model no CPU
  if (last_caller_ != nullptr && caller != last_caller_) {
    des::charge_current(mpi_.cfg_.thread_switch_cost);
  }
  last_caller_ = caller;
}

void Rank::deliver(net::Message&& m) {
  // Hardware queue: no software cost until some MPI call progresses.
  incoming_.push_back(std::move(m));
  notify();
}

// ---------------------------------------------------------------------------
// Sending

void Rank::send(const void* buf, std::size_t bytes, int dst, Tag tag) {
  assert(bytes <= mpi_.cfg_.eager_threshold &&
         "blocking mmpi send() supports only eager-size messages");
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead);
  if (buf != nullptr && bytes > 0) {
    des::charge_current(des::transfer_time(bytes, cfg.copy_bandwidth_Bps));
  }
  net::Message m;
  m.src = rank_;
  m.dst = dst;
  m.wire_bytes = cfg.header_bytes + bytes;
  m.hdr.proto = net::kProtoMpi;
  m.hdr.kind = kEager;
  m.hdr.tag = tag;
  m.hdr.size = bytes;
  if (buf != nullptr && bytes > 0) m.payload = net::make_payload(buf, bytes);
  mpi_.fabric_.nic(rank_).send(std::move(m));
}

RequestId Rank::isend(const void* buf, std::size_t bytes, int dst, Tag tag) {
  const Config& cfg = mpi_.cfg_;
  if (bytes <= cfg.eager_threshold) {
    // Eager: buffered semantics, locally complete at the call.
    send(buf, bytes, dst, tag);
    Request& req = alloc_request();
    req.kind = Request::Kind::Send;
    req.dst = dst;
    req.tag = tag;
    req.bytes = bytes;
    mark_complete(req);
    return req.id;
  }

  charge_thread_switch();
  des::charge_current(cfg.call_overhead + cfg.rendezvous_cost);
  Request& req = alloc_request();
  req.kind = Request::Kind::Send;
  req.state = Request::State::Active;
  req.bytes = bytes;
  req.dst = dst;
  req.tag = tag;
  if (buf != nullptr) req.payload = net::make_payload(buf, bytes);
  const RequestId id = req.id;

  net::Message rts;
  rts.src = rank_;
  rts.dst = dst;
  rts.wire_bytes = cfg.header_bytes;
  rts.hdr.proto = net::kProtoMpi;
  rts.hdr.kind = kRts;
  rts.hdr.tag = tag;
  rts.hdr.size = bytes;
  rts.hdr.imm[0] = id;
  mpi_.fabric_.nic(rank_).send(std::move(rts));
  return id;
}

// ---------------------------------------------------------------------------
// Receiving

RequestId Rank::irecv(void* buf, std::size_t capacity, int src, Tag tag) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request& req = alloc_request();
  req.kind = Request::Kind::Recv;
  req.state = Request::State::Active;
  req.rbuf = buf;
  req.capacity = capacity;
  req.src = src;
  req.tag = tag;
  const RequestId id = req.id;
  post_recv(id);
  return id;
}

RequestId Rank::recv_init(std::size_t capacity, int src, Tag tag) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request& req = alloc_request();
  req.kind = Request::Kind::Recv;
  req.persistent = true;
  req.capacity = capacity;
  req.src = src;
  req.tag = tag;
  return req.id;
}

void Rank::start(RequestId id) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request* found = find(id);
  assert(found != nullptr && "start() on unknown request");
  Request& r = *found;
  assert(r.persistent && r.state == Request::State::Inactive);
  r.state = Request::State::Active;
  r.payload.reset();
  post_recv(id);
}

std::span<const std::byte> Rank::received(RequestId id) {
  const Request* r = find(id);
  if (r == nullptr || r->payload == nullptr) return {};
  return {r->payload->data(), r->status.count};
}

void Rank::post_recv(RequestId id) {
  Request& r = *find(id);
  const Config& cfg = mpi_.cfg_;

  // First, search the unexpected queue (FIFO preserves MPI's
  // non-overtaking matching order).
  for (std::size_t i = 0; i < unexpected_.size(); ++i) {
    des::charge_current(cfg.match_scan_cost);
    const net::Message& m = unexpected_[i];
    const bool src_ok = (r.src == kAnySource || r.src == m.src);
    if (!src_ok || r.tag != m.hdr.tag) continue;
    if (m.hdr.kind == kEager) {
      net::Message eager = unexpected_.take(i);
      complete_recv_from_message(r, eager);
      return;
    }
    if (m.hdr.kind == kRts) {
      net::Message rts = unexpected_.take(i);
      accept_rts(r, rts);
      return;
    }
  }
  posted_recvs_.push_back(PostedRecv{id, r.src, r.tag});
}

void Rank::accept_rts(Request& r, net::Message& rts) {
  const Config& cfg = mpi_.cfg_;
  des::charge_current(cfg.rendezvous_cost);
  r.status.source = rts.src;
  r.status.tag = rts.hdr.tag;
  r.status.count = static_cast<std::size_t>(rts.hdr.size);
  net::Message cts;
  cts.src = rank_;
  cts.dst = rts.src;
  cts.wire_bytes = cfg.header_bytes;
  cts.hdr.proto = net::kProtoMpi;
  cts.hdr.kind = kCts;
  cts.hdr.tag = rts.hdr.tag;
  cts.hdr.imm[0] = rts.hdr.imm[0];  // sender's request id
  cts.hdr.imm[1] = r.id;            // our request id (for DATA routing)
  mpi_.fabric_.nic(rank_).send(std::move(cts));
}

// Eager and rendezvous DATA alike: the bytes, truncated to the capacity,
// are copied into an irecv's buffer or borrowed by a persistent receive.
void Rank::complete_recv_from_message(Request& r, net::Message& m) {
  const std::size_t count =
      std::min(static_cast<std::size_t>(m.hdr.size), r.capacity);
  if (m.payload != nullptr && count > 0 &&
      (r.persistent || r.rbuf != nullptr)) {
    // The eager copy out of the library's buffer is charged even when the
    // bytes are borrowed; rendezvous DATA is an RDMA write, no CPU copy.
    if (m.hdr.kind == kEager) {
      des::charge_current(
          des::transfer_time(count, mpi_.cfg_.copy_bandwidth_Bps));
    }
    if (r.persistent) {
      r.payload = std::move(m.payload);
    } else {
      std::memcpy(r.rbuf, m.payload->data(), count);
    }
  }
  r.status.source = m.src;
  r.status.tag = m.hdr.tag;
  r.status.count = count;
  mark_complete(r);
}

// ---------------------------------------------------------------------------
// Progress

Rank::Request* Rank::find_matching_posted(int src, Tag tag) {
  // One charge for the whole walk: match_scan_cost per element traversed.
  const auto it = std::find_if(
      posted_recvs_.begin(), posted_recvs_.end(), [&](const PostedRecv& p) {
        return (p.src == kAnySource || p.src == src) && p.tag == tag;
      });
  const bool found = it != posted_recvs_.end();
  const auto traversed = (it - posted_recvs_.begin()) + (found ? 1 : 0);
  des::charge_current(static_cast<des::Duration>(traversed) *
                      mpi_.cfg_.match_scan_cost);
  if (!found) return nullptr;
  Request* r = find(it->id);
  posted_recvs_.erase(it);
  return r;
}

void Rank::handle_eager(net::Message& m) {
  if (Request* r = find_matching_posted(m.src, m.hdr.tag)) {
    complete_recv_from_message(*r, m);
  } else {
    des::charge_current(mpi_.cfg_.unexpected_cost);
    unexpected_.push_back(std::move(m));
  }
}

void Rank::handle_rts(net::Message& m) {
  if (Request* r = find_matching_posted(m.src, m.hdr.tag)) {
    accept_rts(*r, m);
  } else {
    des::charge_current(mpi_.cfg_.unexpected_cost);
    unexpected_.push_back(std::move(m));
  }
}

void Rank::handle_cts(net::Message& m) {
  const Config& cfg = mpi_.cfg_;
  des::charge_current(cfg.rendezvous_cost);
  Request* found = find(m.hdr.imm[0]);
  assert(found != nullptr && "CTS for unknown send request");
  Request& r = *found;
  net::Message data;
  data.src = rank_;
  data.dst = m.src;
  data.wire_bytes = cfg.header_bytes + r.bytes;
  data.hdr.proto = net::kProtoMpi;
  data.hdr.kind = kData;
  data.hdr.tag = r.tag;
  data.hdr.size = r.bytes;
  data.hdr.imm[0] = m.hdr.imm[1];  // receiver's request id
  data.payload = r.payload;
  // Local completion when the last byte leaves the NIC (RDMA semantics:
  // the send buffer is then reusable).  The state flip is a hardware CQ
  // write; the completion is *observed* at the next test/testsome.
  const RequestId sid = r.id;
  mpi_.fabric_.nic(rank_).send(std::move(data), [this, sid]() {
    Request* s = find(sid);
    if (s == nullptr) return;  // cancelled meanwhile
    mark_complete(*s);
    notify();
  });
}

void Rank::handle_data(net::Message& m) {
  Request* found = find(m.hdr.imm[0]);
  assert(found != nullptr && "DATA for unknown recv request");
  complete_recv_from_message(*found, m);
}

void Rank::progress() {
  while (!incoming_.empty()) {
    net::Message m = incoming_.pop_front();
    switch (m.hdr.kind) {
      case kEager:
        handle_eager(m);
        break;
      case kRts:
        handle_rts(m);
        break;
      case kCts:
        handle_cts(m);
        break;
      case kData:
        handle_data(m);
        break;
      default:
        assert(false && "unknown mmpi message kind");
    }
  }
}

// ---------------------------------------------------------------------------
// Completion

void Rank::testsome(std::span<const RequestId> reqs, TestsomeResult& out) {
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead);
  progress();
  out.indices.clear();
  out.statuses.clear();
  // The modeled scan covers the whole array; the host scan stops once no
  // unreported completion is left anywhere on this rank.
  des::charge_current(static_cast<des::Duration>(reqs.size()) *
                      cfg.request_scan_cost);
  for (std::size_t i = 0; i < reqs.size() && unreported_ > 0; ++i) {
    Request* r = find(reqs[i]);
    if (r == nullptr || r->state != Request::State::Complete) continue;
    out.indices.push_back(i);
    out.statuses.push_back(r->status);
    report(*r);
  }
}

Rank::TestsomeResult Rank::testsome(std::span<const RequestId> reqs) {
  TestsomeResult out;
  testsome(reqs, out);
  return out;
}

bool Rank::test(RequestId id, MpiStatus* st) {
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead + cfg.request_scan_cost);
  progress();
  Request* r = find(id);
  if (r == nullptr) {
    if (st != nullptr) *st = MpiStatus{};
    return true;
  }
  if (r->state != Request::State::Complete) return false;
  if (st != nullptr) *st = r->status;
  report(*r);
  return true;
}

void Rank::poll() {
  charge_thread_switch();
  des::charge_current(mpi_.cfg_.call_overhead);
  progress();
}

void Rank::free_request(RequestId id) {
  Request* r = find(id);
  if (r == nullptr) return;
  assert(r->state != Request::State::Active && "freeing an active request");
  release(*r);
}

void Rank::cancel(RequestId id) {
  if (Request* r = find(id)) cancel_request(*r);
}

void Rank::cancel_request(Request& r) {
  if (r.state == Request::State::Active && r.kind == Request::Kind::Recv) {
    const auto it = std::find_if(
        posted_recvs_.begin(), posted_recvs_.end(),
        [&r](const PostedRecv& p) { return p.id == r.id; });
    if (it != posted_recvs_.end()) posted_recvs_.erase(it);
  }
  release(r);
}

std::size_t Rank::purge_peer(int peer) {
  // Queued traffic from the dead peer will never be matched: flush it
  // from the hardware and unexpected queues before touching requests so
  // no handler resurrects it.
  const auto from_peer = [peer](const net::Message& m) {
    return m.src == peer;
  };
  incoming_.erase_if(from_peer);
  unexpected_.erase_if(from_peer);

  std::size_t cancelled = 0;
  for (std::uint32_t s = 0; s < requests_.size(); ++s) {
    Request& r = requests_[s];
    if (!requests_.live(s) || r.state != Request::State::Active) continue;
    // Wildcard receives stay posted — another rank can still match.
    const bool doomed =
        (r.kind == Request::Kind::Send && r.dst == peer) ||
        (r.kind == Request::Kind::Recv && r.src == peer);
    if (!doomed) continue;
    cancel_request(r);
    ++cancelled;
  }
  return cancelled;
}

}  // namespace mmpi
