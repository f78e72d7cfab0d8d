#include "ce/reliable.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "des/trace_sink.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stats.hpp"

namespace ce {
namespace {

/// WireHeader::kind values for kProtoRel control frames.
enum : std::uint16_t { kRelAck = 1, kRelNack = 2 };

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;  // reflected poly
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C, eight
// bytes per step.  Words are loaded with memcpy: payloads need not be
// aligned.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

bool cpu_has_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t n,
                              std::uint32_t seed) {
  const auto& table = crc32c_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
#if defined(__x86_64__)
  static const bool hw = cpu_has_sse42();
  if (hw) return crc32c_sse42(data, n, seed);
#endif
  return detail::crc32c_portable(data, n, seed);
}

std::uint32_t message_crc(const net::Message& m) {
  // Hash the fields individually (not the struct bytes) so padding never
  // participates.  rel_crc itself is excluded, rel_seq is covered.
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(m.src),
      static_cast<std::uint64_t>(m.dst),
      m.wire_bytes,
      static_cast<std::uint64_t>(m.hdr.proto) << 16 | m.hdr.kind,
      static_cast<std::uint64_t>(m.hdr.flags),
      m.hdr.tag,
      m.hdr.seq,
      m.hdr.size,
      m.hdr.imm[0],
      m.hdr.imm[1],
      m.hdr.imm[2],
      m.hdr.imm[3],
      m.hdr.rel_seq,
  };
  std::uint32_t c = crc32c(fields, sizeof fields);
  if (m.payload != nullptr && !m.payload->empty()) {
    c = crc32c(m.payload->data(), m.payload->size(), c);
  }
  return c;
}

des::Duration Backoff::next(des::Rng& rng) {
  double d = static_cast<double>(base);
  for (int i = 0; i < attempt_; ++i) d *= factor;
  d = std::min(d, static_cast<double>(cap));
  ++attempt_;
  if (jitter > 0) d *= rng.uniform(1.0, 1.0 + jitter);
  auto delay = static_cast<des::Duration>(d);
  return delay > 0 ? delay : 1;
}

// ---------------------------------------------------------------------------
// ReliableChannel

ReliableChannel::ReliableChannel(ReliableDomain& domain, net::Fabric& fabric,
                                 net::NodeId node)
    : domain_(domain), fabric_(fabric), eng_(fabric.engine()), node_(node),
      rng_(des::derive_seed(domain.cfg_.seed,
                            static_cast<std::uint64_t>(node))) {
  const auto n = static_cast<std::size_t>(fabric.num_nodes());
  next_seq_.resize(n, 0);
  unacked_.resize(n);
  recv_.resize(n);
  peer_dead_.resize(n, false);
  err_logged_.resize(n, false);
}

ReliableChannel::~ReliableChannel() { cancel_timers(); }

std::uint32_t ReliableChannel::slab_acquire() {
  const std::uint32_t slot = slab_.acquire();
  slab_[slot].hot = UnackedHot{};
  return slot;
}

void ReliableChannel::slab_release(std::uint32_t slot) {
  slab_[slot].msg = net::Message{};  // drop the payload reference now
  slab_.release(slot);
}

std::size_t ReliableChannel::window_find(const std::vector<SeqSlot>& w,
                                         std::uint64_t seq) {
  const auto it = std::lower_bound(
      w.begin(), w.end(), seq,
      [](const SeqSlot& e, std::uint64_t s) { return e.seq < s; });
  if (it == w.end() || it->seq != seq) return SIZE_MAX;
  return static_cast<std::size_t>(it - w.begin());
}

void ReliableChannel::cancel_timers() {
  for (auto& peer : unacked_) {
    for (const SeqSlot& e : peer) {
      UnackedHot& u = slab_[e.slot].hot;
      if (u.timer != des::kInvalidEvent) {
        eng_.cancel(u.timer);
        u.timer = des::kInvalidEvent;
      }
    }
  }
}

std::size_t ReliableChannel::unacked() const {
  std::size_t n = 0;
  for (const auto& peer : unacked_) n += peer.size();
  return n;
}

void ReliableChannel::peer_dead(net::NodeId peer) {
  const auto i = static_cast<std::size_t>(peer);
  if (peer_dead_[i]) return;
  peer_dead_[i] = true;
  // Cancel every outstanding RTO timer to the dead peer and fail the
  // messages recoverably.  Collect first: the error callback may send
  // (recovery traffic) and mutate unacked_.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(unacked_[i].size());
  for (const SeqSlot& e : unacked_[i]) {
    UnackedHot& u = slab_[e.slot].hot;
    if (u.timer != des::kInvalidEvent) eng_.cancel(u.timer);
    seqs.push_back(e.seq);
    slab_release(e.slot);
  }
  unacked_[i].clear();
  domain_.stats_.peer_dead_fails += seqs.size();
  if (domain_.on_error_) {
    for (const std::uint64_t seq : seqs) {
      domain_.on_error_(node_, peer, seq, Status::ErrPeerDead);
    }
  }
}

void ReliableChannel::peer_alive(net::NodeId peer) {
  peer_dead_[static_cast<std::size_t>(peer)] = false;
}

void ReliableChannel::shim_send(net::Message&& m,
                                std::function<void()> on_sent) {
  net::Nic& nic = fabric_.nic(node_);
  if (m.dst == node_ || m.hdr.proto == net::kProtoRel) {
    // Loopback is a memory copy (never faulted) and control frames manage
    // themselves: neither is tracked.
    nic.raw_send(std::move(m), std::move(on_sent));
    return;
  }

  const auto peer = static_cast<std::size_t>(m.dst);
  if (peer_dead_[peer]) {
    // Fast-fail: the destination is confirmed dead, so transmitting (and
    // then burning the whole retry budget) is pure waste.  The local
    // completion still fires — the send buffer is "reusable" exactly as
    // if the frame had left the NIC — and the failure surfaces
    // immediately through the error callback.
    ++domain_.stats_.peer_dead_fails;
    const net::NodeId dst = m.dst;
    if (on_sent) {
      eng_.schedule_on(net::Fabric::shard_of(node_), eng_.now(),
                       std::move(on_sent));
    }
    if (domain_.on_error_) {
      domain_.on_error_(node_, dst, 0, Status::ErrPeerDead);
    }
    return;
  }
  const std::uint64_t seq = ++next_seq_[peer];
  m.hdr.rel_seq = seq;
  m.hdr.rel_crc = message_crc(m);

  // Size-aware initial timeout: the message may sit behind everything
  // already queued on our egress pipe, then needs a full round trip
  // (data out, ACK back) before an ACK can possibly arrive.
  const ReliableConfig& cfg = domain_.cfg_;
  const des::Time now = eng_.now();
  const des::Duration queue_wait =
      std::max<des::Duration>(0, nic.egress_free_at() - now);
  const des::Duration round_trip =
      fabric_.serialization_time(m.wire_bytes) +
      fabric_.serialization_time(cfg.ack_bytes) +
      2 * fabric_.latency(node_, m.dst);
  const std::uint32_t slot = slab_acquire();
  UnackedHot& u = slab_[slot].hot;
  u.first_sent = now;
  u.rto = cfg.rto_initial + cfg.rtt_factor * round_trip + queue_wait;
  u.rto_cap = std::max(cfg.rto_max, 2 * u.rto);
  const net::NodeId dst = m.dst;
  slab_[slot].msg = std::move(m);
  // seqs are handed out monotonically per peer, so the window stays
  // sorted by construction.
  unacked_[peer].push_back(SeqSlot{seq, slot});

  ++domain_.stats_.data_sent;
  transmit(dst, seq, std::move(on_sent));
  arm_timer(dst, seq);
}

void ReliableChannel::transmit(net::NodeId dst, std::uint64_t seq,
                               std::function<void()> on_sent) {
  auto& peer = unacked_[static_cast<std::size_t>(dst)];
  const std::size_t i = window_find(peer, seq);
  assert(i != SIZE_MAX);
  net::Message copy = slab_[peer[i].slot].msg;  // payload pointer shared
  fabric_.nic(node_).raw_send(std::move(copy), std::move(on_sent));
}

void ReliableChannel::arm_timer(net::NodeId dst, std::uint64_t seq) {
  auto& peer = unacked_[static_cast<std::size_t>(dst)];
  const std::size_t i = window_find(peer, seq);
  assert(i != SIZE_MAX);
  UnackedHot& u = slab_[peer[i].slot].hot;
  des::Duration delay = u.rto;
  const double j = domain_.cfg_.rto_jitter;
  if (j > 0) {
    delay = static_cast<des::Duration>(static_cast<double>(delay) *
                                       rng_.uniform(1.0, 1.0 + j));
  }
  // Reschedule a still-pending timer in place (the NACK fast-retransmit
  // path): the callback stays parked in its event slot, no cancel
  // tombstone, no new slot.  A fired timer needs a fresh event.
  if (u.timer != des::kInvalidEvent &&
      eng_.reschedule(u.timer, eng_.now() + delay)) {
    return;
  }
  u.timer = eng_.schedule_on(net::Fabric::shard_of(node_),
                             eng_.now() + delay,
                             [this, dst, seq]() { on_timer(dst, seq); });
}

void ReliableChannel::on_timer(net::NodeId dst, std::uint64_t seq) {
  auto& peer = unacked_[static_cast<std::size_t>(dst)];
  const std::size_t i = window_find(peer, seq);
  if (i == SIZE_MAX) return;  // ACKed between firing and dispatch
  slab_[peer[i].slot].hot.timer = des::kInvalidEvent;
  expire(dst, seq);
}

void ReliableChannel::expire(net::NodeId dst, std::uint64_t seq) {
  auto& peer = unacked_[static_cast<std::size_t>(dst)];
  const std::size_t i = window_find(peer, seq);
  assert(i != SIZE_MAX);
  const std::uint32_t slot = peer[i].slot;
  UnackedHot& u = slab_[slot].hot;

  if (static_cast<int>(u.attempts) - 1 >= domain_.cfg_.max_retries) {
    // Retry budget exhausted: give up recoverably.
    ++domain_.stats_.timeouts;
    obs::FlightRecorder::global().record(node_, obs::FlightKind::RelTimeout,
                                         eng_.now(), 0,
                                         static_cast<std::uint64_t>(dst), seq);
    if (u.timer != des::kInvalidEvent) eng_.cancel(u.timer);
    const DeliveryErrorCallback& cb = domain_.on_error_;
    const ReliableDomain::SuspicionHook& hook = domain_.on_suspect_;
    peer.erase(peer.begin() + static_cast<std::ptrdiff_t>(i));
    slab_release(slot);
    // A burned retry budget is strong evidence the peer is down: always
    // feed the suspicion hook (the failure detector), whether or not an
    // error callback consumes the loss itself.
    if (hook) hook(node_, dst);
    if (cb) {
      cb(node_, dst, seq, Status::ErrTimeout);
    } else if (!hook) {
      // Nobody is listening.  Surface the loss through obs — once per
      // peer, so a dead node's stream of give-ups doesn't flood — instead
      // of silently discarding it.
      ++domain_.stats_.unhandled_errors;
      if (!err_logged_[static_cast<std::size_t>(dst)]) {
        err_logged_[static_cast<std::size_t>(dst)] = true;
        std::fprintf(stderr,
                     "ce.rel: node %d gave up on peer %d (seq %llu, %s) "
                     "with no error callback installed\n",
                     node_, dst, static_cast<unsigned long long>(seq),
                     status_name(Status::ErrTimeout));
      }
    }
    return;
  }

  ++u.attempts;
  ++domain_.stats_.retransmits;
  obs::FlightRecorder::global().record(node_, obs::FlightKind::RelRetransmit,
                                       eng_.now(), 0,
                                       static_cast<std::uint64_t>(dst), seq);
  if (des::TraceSink* const sink = eng_.trace_sink()) {
    // Mark the retransmission on the sender's egress track so traces show
    // why a flow arrow spans several RTOs.
    char label[48];
    std::snprintf(label, sizeof label, "rel.retransmit seq=%llu",
                  static_cast<unsigned long long>(seq));
    char track[32];
    std::snprintf(track, sizeof track, "nic%d.egress", node_);
    sink->instant(track, label, eng_.now());
  }
  u.rto = std::min(static_cast<des::Duration>(
                       static_cast<double>(u.rto) * domain_.cfg_.rto_backoff),
                   u.rto_cap);
  transmit(dst, seq, nullptr);
  arm_timer(dst, seq);
}

void ReliableChannel::send_control(net::NodeId dst, std::uint16_t kind,
                                   std::uint64_t seq) {
  net::Message c;
  c.src = node_;
  c.dst = dst;
  c.wire_bytes = domain_.cfg_.ack_bytes;
  c.hdr.proto = net::kProtoRel;
  c.hdr.kind = kind;
  c.hdr.imm[0] = seq;
  c.hdr.rel_crc = message_crc(c);
  fabric_.nic(node_).raw_send(std::move(c));
}

void ReliableChannel::on_control(const net::Message& m) {
  const auto peer = static_cast<std::size_t>(m.src);
  auto& outstanding = unacked_[peer];
  const std::size_t i = window_find(outstanding, m.hdr.imm[0]);
  if (i == SIZE_MAX) return;  // stale (already ACKed / timed out)
  const std::uint32_t slot = outstanding[i].slot;
  UnackedHot& u = slab_[slot].hot;

  if (m.hdr.kind == kRelNack) {
    // The receiver saw this frame arrive corrupted: retransmit right away
    // (still charged against the retry budget).  The pending RTO timer is
    // kept and pushed out in place by arm_timer, not cancelled.
    expire(m.src, m.hdr.imm[0]);
    return;
  }

  // ACK: done.
  if (u.timer != des::kInvalidEvent) eng_.cancel(u.timer);
  if (domain_.ack_ns_ != nullptr) {
    const auto wait = static_cast<double>(eng_.now() - u.first_sent);
    domain_.ack_ns_->add(wait);
    if (u.attempts > 1) domain_.retransmit_latency_ns_->add(wait);
  }
  outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
  slab_release(slot);
}

bool ReliableChannel::note_received(net::NodeId src, std::uint64_t seq) {
  PeerRecv& r = recv_[static_cast<std::size_t>(src)];
  if (seq == r.cum + 1 && r.ahead.empty()) {  // in order: no set node
    r.cum = seq;
    return true;
  }
  if (seq <= r.cum || r.ahead.contains(seq)) return false;
  r.ahead.insert(seq);
  while (r.ahead.contains(r.cum + 1)) {
    r.ahead.erase(r.cum + 1);
    ++r.cum;
  }
  return true;
}

bool ReliableChannel::shim_deliver(net::Message& m) {
  if (m.hdr.proto == net::kProtoRel) {
    if (message_crc(m) != m.hdr.rel_crc) {
      // A corrupted control frame is simply lost; the data timer covers
      // the lost-ACK case.
      ++domain_.stats_.corrupt_discarded;
      return true;
    }
    on_control(m);
    return true;
  }
  if (m.hdr.rel_seq == 0) return false;  // untracked raw traffic

  if (message_crc(m) != m.hdr.rel_crc) {
    // Damaged in flight: discard before any protocol logic can parse it
    // and ask the sender for an immediate retransmit.  rel_seq is covered
    // by the CRC, but in-sim corruption never touches it (payload/imm[3]
    // only), so the NACK targets the right frame; a real implementation
    // would fall back to the sender's timer, which still holds here.
    ++domain_.stats_.corrupt_discarded;
    ++domain_.stats_.nacks_sent;
    send_control(m.src, kRelNack, m.hdr.rel_seq);
    return true;
  }

  if (!note_received(m.src, m.hdr.rel_seq)) {
    // Duplicate (fabric-injected or a retransmission racing its ACK):
    // suppress, but re-ACK — the original ACK may have been the casualty.
    ++domain_.stats_.duplicates_suppressed;
    ++domain_.stats_.acks_sent;
    send_control(m.src, kRelAck, m.hdr.rel_seq);
    return true;
  }

  ++domain_.stats_.acks_sent;
  send_control(m.src, kRelAck, m.hdr.rel_seq);
  return false;  // verified, first copy: up to the library
}

// ---------------------------------------------------------------------------
// ReliableDomain

ReliableDomain::ReliableDomain(net::Fabric& fabric, ReliableConfig cfg)
    : fabric_(fabric), cfg_(cfg) {
  const int n = fabric.num_nodes();
  channels_.reserve(static_cast<std::size_t>(n));
  for (net::NodeId node = 0; node < n; ++node) {
    channels_.push_back(
        std::make_unique<ReliableChannel>(*this, fabric, node));
    fabric.nic(node).set_shim(channels_.back().get());
  }
}

ReliableDomain::~ReliableDomain() {
  for (net::NodeId node = 0; node < fabric_.num_nodes(); ++node) {
    if (fabric_.nic(node).shim() ==
        channels_[static_cast<std::size_t>(node)].get()) {
      fabric_.nic(node).set_shim(nullptr);
    }
  }
  for (auto& ch : channels_) ch->cancel_timers();
}

std::size_t ReliableDomain::unacked() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch->unacked();
  return n;
}

std::size_t ReliableDomain::unacked(net::NodeId node) const {
  return channels_.at(static_cast<std::size_t>(node))->unacked();
}

void ReliableDomain::set_recorder(obs::Recorder* rec) {
  ack_ns_ = rec != nullptr ? &rec->histogram("ce.rel.ack_ns") : nullptr;
  retransmit_latency_ns_ =
      rec != nullptr ? &rec->histogram("ce.rel.retransmit_latency_ns")
                     : nullptr;
}

void ReliableDomain::export_metrics(obs::Recorder& rec) const {
  obs::export_counters(stats_, kReliableCounters, rec);
}

void ReliableDomain::peer_dead(net::NodeId peer) {
  for (auto& ch : channels_) ch->peer_dead(peer);
}

void ReliableDomain::peer_alive(net::NodeId peer) {
  for (auto& ch : channels_) ch->peer_alive(peer);
}

}  // namespace ce
