#include "net/fabric.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "des/trace_sink.hpp"
#include "net/payload_pool.hpp"
#include "obs/flight_recorder.hpp"

namespace net {
namespace {

/// "256B", "64KiB"-style label for trace spans (static buffer semantics:
/// the Tracer copies the string, so a stack buffer at the call site is fine).
void format_size(char* buf, std::size_t n, std::uint64_t bytes) {
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, n, "msg %.1fMiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, n, "msg %.1fKiB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, n, "msg %lluB",
                  static_cast<unsigned long long>(bytes));
  }
}

}  // namespace

PayloadPtr make_payload(const void* data, std::size_t size) {
  return PayloadPool::global().acquire(data, size);
}

namespace {

[[noreturn]] void reject(const char* field, double value) {
  throw std::invalid_argument(std::string("FabricConfig: invalid ") + field +
                              " = " + std::to_string(value));
}

void check_finite_positive(const char* field, double v) {
  if (!std::isfinite(v) || v <= 0.0) reject(field, v);
}

void check_non_negative(const char* field, double v) {
  if (!std::isfinite(v) || v < 0.0) reject(field, v);
}

void check_probability(const char* field, double v) {
  if (!std::isfinite(v) || v < 0.0 || v > 1.0) reject(field, v);
}

}  // namespace

void validate(const FabricConfig& cfg) {
  check_finite_positive("link_bandwidth_Bps", cfg.link_bandwidth_Bps);
  check_finite_positive("nic_msg_rate", cfg.nic_msg_rate);
  check_finite_positive("loopback_bandwidth_Bps", cfg.loopback_bandwidth_Bps);
  check_non_negative("wire_latency", static_cast<double>(cfg.wire_latency));
  check_non_negative("per_hop_latency",
                     static_cast<double>(cfg.per_hop_latency));
  check_non_negative("loopback_latency",
                     static_cast<double>(cfg.loopback_latency));
  check_non_negative("clock_skew_max",
                     static_cast<double>(cfg.clock_skew_max));
  if (cfg.nodes_per_switch < 1) {
    reject("nodes_per_switch", cfg.nodes_per_switch);
  }
  const FaultConfig& f = cfg.faults;
  check_probability("faults.drop_prob", f.drop_prob);
  check_probability("faults.dup_prob", f.dup_prob);
  check_probability("faults.corrupt_prob", f.corrupt_prob);
  check_probability("faults.spike_prob", f.spike_prob);
  check_non_negative("faults.spike_max", static_cast<double>(f.spike_max));
  check_non_negative("faults.jitter_max", static_cast<double>(f.jitter_max));
  check_non_negative("faults.brownout_duration",
                     static_cast<double>(f.brownout_duration));
  check_non_negative("faults.stall_duration",
                     static_cast<double>(f.stall_duration));
  for (std::size_t i = 0; i < f.crashes.size(); ++i) {
    const CrashEvent& c = f.crashes[i];
    if (c.node < 0) reject("faults.crashes[].node", c.node);
    check_non_negative("faults.crashes[].crash_at",
                       static_cast<double>(c.crash_at));
    if (c.restart_at != 0 && c.restart_at <= c.crash_at) {
      reject("faults.crashes[].restart_at",
             static_cast<double>(c.restart_at));
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (f.crashes[j].node == c.node) {
        reject("faults.crashes[] (duplicate node)", c.node);
      }
    }
  }
}

namespace {

// Runs before the Topology member is built: the topology derives link
// structure from the config, so a bad config must fail here first.
const FabricConfig& validated(const FabricConfig& cfg, int num_nodes) {
  validate(cfg);
  if (num_nodes < 1) {
    throw std::invalid_argument("Fabric: num_nodes must be >= 1, got " +
                                std::to_string(num_nodes));
  }
  return cfg;
}

}  // namespace

Fabric::Fabric(des::Engine& engine, int num_nodes, FabricConfig config)
    : eng_(engine), cfg_(config),
      topo_(validated(cfg_, num_nodes), num_nodes),
      fault_rng_(des::derive_seed(config.faults.seed, 0xFA01)) {
  // The flight recorder's rings always describe the latest simulation;
  // a new fabric is the start of one.
  obs::FlightRecorder::global().begin_run(num_nodes);
  nics_.reserve(static_cast<std::size_t>(num_nodes));
  for (NodeId n = 0; n < num_nodes; ++n) {
    nics_.emplace_back(std::unique_ptr<Nic>(new Nic(*this, n)));
  }
  skew_.resize(static_cast<std::size_t>(num_nodes), 0);
  if (cfg_.clock_skew_max > 0) {
    des::Rng rng(des::derive_seed(cfg_.clock_seed, 0xC10C));
    for (auto& s : skew_) {
      const double max = static_cast<double>(cfg_.clock_skew_max);
      s = static_cast<des::Duration>(rng.uniform(-max, max));
    }
  }
  // Fail-stop crash schedule: per-node windows for the hot-path drop
  // tests, plus crash/restart control events.  Control events are owned
  // by owner 0 so a node's own crash (which cancels every event the node
  // owns) can never cancel its restart.
  crash_start_.resize(static_cast<std::size_t>(num_nodes), des::kTimeNever);
  crash_end_.resize(static_cast<std::size_t>(num_nodes), des::kTimeNever);
  crashed_.resize(static_cast<std::size_t>(num_nodes), false);
  for (const CrashEvent& c : cfg_.faults.crashes) {
    check_node("faults.crashes[].node", c.node);
    const auto i = static_cast<std::size_t>(c.node);
    crash_start_[i] = c.crash_at;
    crash_end_[i] = c.restart_at != 0 ? c.restart_at : des::kTimeNever;
    const NodeId node = c.node;
    eng_.schedule_at(c.crash_at, [this, node]() { fire_crash(node); });
    if (c.restart_at != 0) {
      eng_.schedule_at(c.restart_at, [this, node]() { fire_restart(node); });
    }
  }
}

void Fabric::fire_crash(NodeId node) {
  ++fault_stats_.crashes;
  const std::size_t n = eng_.cancel_owner(shard_of(node));
  // Every delivery still parked at the node belonged to one of the events
  // just cancelled, so nothing will dispatch it: free its slot and payload.
  des::Slab<Message>& parked = nic(node).deliveries_;
  for (std::uint32_t s = 0; s < parked.size(); ++s) {
    if (!parked.live(s)) continue;
    parked[s] = Message{};
    parked.release(s);
  }
  obs::FlightRecorder::global().record(node, obs::FlightKind::Crash,
                                       eng_.now(), 0, n);
  fault_stats_.crash_cancelled_events += n;
  crashed_[static_cast<std::size_t>(node)] = true;
  for (const CrashHandler& h : crash_handlers_) h(node, false);
}

void Fabric::fire_restart(NodeId node) {
  obs::FlightRecorder::global().record(node, obs::FlightKind::Restart,
                                       eng_.now());
  crashed_[static_cast<std::size_t>(node)] = false;
  for (const CrashHandler& h : crash_handlers_) h(node, true);
}

void Fabric::count_crash_drop(std::uint64_t wire_bytes) {
  ++fault_stats_.crash_drops;
  ++fault_stats_.drops;
  fault_stats_.dropped_bytes += wire_bytes;
}

void Fabric::check_node(const char* what, NodeId n) const {
  if (n < 0 || n >= num_nodes()) {
    throw std::out_of_range(std::string("Fabric: ") + what + " = " +
                            std::to_string(n) + " outside [0, " +
                            std::to_string(num_nodes()) +
                            ") — invalid node id");
  }
}

int Fabric::hops(NodeId a, NodeId b) const {
  // Hard validation: a negative id would silently round toward group 0
  // and an oversized one would invent a phantom switch — both are
  // wiring bugs that must fail at the call site, not as garbage math.
  check_node("node a", a);
  check_node("node b", b);
  return topo_.hops(a, b);
}

des::Duration Fabric::latency(NodeId a, NodeId b) const {
  if (a == b) {
    check_node("node", a);
    return cfg_.loopback_latency;
  }
  check_node("node a", a);
  check_node("node b", b);
  return cfg_.wire_latency + topo_.path_switch_latency(a, b);
}

des::Duration Fabric::occupancy(std::uint64_t bytes) const {
  const auto serial = serialization_time(bytes);
  const auto gap = des::from_seconds(1.0 / cfg_.nic_msg_rate);
  return serial > gap ? serial : gap;
}

void Nic::send(Message m, SentHandler on_sent) {
  if (shim_ != nullptr) {
    shim_->shim_send(std::move(m), std::move(on_sent));
    return;
  }
  raw_send(std::move(m), std::move(on_sent));
}

void Nic::raw_send(Message m, SentHandler on_sent) {
  // Send-time validation is a hard error: a stale or corrupted NodeId
  // must not leak into group math, link indexing, or nic() lookups.
  fabric_.check_node("Message.dst", m.dst);
  if (m.src != node_) {
    throw std::invalid_argument(
        "Nic::raw_send: Message.src = " + std::to_string(m.src) +
        " does not match the sending NIC's node " + std::to_string(node_));
  }
  fabric_.do_send(*this, std::move(m), std::move(on_sent));
}

void Nic::dispatch(Message&& m) {
  ++stats_.msgs_received;
  stats_.bytes_received += m.wire_bytes;
  if (shim_ != nullptr && shim_->shim_deliver(m)) return;
  if (!deliver_) {
    // Without faults a missing handler is a wiring bug; with faults it is
    // a legitimate late arrival (e.g. a duplicated echo landing after a
    // protocol tore its handler down) and is dropped, counted.
    assert(fabric_.cfg_.faults.any() && "no deliver handler installed");
    ++fabric_.fault_stats_.undeliverable;
    return;
  }
  deliver_(std::move(m));
}

void Fabric::set_recorder(obs::Recorder* rec) {
  rec_ = rec;
  h_wire_transit_ = rec ? &rec->histogram("net.wire_transit_ns") : nullptr;
  h_egress_wait_ = rec ? &rec->histogram("net.egress_wait_ns") : nullptr;
  h_fault_delay_ = rec ? &rec->histogram("net.fault.delay_ns") : nullptr;
}

std::uint32_t Fabric::acquire_delivery(Nic& dst, Message&& m) {
  // Per-destination pool: the slot lives with the node that will consume
  // it, and a crash of that node releases what its cancelled events held.
  const std::uint32_t slot = dst.deliveries_.acquire();
  dst.deliveries_[slot] = std::move(m);
  return slot;
}

void Fabric::deliver_and_release(Nic& dst, std::uint32_t slot) {
  // Recycled before dispatch, so nested sends reuse the slot; the
  // moved-from slot holds no payload reference.
  Message msg = std::move(dst.deliveries_[slot]);
  dst.deliveries_.release(slot);
  dst.dispatch(std::move(msg));
}

Fabric::FaultPlan Fabric::plan_faults() {
  const FaultConfig& f = cfg_.faults;
  FaultPlan plan;
  if (f.drop_prob > 0 && fault_rng_.uniform() < f.drop_prob) {
    plan.drop = true;
    return plan;
  }
  if (f.dup_prob > 0 && fault_rng_.uniform() < f.dup_prob) plan.dup = true;
  if (f.corrupt_prob > 0 && fault_rng_.uniform() < f.corrupt_prob) {
    plan.corrupt = true;
  }
  if (f.jitter_max > 0) {
    plan.extra_latency += static_cast<des::Duration>(
        fault_rng_.uniform(0.0, static_cast<double>(f.jitter_max)));
  }
  if (f.spike_prob > 0 && f.spike_max > 0 &&
      fault_rng_.uniform() < f.spike_prob) {
    plan.extra_latency += static_cast<des::Duration>(
        fault_rng_.uniform(0.0, static_cast<double>(f.spike_max)));
    ++fault_stats_.spikes;
  }
  return plan;
}

void Fabric::corrupt_in_flight(Message& m) {
  ++fault_stats_.corruptions;
  if (m.payload != nullptr && !m.payload->empty()) {
    // Payloads are shared immutable buffers: corrupt a private (pooled)
    // copy so the sender's bytes (and any retransmit of them) stay intact.
    auto copy = PayloadPool::global().acquire_mutable(m.payload->size());
    std::memcpy(copy->data(), m.payload->data(), m.payload->size());
    const std::uint64_t bit = fault_rng_.below(copy->size() * 8);
    (*copy)[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    m.payload = std::move(copy);
    return;
  }
  // Virtual payload: flip a bit in the one header immediate no protocol
  // assigns (imm[3]), so the damage is checksum-detectable but never
  // scrambles routing fields.
  m.hdr.imm[3] ^= 1ULL << fault_rng_.below(64);
}

void Fabric::do_send(Nic& src, Message m, Nic::SentHandler on_sent) {
  const des::Time now = eng_.now();
  ++total_msgs_;
  total_bytes_ += m.wire_bytes;
  ++src.stats_.msgs_sent;
  src.stats_.bytes_sent += m.wire_bytes;
  obs::FlightRecorder::global().record(m.src, obs::FlightKind::MsgSend, now, 0,
                                       static_cast<std::uint64_t>(m.dst),
                                       m.wire_bytes);

  Nic& dst = nic(m.dst);

  if (m.src == m.dst) {
    // Loopback: memory copy, no NIC pipe occupancy — and never faulted.
    // Mirroring the NIC path, on_sent fires when the copy has left the
    // sender (send buffer reusable), not at delivery: delivery trails it
    // by the loopback latency.
    const des::Duration copy =
        des::transfer_time(m.wire_bytes, cfg_.loopback_bandwidth_Bps);
    const des::Time sent = now + copy;
    const des::Time done = sent + cfg_.loopback_latency;
    if (h_wire_transit_ != nullptr) {
      h_wire_transit_->add(static_cast<double>(done - now));
    }
    if (on_sent) {
      eng_.schedule_on(shard_of(m.src), sent, std::move(on_sent));
    }
    const auto dst_owner = shard_of(m.dst);
    Nic* const dstp = &dst;
    const std::uint32_t slot = acquire_delivery(dst, std::move(m));
    eng_.schedule_on(dst_owner, done, [this, dstp, slot]() {
      deliver_and_release(*dstp, slot);
    });
    return;
  }

  const FaultConfig& f = cfg_.faults;
  const bool faulted = f.any();
  const des::Duration occ = occupancy(m.wire_bytes);
  des::Time egress_start = std::max(now, src.egress_free_);
  des::Time egress_end = egress_start + occ;

  // NIC stall window [S, E): the egress pipe is frozen.  A transfer that
  // would start inside the window starts at E instead; one already on
  // the wire when the window opens freezes mid-flight and carries the
  // full window length.  Either way egress_free_ pushes the queue back.
  if (faulted && m.src == f.stall_node && f.stall_duration > 0) {
    const des::Time stall_end = f.stall_start + f.stall_duration;
    if (egress_start >= f.stall_start && egress_start < stall_end) {
      egress_start = stall_end;
      egress_end = egress_start + occ;
      ++fault_stats_.stalled_msgs;
    } else if (egress_start < f.stall_start && egress_end > f.stall_start) {
      // Straddle: the tail of this transfer was previously priced as if
      // the NIC kept transmitting through the window — the bug this
      // branch fixes.  The frozen interval is inserted wholesale.
      egress_end += f.stall_duration;
      ++fault_stats_.stalled_msgs;
    }
  }
  src.egress_free_ = egress_end;

  if (on_sent) {
    eng_.schedule_on(shard_of(m.src), egress_end, std::move(on_sent));
  }

  // Source-side brownout is judged against the modeled wire-occupancy
  // interval [egress_start, egress_end), not the queue-entry time: a
  // message queued before the window but transmitted inside it is eaten.
  // Evaluated before routing so a browned-out source charges no links.
  const bool brownout_active = faulted && f.brownout_node >= 0 &&
                               f.brownout_duration > 0;
  const des::Time brownout_end = f.brownout_start + f.brownout_duration;
  if (brownout_active && m.src == f.brownout_node &&
      egress_start < brownout_end && egress_end > f.brownout_start) {
    ++fault_stats_.brownout_drops;
    ++fault_stats_.drops;
    fault_stats_.dropped_bytes += m.wire_bytes;
    obs::FlightRecorder::global().record(
        m.src, obs::FlightKind::MsgDrop, now,
        static_cast<std::uint16_t>(obs::DropWhy::Brownout),
        static_cast<std::uint64_t>(m.dst), m.wire_bytes);
    return;
  }

  // Source-side crash: like brownout, judged against the modeled wire
  // occupancy [egress_start, egress_end) — a message queued before the
  // node died but transmitted inside its crash window is eaten.  Drawn
  // before plan_faults so crashes consume no randomness (the RNG
  // sequence of surviving traffic matches the crash-free run).
  if (faulted && crash_overlaps(m.src, egress_start, egress_end)) {
    count_crash_drop(m.wire_bytes);
    obs::FlightRecorder::global().record(
        m.src, obs::FlightKind::MsgDrop, now,
        static_cast<std::uint16_t>(obs::DropWhy::Crash),
        static_cast<std::uint64_t>(m.dst), m.wire_bytes);
    return;
  }

  FaultPlan plan;
  if (faulted) plan = plan_faults();
  if (plan.drop) {
    // The message left the NIC (egress charged, on_sent fired) and died on
    // the wire before reaching the switch fabric: no link occupancy, no
    // ingress occupancy, no delivery.
    ++fault_stats_.drops;
    fault_stats_.dropped_bytes += m.wire_bytes;
    obs::FlightRecorder::global().record(
        m.src, obs::FlightKind::MsgDrop, now,
        static_cast<std::uint16_t>(obs::DropWhy::Fault),
        static_cast<std::uint64_t>(m.dst), m.wire_bytes);
    return;
  }

  // Route the last byte to the destination.  With explicit links every
  // cross-leaf frame passes per-link FIFO queues (congestion); otherwise
  // — and for leaf-local traffic, whose only shared resources are the
  // NIC pipes — the uncongested fixed-latency model applies.  Both
  // agree bit-for-bit on an idle fabric.
  des::Time available_at;
  if (topo_.explicit_links() &&
      topo_.switch_of(m.src, 0) != topo_.switch_of(m.dst, 0)) {
    available_at = topo_.traverse(m.src, m.dst, m.wire_bytes, egress_end) +
                   cfg_.wire_latency;
  } else {
    available_at = egress_end + latency(m.src, m.dst);
  }

  // Destination-side brownout is judged at the modeled arrival time (the
  // instant the browned-out NIC would see the last byte), closing the
  // escape where a frame sent before the window landed inside it.  The
  // frame crossed the fabric, so any link charges above stand.
  if (brownout_active && m.dst == f.brownout_node &&
      available_at >= f.brownout_start && available_at < brownout_end) {
    ++fault_stats_.brownout_drops;
    ++fault_stats_.drops;
    fault_stats_.dropped_bytes += m.wire_bytes;
    obs::FlightRecorder::global().record(
        m.dst, obs::FlightKind::MsgDrop, now,
        static_cast<std::uint16_t>(obs::DropWhy::Brownout),
        static_cast<std::uint64_t>(m.src), m.wire_bytes);
    return;
  }

  // Destination-side crash: judged at the modeled arrival instant, like
  // the destination brownout.  The frame crossed the fabric; link
  // charges stand, the dead NIC just never raises a completion.
  if (faulted && crash_at_instant(m.dst, available_at)) {
    count_crash_drop(m.wire_bytes);
    obs::FlightRecorder::global().record(
        m.dst, obs::FlightKind::MsgDrop, now,
        static_cast<std::uint16_t>(obs::DropWhy::Crash),
        static_cast<std::uint64_t>(m.src), m.wire_bytes);
    return;
  }

  available_at += plan.extra_latency;
  if (plan.extra_latency > 0 && h_fault_delay_ != nullptr) {
    h_fault_delay_->add(static_cast<double>(plan.extra_latency));
  }

  // Duplicate before corrupting: the injected copy models an independent
  // retransmission by faulty hardware, not a copy of the damaged frame.
  std::optional<Message> dup;
  if (plan.dup) dup = m;
  if (plan.corrupt) corrupt_in_flight(m);

  // Receiver ingress pipe: the port can overlap with the wire (cut-through)
  // but serializes across concurrent senders.
  des::Time ingress_start = std::max(available_at - occ, dst.ingress_free_);
  des::Time ingress_end = std::max(ingress_start + occ, available_at);

  // Ingress half of the NIC stall: a frozen NIC also stops draining its
  // receive port, so arrivals during the window complete after it ends
  // and a reception in progress freezes mid-transfer.
  if (faulted && m.dst == f.stall_node && f.stall_duration > 0) {
    const des::Time stall_end = f.stall_start + f.stall_duration;
    if (ingress_start >= f.stall_start && ingress_start < stall_end) {
      ingress_start = stall_end;
      ingress_end = ingress_start + occ;
      ++fault_stats_.stalled_msgs;
    } else if (ingress_start < f.stall_start &&
               ingress_end > f.stall_start) {
      ingress_end += f.stall_duration;
      ++fault_stats_.stalled_msgs;
    }
  }
  dst.ingress_free_ = ingress_end;

  // One cached observability check per message: histogram handles are
  // pre-resolved by set_recorder, the trace sink is fetched once.
  des::TraceSink* const sink = eng_.trace_sink();
  if (h_egress_wait_ != nullptr) {
    // Queueing behind earlier messages on our own egress pipe, and the
    // first-byte-out to last-byte-in transit of this message.
    h_egress_wait_->add(static_cast<double>(egress_start - now));
    h_wire_transit_->add(static_cast<double>(ingress_end - egress_start));
  }
  char label[48] = "";
  if (sink != nullptr) {
    format_size(label, sizeof label, m.wire_bytes);
    char track[32];
    std::snprintf(track, sizeof track, "nic%d.egress", m.src);
    sink->span(track, label, egress_start, occ);
    std::snprintf(track, sizeof track, "nic%d.ingress", m.dst);
    sink->span(track, label, ingress_start, ingress_end - ingress_start);
  }

  const auto dst_owner = shard_of(m.dst);
  Nic* const dstp = &dst;
  const std::uint32_t slot = acquire_delivery(dst, std::move(m));
  eng_.schedule_on(dst_owner, ingress_end, [this, dstp, slot]() {
    deliver_and_release(*dstp, slot);
  });

  if (dup.has_value()) {
    // The duplicate trails the original through the same ingress pipe, so
    // FIFO order per link is preserved: ... original, duplicate, ...  The
    // injected copy occupies the wire like any frame: it counts toward the
    // fabric totals (keeping total == delivered + dropped), records its
    // own transit, and emits its own ingress span.
    const des::Time dup_end = ingress_end + occ;
    dst.ingress_free_ = dup_end;
    ++total_msgs_;
    total_bytes_ += dup->wire_bytes;
    ++fault_stats_.dups;
    fault_stats_.dup_bytes += dup->wire_bytes;
    if (h_wire_transit_ != nullptr) {
      h_wire_transit_->add(static_cast<double>(dup_end - egress_start));
    }
    if (sink != nullptr) {
      char track[32];
      std::snprintf(track, sizeof track, "nic%d.ingress", dup->dst);
      sink->span(track, label, ingress_end, dup_end - ingress_end);
    }
    const std::uint32_t dslot = acquire_delivery(dst, std::move(*dup));
    eng_.schedule_on(dst_owner, dup_end, [this, dstp, dslot]() {
      deliver_and_release(*dstp, dslot);
    });
  }
}

void Fabric::export_metrics(obs::Recorder& rec) const {
  rec.counter("net.msgs").add(total_msgs_);
  rec.counter("net.bytes").add(total_bytes_);
  obs::export_counters(fault_stats_, kFaultCounters, rec);
  std::uint64_t delivered_msgs = 0;
  std::uint64_t delivered_bytes = 0;
  for (const auto& nic : nics_) {
    delivered_msgs += nic->stats_.msgs_received;
    delivered_bytes += nic->stats_.bytes_received;
  }
  rec.counter("net.delivered_msgs").add(delivered_msgs);
  rec.counter("net.delivered_bytes").add(delivered_bytes);

  // Per-link traffic exists only when the topology routes over explicit
  // link FIFOs.  Boundary tier t sits between switch tiers t and t+1;
  // the top tier has no uplinks.
  if (!topo_.explicit_links()) return;
  char name[64];
  for (int t = 0; t + 1 < topo_.num_tiers(); ++t) {
    std::snprintf(name, sizeof name, "net.link.t%d.up_msgs", t);
    rec.counter(name).add(topo_.boundary_msgs_up(t));
    std::snprintf(name, sizeof name, "net.link.t%d.up_bytes", t);
    rec.counter(name).add(topo_.boundary_bytes_up(t));
    std::snprintf(name, sizeof name, "net.link.t%d.down_bytes", t);
    rec.counter(name).add(topo_.boundary_bytes_down(t));
    for (int sw = 0; sw < topo_.num_switches(t); ++sw) {
      for (int p = 0; p < topo_.uplinks(t); ++p) {
        const LinkStats& up = topo_.up_link(t, sw, p);
        const LinkStats& down = topo_.down_link(t, sw, p);
        if (up.msgs > 0) {
          std::snprintf(name, sizeof name, "net.link.t%d.s%d.p%d.up_msgs", t,
                        sw, p);
          rec.counter(name).add(up.msgs);
          std::snprintf(name, sizeof name, "net.link.t%d.s%d.p%d.up_bytes", t,
                        sw, p);
          rec.counter(name).add(up.bytes);
        }
        if (down.msgs > 0) {
          std::snprintf(name, sizeof name, "net.link.t%d.s%d.p%d.down_msgs", t,
                        sw, p);
          rec.counter(name).add(down.msgs);
          std::snprintf(name, sizeof name, "net.link.t%d.s%d.p%d.down_bytes",
                        t, sw, p);
          rec.counter(name).add(down.bytes);
        }
      }
    }
  }
}

}  // namespace net
