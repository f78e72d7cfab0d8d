// Wire formats for the runtime's control messages.
//
// ACTIVATE carries one or more activation records (aggregation, §4.3).
// Each record describes one produced flow a destination must fetch, plus
// the multicast-subtree ranks that destination is responsible for
// forwarding to once the data lands.  GET DATA carries the requester's
// receive registration; the put's remote-completion callback data carries
// the flow identity back.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ce/comm_engine.hpp"
#include "des/time.hpp"
#include "amt/config.hpp"
#include "amt/task_key.hpp"

namespace amt::wire {

// AM tags registered by the runtime.
inline constexpr ce::Tag kTagActivate = 0x10;
inline constexpr ce::Tag kTagGetData = 0x11;
inline constexpr ce::Tag kTagDataArrived = 0x12;  ///< put r_tag

/// Causal trace identity carried on every control message of a flow's
/// lifecycle.  `trace_id` names the flow (stable across multicast hops,
/// aggregation, and retransmission — it is derived from the root FlowKey);
/// `span_id` names one message leg and changes at each hop.  Rides inside
/// the runtime's wire payloads, which both CE backends and the reliable
/// sublayer treat as opaque bytes, so retransmissions resend the context
/// intact.
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct ActivationRecord {
  FlowKey flow;
  std::uint64_t size = 0;      ///< data bytes to fetch
  std::int32_t src_rank = -1;  ///< who holds the data (tree parent)
  double priority = 0.0;
  des::Time root_ts = 0;       ///< multicast-root send time
  des::Time enqueue_ts = 0;    ///< when this hop queued the record
  des::Time send_ts = 0;       ///< this hop's send time
  std::uint8_t real = 0;       ///< 1 = data has real bytes (receiver
                               ///< allocates a real buffer)
  TraceCtx trace;              ///< causal identity of this ACTIVATE leg
  PathSums path;               ///< producer-chain sums (critical path)
  std::vector<std::int32_t> subtree;  ///< ranks this destination forwards to
};

namespace detail {

template <typename T>
void write(std::byte*& p, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof v);
  p += sizeof v;
}

template <typename T>
T read(const std::byte*& p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}

}  // namespace detail

inline std::size_t record_wire_size(const ActivationRecord& r) {
  return sizeof(FlowKey) + sizeof(std::uint64_t) + sizeof(std::int32_t) +
         sizeof(double) + 3 * sizeof(des::Time) + sizeof(std::uint8_t) +
         sizeof(TraceCtx) + sizeof(PathSums) +
         sizeof(std::uint16_t) + r.subtree.size() * sizeof(std::int32_t);
}

/// Packs `count` records preceded by a count header into `buf`, replacing
/// its contents.  The buffer is sized once, so a reused one allocates only
/// when it must grow.
inline void pack_activate(std::vector<std::byte>& buf,
                          const ActivationRecord* records,
                          std::size_t count) {
  std::size_t bytes = sizeof(std::uint16_t);
  for (std::size_t i = 0; i < count; ++i) {
    bytes += record_wire_size(records[i]);
  }
  buf.resize(bytes);
  std::byte* p = buf.data();
  detail::write(p, static_cast<std::uint16_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const ActivationRecord& r = records[i];
    detail::write(p, r.flow);
    detail::write(p, r.size);
    detail::write(p, r.src_rank);
    detail::write(p, r.priority);
    detail::write(p, r.root_ts);
    detail::write(p, r.enqueue_ts);
    detail::write(p, r.send_ts);
    detail::write(p, r.real);
    detail::write(p, r.trace);
    detail::write(p, r.path);
    detail::write(p, static_cast<std::uint16_t>(r.subtree.size()));
    for (const auto rank : r.subtree) detail::write(p, rank);
  }
  assert(p == buf.data() + bytes);
}

/// Unpacks an ACTIVATE body into the first records of `out` and returns
/// how many there are.  `out` never shrinks, so its records (and their
/// subtree vectors) keep their storage from one message to the next.
inline std::size_t unpack_activate(const void* msg, std::size_t size,
                                   std::vector<ActivationRecord>& out) {
  const auto* p = static_cast<const std::byte*>(msg);
  const std::byte* const end = p + size;
  const auto count = detail::read<std::uint16_t>(p);
  if (out.size() < count) out.resize(count);
  for (std::uint16_t c = 0; c < count; ++c) {
    ActivationRecord& r = out[c];
    r.flow = detail::read<FlowKey>(p);
    r.size = detail::read<std::uint64_t>(p);
    r.src_rank = detail::read<std::int32_t>(p);
    r.priority = detail::read<double>(p);
    r.root_ts = detail::read<des::Time>(p);
    r.enqueue_ts = detail::read<des::Time>(p);
    r.send_ts = detail::read<des::Time>(p);
    r.real = detail::read<std::uint8_t>(p);
    r.trace = detail::read<TraceCtx>(p);
    r.path = detail::read<PathSums>(p);
    const auto n = detail::read<std::uint16_t>(p);
    r.subtree.resize(n);
    for (auto& rank : r.subtree) rank = detail::read<std::int32_t>(p);
  }
  assert(p <= end);
  (void)end;
  return count;
}

struct GetDataMsg {
  FlowKey flow;
  std::uint64_t rbase = 0;  ///< requester's registration (0 = virtual)
  std::uint64_t rsize = 0;
  des::Time send_ts = 0;    ///< requester's GET DATA send time
  TraceCtx trace;           ///< causal identity of this GET DATA leg
};

struct DataArrivedMsg {
  FlowKey flow;
  des::Time put_ts = 0;     ///< holder's put-issue time
  TraceCtx trace;           ///< causal identity of the data leg
};

template <typename T>
T unpack_pod(const void* msg, std::size_t size) {
  assert(size >= sizeof(T));
  (void)size;
  T v;
  std::memcpy(&v, msg, sizeof v);
  return v;
}

}  // namespace amt::wire
