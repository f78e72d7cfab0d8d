// Handshake message layout shared by the put implementations.
//
// Both backends emulate the one-sided put with two-sided transport plus a
// handshake active message (paper §4.2.2, §5.3.3).  The handshake tells
// the target where the data lands, how much is coming, which tag the bulk
// transfer uses, and carries the remote-completion callback data inline.
// The LCI backend may additionally append the put data itself when it is
// small (the eager-data optimization).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ce/comm_engine.hpp"

namespace ce {

struct PutHandshake {
  std::uint64_t rbase = 0;      ///< target registration base (opaque)
  std::int64_t rdispl = 0;      ///< displacement into the registration
  std::uint64_t size = 0;       ///< bulk data size
  Tag r_tag = 0;                ///< remote-completion AM tag
  std::uint64_t data_tag = 0;   ///< tag the bulk transfer uses
  std::uint32_t r_cb_size = 0;  ///< bytes of callback data that follow
  std::uint32_t flags = 0;
};

inline constexpr std::uint32_t kHandshakeEagerData = 1u;

/// Trace-flow identity of one put transfer, derivable independently on
/// both sides: the origin rank plus the per-origin data tag (both reach
/// the target in the handshake).  Bit 63 is set by the data-tag range
/// already (kDataTagBase), keeping put flow ids disjoint from the
/// runtime-level span ids.
inline std::uint64_t put_flow_id(int origin, std::uint64_t data_tag) {
  return data_tag ^ (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(origin))
                     << 40);
}

/// Serializes header + callback data (+ optional eager payload bytes;
/// zeros when `eager_data` is null) into `buf`, replacing its contents.
/// A reused `buf` allocates only when it must grow.
inline void pack_handshake(std::vector<std::byte>& buf, const PutHandshake& h,
                           const void* r_cb_data, const void* eager_data,
                           std::size_t eager_size) {
  buf.assign(sizeof(PutHandshake) + h.r_cb_size + eager_size, std::byte{0});
  std::memcpy(buf.data(), &h, sizeof h);
  if (h.r_cb_size > 0) {
    assert(r_cb_data != nullptr);
    std::memcpy(buf.data() + sizeof h, r_cb_data, h.r_cb_size);
  }
  if (eager_size > 0 && eager_data != nullptr) {
    std::memcpy(buf.data() + sizeof h + h.r_cb_size, eager_data, eager_size);
  }
}

/// View into a packed handshake message.
struct HandshakeView {
  PutHandshake hdr;
  const std::byte* r_cb_data = nullptr;
  const std::byte* eager_data = nullptr;

  static HandshakeView parse(const void* msg, std::size_t size) {
    HandshakeView v;
    assert(size >= sizeof(PutHandshake));
    std::memcpy(&v.hdr, msg, sizeof v.hdr);
    const auto* bytes = static_cast<const std::byte*>(msg);
    v.r_cb_data = v.hdr.r_cb_size > 0 ? bytes + sizeof(PutHandshake) : nullptr;
    if ((v.hdr.flags & kHandshakeEagerData) != 0) {
      v.eager_data = bytes + sizeof(PutHandshake) + v.hdr.r_cb_size;
    }
    return v;
  }
};

}  // namespace ce
