// Always-on post-mortem flight recorder.
//
// A crash-tolerant run that fails closed (RunStatus != Ok) or trips a
// soak invariant leaves only aggregates behind; the question "what was
// node 5 doing right before the coordinator gave up" needs the last few
// hundred events, not the sums.  The recorder keeps exactly that: one
// fixed-capacity ring of compact POD records per node, overwritten in
// FIFO order, written by the hot paths unconditionally.
//
// Cost model: the simulation is single-OS-threaded, so a record is a
// bounds check plus a 32-byte store into a preallocated ring — about
// 2 ns, wait-free and allocation-free.  perf_core's timeline section
// pins the always-on recorder's share of an end-to-end reduced-fig4
// run's wall-clock at <= 1% (records made x per-record cost / wall).
//
// The process-wide instance (global()) mirrors net::PayloadPool::global()
// and bench::metrics_accumulator(): hot paths reach it without plumbing a
// pointer through every layer.  Fabric construction calls begin_run(), so
// the rings always describe the most recent simulation.
//
// dump_postmortem() renders the rings plus caller-supplied context (final
// metrics, crash schedule, config) as one JSON bundle.  The drivers call
// it automatically whenever a run ends with RunStatus != Ok.
// AMTLCE_POSTMORTEM overrides the output path ("off"/"0" disables the
// automatic dump).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "des/time.hpp"

namespace obs {

/// Record kinds, in rough layer order.  Values are stable: they appear
/// numerically in the dump next to their names.
enum class FlightKind : std::uint16_t {
  MsgSend = 0,      ///< a: dst node, b: wire bytes
  MsgDrop = 1,      ///< a: dst node, b: wire bytes; code: DropWhy
  Crash = 2,        ///< fail-stop crash fired on this node
  Restart = 3,      ///< ground-truth restart of this node
  FdState = 4,      ///< a: peer, b: new PeerState (0/1/2), on observer node
  RelTimeout = 5,   ///< a: dst node, b: seq; retry budget exhausted
  RelRetransmit = 6,///< a: dst node, b: seq
  TaskDone = 7,     ///< a: task key hash, b: tasks executed so far in the
                    ///< whole run (all nodes), not on this node
  Recovery = 8,     ///< a: dead rank; recovery pass ran on the coordinator
  RunStatus = 9,    ///< a: amt::RunStatus value at run end (non-Ok)
  Invariant = 10,   ///< a test/soak invariant fired; code: caller-defined
  Sample = 11,      ///< a: timeline samples taken (sampler heartbeat)
};

const char* flight_kind_name(FlightKind k);

/// One 32-byte POD ring entry.
struct FlightRecord {
  des::Time t = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t node = 0;
  std::uint16_t kind = 0;
  std::uint16_t code = 0;
};

/// Reasons a frame never reached its destination (FlightRecord::code for
/// MsgDrop).
enum class DropWhy : std::uint16_t {
  Fault = 0,     ///< seeded drop / corruption discard
  Brownout = 1,
  Crash = 2,     ///< eaten by a crashed NIC (either side)
  Stall = 3,
};

class FlightRecorder {
 public:
  /// The process-wide recorder the hot paths write to.
  static FlightRecorder& global();

  /// Clears every ring and sizes the per-node set for a new simulation of
  /// `num_nodes` nodes (index num_nodes is the cluster-wide ring).
  /// Called by Fabric construction — rings always describe the latest run.
  void begin_run(int num_nodes);

  /// True when records are being kept.  Default on; the kill switch
  /// exists for the perf harness to measure the recorder's cost and for
  /// tests that want deterministic ring contents.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Appends one record to `node`'s ring (nodes past begin_run's count —
  /// or a negative node — land in the cluster ring).  Wait-free: bounds
  /// check + store.
  void record(int node, FlightKind kind, des::Time t, std::uint16_t code = 0,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_ || rings_.empty()) return;
    auto idx = static_cast<std::size_t>(node < 0 ? 0 : node + 1);
    if (idx >= rings_.size()) idx = 0;
    Ring& r = rings_[idx];
    FlightRecord& slot = r.buf[r.head];
    slot.t = t;
    slot.a = a;
    slot.b = b;
    slot.node = static_cast<std::uint32_t>(node < 0 ? 0 : node);
    slot.kind = static_cast<std::uint16_t>(kind);
    slot.code = code;
    r.head = r.head + 1 == r.buf.size() ? 0 : r.head + 1;
    ++r.total;
  }

  /// Records each ring keeps: the last few hundred events per node.
  static constexpr std::size_t kRingCapacity = 256;

  int num_nodes() const { return num_nodes_; }

  /// Records written to `node`'s ring over the run (>= what the ring
  /// still holds).  Node -1: the cluster ring.
  std::uint64_t total_records(int node) const;

  /// `node`'s surviving records, oldest first.  Node -1: cluster ring.
  std::vector<FlightRecord> snapshot(int node) const;

  /// Renders the post-mortem bundle: {reason, rings (oldest first, with
  /// kind names), plus the caller's context sections}.  The context
  /// strings must each be one complete JSON value (pass "null" for
  /// sections you do not have).
  std::string bundle_json(std::string_view reason,
                          std::string_view config_json,
                          std::string_view crash_schedule_json,
                          std::string_view metrics_json) const;

  /// Writes bundle_json() to the AMTLCE_POSTMORTEM path, defaulting to
  /// "postmortem.json"; the values "off"/"0" suppress the dump.  Returns
  /// the path written, or empty when suppressed/failed.
  std::string dump_postmortem(std::string_view reason,
                              std::string_view config_json,
                              std::string_view crash_schedule_json,
                              std::string_view metrics_json) const;

 private:
  struct Ring {
    std::vector<FlightRecord> buf;
    std::size_t head = 0;       ///< next write slot
    std::uint64_t total = 0;    ///< lifetime records (wraps overwrite)
  };

  bool enabled_ = true;
  int num_nodes_ = 0;
  std::vector<Ring> rings_;  ///< [0]: cluster; [n+1]: node n
};

}  // namespace obs
