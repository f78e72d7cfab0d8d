// Fabric configuration and the Expanse-like default parameter set.
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"
#include "net/topology.hpp"

namespace net {

/// One seeded fail-stop crash: `node` dies at `crash_at` and (optionally)
/// rejoins at `restart_at`.  While down — the half-open window
/// [crash_at, restart_at), or [crash_at, inf) when restart_at == 0 — the
/// node's NIC drops all ingress and egress and every pending DES event the
/// node owns is cancelled (Engine::cancel_owner).  Window semantics match the
/// brownout/stall rules: a transfer transmitted inside the window is
/// eaten pre-routing, an arrival inside the window is eaten post-routing.
struct CrashEvent {
  int node = -1;
  des::Time crash_at = 0;
  des::Time restart_at = 0;  ///< 0 = fail-stop forever
};

/// Deterministic fault-injection knobs.  Everything defaults to "off": the
/// fabric stays a perfect lossless pipe unless an experiment opts in.  All
/// randomness derives from `seed` through des::Rng, so a fault schedule is
/// bit-reproducible per seed.  Loopback (src == dst) traffic is never
/// faulted — it models a memory copy, not a wire.
struct FaultConfig {
  std::uint64_t seed = 0xFA17;

  /// Per-message probabilities, each in [0, 1].
  double drop_prob = 0;     ///< message silently lost after egress
  double dup_prob = 0;      ///< message delivered twice
  double corrupt_prob = 0;  ///< one payload bit flipped in flight (header
                            ///< immediates imm[3] for virtual payloads)

  /// Latency perturbation: every message gets an extra uniform
  /// [0, jitter_max) delay; with probability spike_prob it additionally
  /// gets a uniform [0, spike_max) spike.
  double spike_prob = 0;
  des::Duration spike_max = 0;
  des::Duration jitter_max = 0;

  /// Timed link brownout: every message to or from `brownout_node` during
  /// [brownout_start, brownout_start + brownout_duration) is dropped.
  int brownout_node = -1;
  des::Time brownout_start = 0;
  des::Duration brownout_duration = 0;

  /// NIC stall window: `stall_node`'s NIC is frozen during
  /// [stall_start, stall_start + stall_duration) in BOTH directions —
  /// egress and ingress pipes alike (a stalled NIC neither transmits
  /// nor raises completion events).  A transfer that would start inside
  /// the window waits for the window end; a transfer already in
  /// progress when the window opens freezes mid-flight and finishes
  /// `stall_duration` later.  Queued traffic trails behind either way.
  int stall_node = -1;
  des::Time stall_start = 0;
  des::Duration stall_duration = 0;

  /// Seeded fail-stop crash schedule (see CrashEvent).  At most one entry
  /// per node; validated by the Fabric.
  std::vector<CrashEvent> crashes;

  /// True when any fault mechanism is active.
  bool any() const {
    return drop_prob > 0 || dup_prob > 0 || corrupt_prob > 0 ||
           spike_prob > 0 || jitter_max > 0 ||
           (brownout_node >= 0 && brownout_duration > 0) ||
           (stall_node >= 0 && stall_duration > 0) || !crashes.empty();
  }
};

struct FabricConfig {
  /// Per-NIC, per-direction aggregate link bandwidth in bytes/second.
  /// Expanse: 2 x 50 Gbit/s HDR InfiniBand = 100 Gbit/s = 12.5 GB/s
  /// (the two rails are modeled as one aggregated pipe).
  double link_bandwidth_Bps = 12.5e9;

  /// Base propagation + NIC-to-NIC latency excluding switch hops.
  des::Duration wire_latency = 600;  // 0.6 us

  /// Latency added per switch hop.
  des::Duration per_hop_latency = 150;  // 0.15 us

  /// Nodes attached to the same leaf switch (1 hop); otherwise the message
  /// crosses the spine (3 hops).  Matches a two-level fat-tree.
  int nodes_per_switch = 16;

  /// Maximum NIC message rate (messages/second); enforces a minimum gap
  /// between message starts so small messages are rate- not
  /// bandwidth-limited.
  double nic_msg_rate = 30e6;

  /// Intra-node loopback: fixed latency + memory-copy bandwidth.
  des::Duration loopback_latency = 400;
  double loopback_bandwidth_Bps = 40e9;

  /// Hierarchical topology (see TopologyConfig).  Defaults to the
  /// legacy fixed-latency two-level hop model; setting
  /// `topology.explicit_links` routes cross-leaf traffic over per-link
  /// serialization queues with shared-switch congestion.
  TopologyConfig topology;

  /// Fault injection (off by default; see FaultConfig).
  FaultConfig faults;
};

/// Validates a configuration, throwing std::invalid_argument with a
/// field-naming message on the first violation (NaN / non-positive
/// bandwidths or rates, negative latencies, nodes_per_switch < 1, fault
/// probabilities outside [0, 1], negative fault windows).  The Fabric
/// constructor calls this, so a bad config fails loudly at construction
/// instead of as a downstream div-by-zero or infinite timestamp.
void validate(const FabricConfig& cfg);

/// Parameters mirroring the paper's SDSC Expanse platform (Table 1).
inline FabricConfig expanse_config() { return FabricConfig{}; }

/// Expanse's hybrid fat-tree (Table 1) with explicit links: 56-node
/// racks on HDR100 (12.5 GB/s per node), racks uplinked to a spanning
/// spine tier through 7 x HDR200 (25 GB/s) ports — 700 GB/s of rack
/// ingress vs 175 GB/s of uplink, the documented 4.33:1 (~4:1)
/// oversubscription.  Cross-rack traffic contends for uplinks and
/// spine planes; in-rack traffic sees only the NIC pipes.
inline FabricConfig expanse_fat_tree_config() {
  FabricConfig cfg;
  cfg.nodes_per_switch = 56;
  cfg.topology.explicit_links = true;
  cfg.topology.levels = {
      TopologyLevel{/*radix=*/56, /*uplinks=*/7,
                    /*uplink_bandwidth_Bps=*/25e9, /*switch_latency=*/-1},
      TopologyLevel{},  // spanning spine tier
  };
  return cfg;
}

}  // namespace net
