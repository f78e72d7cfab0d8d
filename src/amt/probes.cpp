#include "amt/probes.hpp"

#include <cstdio>
#include <string>

#include "ce/world.hpp"
#include "net/fabric.hpp"
#include "amt/runtime.hpp"

namespace amt {

void install_standard_probes(obs::Timeline& tl, net::Fabric& fabric,
                             ce::CommWorld& comm, Runtime& rt) {
  des::Engine& eng = fabric.engine();
  const int n = fabric.num_nodes();

  for (int node = 0; node < n; ++node) {
    const auto shard = net::Fabric::shard_of(node);
    tl.add_probe("des.qdepth", node, [&eng, shard]() {
      return static_cast<double>(eng.owner_pending(shard));
    });
  }

  if (ce::ReliableDomain* const rel = comm.reliability()) {
    for (int node = 0; node < n; ++node) {
      tl.add_probe("ce.unacked", node, [rel, node]() {
        return static_cast<double>(rel->unacked(node));
      });
    }
  }

  if (const ce::FailureDetectorDomain* const fd = comm.failure_detector()) {
    for (int node = 0; node < n; ++node) {
      // Worst surviving verdict about this node, not the node's own view:
      // the curve answers "when did the cluster consider n3 gone".
      tl.add_probe("ce.fd.view", node, [fd, node]() {
        if (fd->dead_views(node) > 0) return 2.0;
        if (fd->suspect_views(node) > 0) return 1.0;
        return 0.0;
      });
    }
  }

  for (int node = 0; node < n; ++node) {
    NodeRuntime& nr = rt.node(node);
    tl.add_probe("amt.ready", node, [&nr]() {
      return static_cast<double>(nr.ready_tasks());
    });
    tl.add_probe("amt.blocked", node, [&nr]() {
      return static_cast<double>(nr.pending_fetches());
    });
  }

  tl.add_probe("net.msgs", -1, [&fabric]() {
    return static_cast<double>(fabric.total_messages());
  });
  tl.add_probe("net.bytes", -1, [&fabric]() {
    return static_cast<double>(fabric.total_bytes());
  });

  const net::Topology& topo = fabric.topology();
  if (!topo.explicit_links()) return;
  char name[64];
  for (int t = 0; t + 1 < topo.num_tiers(); ++t) {
    std::snprintf(name, sizeof name, "net.link.t%d.up_bytes", t);
    tl.add_probe(name, -1, [&topo, t]() {
      return static_cast<double>(topo.boundary_bytes_up(t));
    });
    std::snprintf(name, sizeof name, "net.link.t%d.down_bytes", t);
    tl.add_probe(name, -1, [&topo, t]() {
      return static_cast<double>(topo.boundary_bytes_down(t));
    });
    for (int sw = 0; sw < topo.num_switches(t); ++sw) {
      for (int p = 0; p < topo.uplinks(t); ++p) {
        std::snprintf(name, sizeof name, "net.link.t%d.s%d.p%d.bytes", t, sw,
                      p);
        tl.add_probe(name, -1, [&topo, t, sw, p]() {
          return static_cast<double>(topo.up_link(t, sw, p).bytes +
                                     topo.down_link(t, sw, p).bytes);
        });
      }
    }
  }
}

}  // namespace amt
