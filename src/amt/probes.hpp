// Standard timeline probe set for a full runtime stack.
//
// obs::Timeline is layer-agnostic (it samples opaque double-valued
// callbacks); this module knows the stack and registers the probes the
// paper's bottleneck questions need:
//
//   des.qdepth     (per node)  pending DES events owned by the node
//   ce.unacked     (per node)  reliable-layer send window / RTO-pending
//   ce.fd.view     (per node)  worst surviving verdict about the node:
//                              0 Alive everywhere, 1 someone suspects it,
//                              2 someone declared it dead
//   amt.ready      (per node)  tasks released but not yet dispatched
//   amt.blocked    (per node)  announced flows still awaiting data
//   net.msgs / net.bytes (cluster)  cumulative fabric frame totals
//   net.link.t<T>.up_bytes / down_bytes (cluster)  boundary-tier totals,
//                              explicit-link topologies only
//   net.link.t<T>.s<S>.p<P>.bytes (cluster)  per-link cumulative bytes,
//                              explicit-link topologies only
//
// Registration order is deterministic (probe family, then node id), so
// the exported JSON is bit-identical across identical runs.  Probes hold
// references to the stack — the fabric, comm world, and runtime must
// outlive the timeline's last sample (finish()).
#pragma once

#include "obs/timeline.hpp"

namespace net {
class Fabric;
}
namespace ce {
class CommWorld;
}

namespace amt {

class Runtime;

void install_standard_probes(obs::Timeline& tl, net::Fabric& fabric,
                             ce::CommWorld& comm, Runtime& rt);

}  // namespace amt
