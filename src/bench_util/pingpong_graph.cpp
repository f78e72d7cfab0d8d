#include "bench_util/pingpong_graph.hpp"

#include <cassert>

namespace bench {
namespace {
constexpr std::int32_t kPing = 0;
constexpr std::int32_t kSync = 1;
constexpr std::int32_t kSend = 2;
}  // namespace

// Sync mode uses three classes so that the Sync task serializes the
// *transfers*, not just the task executions:
//   PING(t,f,c) --data(local)--> SEND(t,f,c) --data(remote)--> PING(t+1,f,c)
//   PING(t,*,*) --ctl--> SYNC(t) --ctl--> SEND(t,*,*)
// SEND is a zero-work task co-located with its PING; its output is what
// crosses the network, and it cannot run (hence nothing is sent) until
// every PING of the iteration has executed — which in turn required every
// transfer of the previous round to arrive.  Without sync, PING feeds the
// next PING directly and rounds pipeline (the Fig. 2b "no sync" series).

int PingPongGraph::num_inputs(const amt::TaskKey& t) const {
  switch (t.cls) {
    case kSync:
      return opts_.window() * opts_.streams;
    case kSend:
      return 2;  // data from PING, gate from SYNC
    default:
      if (t.i == 0) return 0;
      return 1;  // data from previous round
  }
}

int PingPongGraph::num_outputs(const amt::TaskKey& t) const {
  switch (t.cls) {
    case kSync:
      return 1;
    case kSend:
      return 1;
    default:
      if (t.i + 1 >= opts_.iterations) return 0;
      return opts_.sync ? 2 : 1;
  }
}

int PingPongGraph::rank_of(const amt::TaskKey& t) const {
  if (t.cls == kSync) return t.i % opts_.nodes;
  // Stream c starts on node c % nodes and hops every iteration; SEND is
  // co-located with its PING.
  return (t.k + t.i) % opts_.nodes;
}

void PingPongGraph::successors(const amt::TaskKey& t, int flow,
                               std::vector<amt::Dep>& out) const {
  const int W = opts_.window();
  switch (t.cls) {
    case kSync:
      // Releases every SEND of this iteration.
      for (int f = 0; f < W; ++f) {
        for (int c = 0; c < opts_.streams; ++c) {
          out.push_back({amt::TaskKey{kSend, t.i, f, c}, 1});
        }
      }
      return;
    case kSend:
      out.push_back({amt::TaskKey{kPing, t.i + 1, t.j, t.k}, 0});
      return;
    default:
      if (t.i + 1 >= opts_.iterations) return;
      if (opts_.sync) {
        if (flow == 0) {
          out.push_back({amt::TaskKey{kSend, t.i, t.j, t.k}, 0});
        } else {
          out.push_back({amt::TaskKey{kSync, t.i},
                         t.j * opts_.streams + t.k});
        }
      } else {
        out.push_back({amt::TaskKey{kPing, t.i + 1, t.j, t.k}, 0});
      }
      return;
  }
}

des::Duration PingPongGraph::execute(const amt::TaskKey& t,
                                     amt::RunContext& ctx) {
  switch (t.cls) {
    case kSync:
      ctx.set_output(0, amt::DataCopy::virt(0));
      return 1 * des::kMicrosecond;
    case kSend:
      // Forward the data copy; the transfer happens downstream.
      ctx.set_output(0, ctx.input(0));
      return 500;  // send-initiation bookkeeping
    default: {
      if (t.i + 1 < opts_.iterations) {
        ctx.set_output(0, amt::DataCopy::virt(opts_.fragment_bytes));
        if (opts_.sync) ctx.set_output(1, amt::DataCopy::virt(0));
      }
      const double flops =
          2.0 * opts_.fma_per_8bytes *
          (static_cast<double>(opts_.fragment_bytes) / 8.0);
      return des::kMicrosecond +
             des::from_seconds(flops / (opts_.core_gflops * 1e9));
    }
  }
}

void PingPongGraph::initial_tasks(int rank,
                                  std::vector<amt::TaskKey>& out) const {
  const int W = opts_.window();
  for (int f = 0; f < W; ++f) {
    for (int c = 0; c < opts_.streams; ++c) {
      const amt::TaskKey t{kPing, 0, f, c};
      if (rank_of(t) == rank) out.push_back(t);
    }
  }
}

std::uint64_t PingPongGraph::total_tasks() const {
  const auto per_iter = static_cast<std::uint64_t>(opts_.window()) *
                        static_cast<std::uint64_t>(opts_.streams);
  const auto pings =
      static_cast<std::uint64_t>(opts_.iterations) * per_iter;
  if (!opts_.sync) return pings;
  const auto rounds = static_cast<std::uint64_t>(opts_.iterations - 1);
  return pings + rounds /*sync*/ + rounds * per_iter /*send*/;
}

std::uint64_t PingPongGraph::task_id(const amt::TaskKey& t) const {
  const auto W = static_cast<std::uint64_t>(opts_.window());
  const auto S = static_cast<std::uint64_t>(opts_.streams);
  const auto pings = static_cast<std::uint64_t>(opts_.iterations) * W * S;
  const auto rounds = static_cast<std::uint64_t>(opts_.iterations - 1);
  const auto i = static_cast<std::uint64_t>(t.i);
  const std::uint64_t cell = (i * W + static_cast<std::uint64_t>(t.j)) * S +
                             static_cast<std::uint64_t>(t.k);
  switch (t.cls) {
    case kSync:
      return pings + i;
    case kSend:
      return pings + rounds + cell;
    default:
      return cell;
  }
}

double PingPongGraph::total_flops() const {
  return 2.0 * opts_.fma_per_8bytes *
         (static_cast<double>(opts_.fragment_bytes) / 8.0) *
         static_cast<double>(opts_.iterations) *
         static_cast<double>(opts_.window()) *
         static_cast<double>(opts_.streams);
}

}  // namespace bench
