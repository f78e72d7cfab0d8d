// Communication-thread study: demonstrates the §4.3 effect directly.
//
// A burst of puts lands on a node whose communication thread is busy
// running expensive active-message callbacks.  With the MPI backend,
// message matching only happens inside MPI calls on that same thread, so
// every transfer stalls behind the callbacks; the LCI backend's dedicated
// progress thread keeps transfers moving and only the callback dispatch
// queues.  The example prints put completion latency percentiles for all
// three configurations.
//
// Set AMTLCE_TRACE=<path> to dump a Chrome-trace JSON per case (suffixed
// .1/.2 for the second and third case); load it in chrome://tracing or
// https://ui.perfetto.dev to see the AM callbacks blocking the "comm-1"
// track while nic ingress spans complete long before their put callbacks
// fire on the MPI backend.
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/sim_thread.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace {

obs::Histogram run_case(ce::BackendKind kind, bool progress_thread) {
  des::Engine eng;
  const auto tracer = obs::Tracer::attach_from_env(eng);
  net::Fabric fabric(eng, 2);
  ce::CeConfig ce_cfg;
  ce_cfg.progress_thread = progress_thread;
  ce_cfg.eager_put_max = 0;
  ce::CommWorld world(fabric, kind, ce_cfg);

  std::deque<des::PollThread> threads;
  for (int n = 0; n < 2; ++n) {
    auto& engine = world.engine(n);
    des::PollThread& th = threads.emplace_back(
        eng, "comm-" + std::to_string(n), 50,
        [&engine]() { return engine.progress() > 0; });
    engine.set_wake_callback([&th]() { th.wake(); });
    th.wake();
  }

  constexpr ce::Tag kBusy = 1, kDone = 2;
  // Node 1's AM callback is expensive (an ACTIVATE unpacking stand-in).
  world.engine(1).tag_reg(
      kBusy,
      [](ce::CommEngine&, ce::Tag, const void*, std::size_t, int, void*) {
        des::charge_current(80 * des::kMicrosecond);
      },
      nullptr, 64);
  world.engine(0).tag_reg(kBusy, [](auto&&...) {}, nullptr, 64);

  obs::Histogram latency;
  constexpr int kPuts = 32;
  std::vector<des::Time> start(kPuts);
  world.engine(1).tag_reg(
      kDone,
      [&](ce::CommEngine&, ce::Tag, const void* msg, std::size_t, int,
          void*) {
        int idx = 0;
        std::memcpy(&idx, msg, sizeof idx);
        latency.add(static_cast<double>(
            eng.now() - start[static_cast<std::size_t>(idx)]));
      },
      nullptr, 64);
  world.engine(0).tag_reg(kDone, [](auto&&...) {}, nullptr, 64);

  // Keep node 1's communication thread saturated with AMs...
  for (int i = 0; i < 64; ++i) world.engine(0).send_am(kBusy, 1, "b", 1);
  // ...while data transfers race it.
  const ce::MemReg lreg{0, nullptr, 1 << 20};
  const ce::MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < kPuts; ++i) {
    start[static_cast<std::size_t>(i)] = eng.now();
    world.engine(0).put(lreg, 0, rreg, 0, 256 * 1024, 1, nullptr, nullptr,
                        kDone, &i, sizeof i);
  }
  for (auto& th : threads) th.wake();
  eng.run();
  return latency;
}

void report(const char* name, const obs::Histogram& h) {
  std::printf("  %-27s: mean %8.1f  p50 %8.1f  p99 %8.1f  max %8.1f us\n",
              name, h.mean() / 1e3, h.p50() / 1e3, h.p99() / 1e3,
              h.max() / 1e3);
}

}  // namespace

int main() {
  std::printf("put latency under AM-callback load (32 x 256 KiB):\n");
  report("Open MPI backend", run_case(ce::BackendKind::Mpi, true));
  report("LCI backend", run_case(ce::BackendKind::Lci, true));
  report("LCI without progress thread", run_case(ce::BackendKind::Lci, false));
  std::printf(
      "\nThe dedicated progress thread decouples transfer progress from\n"
      "callback execution (paper SS5.3.1); the MPI backend serializes\n"
      "both on the communication thread (SS4.3).\n");
  return 0;
}
