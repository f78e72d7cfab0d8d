// Quickstart: the PaRSEC-style communication engine on a simulated
// 4-node cluster — register active messages, send one, and move bulk
// data with a put() that notifies both sides.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/sim_thread.hpp"
#include "net/fabric.hpp"

int main() {
  // 1. A simulated cluster: Expanse-like fabric (100 Gbit/s, ~1 us).
  des::Engine eng;
  net::Fabric fabric(eng, /*num_nodes=*/4);

  // 2. A communication engine per node.  Swap BackendKind::Lci for
  //    BackendKind::Mpi to compare the two designs from the paper.
  ce::CommWorld world(fabric, ce::BackendKind::Lci);

  // 3. Each node runs a communication thread polling progress(), exactly
  //    like the PaRSEC runtime does.
  std::deque<des::PollThread> threads;
  for (int n = 0; n < 4; ++n) {
    auto& engine = world.engine(n);
    des::PollThread& th = threads.emplace_back(
        eng, "comm-" + std::to_string(n), 50,
        [&engine]() { return engine.progress() > 0; });
    engine.set_wake_callback([&th]() { th.wake(); });
    th.wake();
  }

  // 4. Register active messages (the runtime registers ACTIVATE and
  //    GET DATA this way).
  constexpr ce::Tag kHello = 1, kDataDone = 2;
  for (int n = 0; n < 4; ++n) {
    world.engine(n).tag_reg(
        kHello,
        [](ce::CommEngine& engine, ce::Tag, const void* msg,
           std::size_t size, int src, void*) {
          std::printf("[%.3f us] node %d got AM from %d: \"%.*s\"\n",
                      0.0, engine.rank(), src, static_cast<int>(size),
                      static_cast<const char*>(msg));
        },
        nullptr, 128);
    world.engine(n).tag_reg(
        kDataDone,
        [](ce::CommEngine& engine, ce::Tag, const void* msg,
           std::size_t size, int src, void*) {
          std::printf("node %d: put from %d complete (%.*s)\n",
                      engine.rank(), src, static_cast<int>(size),
                      static_cast<const char*>(msg));
        },
        nullptr, 64);
  }

  // 5. Send an active message.
  const std::string hello = "hello from node 0";
  world.engine(0).send_am(kHello, 2, hello.data(), hello.size());

  // 6. One-sided put with completion on both ends.
  std::vector<char> src_buf(64 * 1024, 'x');
  std::vector<char> dst_buf(64 * 1024);
  const ce::MemReg lreg = world.engine(0).mem_reg(src_buf.data(),
                                                  src_buf.size());
  const ce::MemReg rreg{3, dst_buf.data(), dst_buf.size()};
  world.engine(0).put(
      lreg, 0, rreg, 0, src_buf.size(), /*remote=*/3,
      [](ce::CommEngine&, const ce::MemReg&, std::ptrdiff_t,
         const ce::MemReg&, std::ptrdiff_t, std::size_t size, int remote,
         void*) {
        std::printf("node 0: local completion, %zu bytes to node %d\n",
                    size, remote);
      },
      nullptr, kDataDone, "flow-A", 6);

  for (auto& th : threads) th.wake();
  eng.run();

  std::printf("data landed intact: %s\n",
              std::memcmp(src_buf.data(), dst_buf.data(), src_buf.size()) ==
                      0
                  ? "yes"
                  : "NO");
  std::printf("simulated time: %s\n", des::format_time(eng.now()).c_str());
  return 0;
}
