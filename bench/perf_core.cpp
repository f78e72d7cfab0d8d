// Core-runtime perf-regression harness (not a paper figure).
//
// Measures the DES hot path and guards it against regressions.  Two
// queues run the identical workload side by side:
//
//   hybrid   — des::EventQueue, the calendar/timing-wheel hybrid;
//   heapslab — des::HeapSlabQueue (oracle/heap_slab_queue.hpp), the
//              4-ary-heap slot slab the hybrid replaced (preserved
//              verbatim).
//
//   * schedule_pop     — steady-state schedule+pop throughput.  Also
//                        counts heap allocations per event in steady
//                        state — hybrid and heapslab must stay at
//                        exactly zero (warm-up runs long enough that
//                        every internal vector reaches its steady-state
//                        capacity BEFORE measurement starts; the old
//                        one-ring-lap warm-up missed a capacity
//                        doubling and leaked a 5e-7 allocs/op residue
//                        into the "steady state").
//   * cancel_heavy     — the network model's churn pattern: every event
//                        is cancelled (or rescheduled) before it fires.
//   * fabric_throughput— chained 8-byte fabric sends through the full
//                        engine + NIC pipes, wall-clock messages/sec and
//                        steady-state allocations per message (payload
//                        pool + delivery slots + inline callbacks).
//   * fig4_reduced     — wall-clock of a reduced fig-4 cell (4 nodes,
//                        N=36,000, nb=3,000, Model mode, LCI backend):
//                        end-to-end sanity that micro-wins survive the
//                        full stack.
//
// Emits BENCH_core.json, schema_version 2 (see --out).  --smoke shrinks
// iteration counts for CI; timing numbers from smoke runs are schema
// fodder, not data.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "des/event_queue.hpp"
#include "des/inplace_callback.hpp"
#include "hicma/driver.hpp"
#include "net/fabric.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeline.hpp"
#include "oracle/heap_slab_queue.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Every operator new in the process bumps it,
// so "allocations per event" is a hard number, not an estimate.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Benchmarks.  Each workload is identical across queue implementations:
// same ring size, same capture size (two pointers — the fabric delivery
// closure shape), same op sequence.

struct QueueBenchResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

// The fabric delivery closure: the message parks in a pooled slot and the
// closure is two pointers, inline in InplaceCallback.
struct PooledDeliveryShape {
  std::uint64_t* sink;
  const void* record;  // the pooled Delivery* in production
  void operator()() const {
    *sink += reinterpret_cast<std::uintptr_t>(record) & 1u;
  }
};
static_assert(sizeof(PooledDeliveryShape) <= des::InplaceCallback::kInlineBytes);

// Schedule-delta mix, replayed deterministically from the measured
// distribution of (fire_time - now) across every schedule in a 4-node
// Model-mode TLR Cholesky run: p10 25 ns (NIC msg-rate gap), p50 675 ns,
// p75 1 us (wire latency), p90 63 us, p99 80 ms (timers).  Heterogeneous
// deltas land new events throughout the heap, the way real traffic does —
// a monotone pattern would let every insert park at a leaf and understate
// the heap work both queues pay.
constexpr des::Time kScheduleDeltas[16] = {25,   25,   25,    25,    50,    50,
                                           675,  675,  675,   675,   1000,  1000,
                                           1000, 63366, 63366, 80413426};

template <typename Queue>
QueueBenchResult bench_schedule_pop(std::size_t ring, std::size_t ops) {
  Queue q;
  std::uint64_t sink = 0;
  const PooledDeliveryShape cb{&sink, &sink};
  if constexpr (requires { q.reserve(std::size_t{}); }) q.reserve(2 * ring);
  for (std::size_t i = 0; i < ring; ++i) {
    q.schedule(static_cast<des::Time>(i * 100), cb);
  }
  // Warm-up: slab free lists, map buckets, bucket/heap capacity all
  // settle.  Several full compaction cycles and wheel revolutions, not
  // one ring lap — a capacity doubling inside the measured loop reads as
  // a phantom "steady-state" allocation.
  const std::size_t warm = std::max<std::size_t>(8 * ring, 8192);
  for (std::size_t i = 0; i < warm; ++i) {
    auto fired = q.pop();
    q.schedule(fired.time + kScheduleDeltas[i & 15], cb);
  }
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    auto fired = q.pop();
    fired.fn();
    q.schedule(fired.time + kScheduleDeltas[i & 15], cb);
  }
  const double elapsed = seconds_since(t0);
  const std::uint64_t a1 = allocs_now();
  while (!q.empty()) q.pop();
  volatile std::uint64_t observe = sink;  // keep the callbacks' work alive
  (void)observe;
  QueueBenchResult r;
  r.events_per_sec = static_cast<double>(ops) / elapsed;
  r.allocs_per_event = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return r;
}

// RTO-timer closure shape: {channel, dst, seq}, 24 bytes, inline in
// InplaceCallback.
struct TimerShape {
  std::uint64_t* sink;
  std::uint32_t dst;
  std::uint64_t seq;
  void operator()() const { *sink += dst + seq; }
};

template <typename Queue>
QueueBenchResult bench_cancel_heavy(std::size_t ring, std::size_t ops) {
  Queue q;
  std::uint64_t sink = 0;
  const TimerShape cb{&sink, 3, 41};
  if constexpr (requires { q.reserve(std::size_t{}); }) q.reserve(2 * ring);
  // Long-lived anchors keep the heap honest (compaction has survivors).
  for (std::size_t i = 0; i < ring; ++i) {
    q.schedule(static_cast<des::Time>(1'000'000'000 + i), cb);
  }
  // Warm-up: enough schedule/cancel pairs that tombstone compaction has
  // cycled several times and every container has reached its
  // steady-state capacity (one ring lap left a heap-vector doubling to
  // fire mid-measurement: the 5e-7 allocs/op "steady state" of record).
  const std::size_t warm = std::max<std::size_t>(8 * ring, 8192);
  for (std::size_t i = 0; i < warm; ++i) {
    auto id = q.schedule(static_cast<des::Time>(i), cb);
    q.cancel(id);
  }
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    auto id = q.schedule(static_cast<des::Time>(i), cb);
    q.cancel(id);
  }
  const double elapsed = seconds_since(t0);
  const std::uint64_t a1 = allocs_now();
  while (!q.empty()) q.pop();
  volatile std::uint64_t observe = sink;  // keep the callbacks' work alive
  (void)observe;
  QueueBenchResult r;
  // One schedule + one cancel per iteration.
  r.events_per_sec = static_cast<double>(2 * ops) / elapsed;
  r.allocs_per_event =
      static_cast<double>(a1 - a0) / static_cast<double>(2 * ops);
  return r;
}

struct FabricBenchResult {
  double msgs_per_sec = 0;
  double allocs_per_msg = 0;
  double sim_seconds = 0;
};

// Chained sends: the next message leaves when the previous one clears the
// egress pipe, so the in-flight population — and therefore the pooled
// resources exercised — stays small and steady.
FabricBenchResult bench_fabric_throughput(std::size_t msgs) {
  des::Engine eng;
  net::FabricConfig cfg;
  cfg.link_bandwidth_Bps = 10e9;
  cfg.wire_latency = 1000;
  cfg.per_hop_latency = 0;
  cfg.nodes_per_switch = 1024;
  cfg.nic_msg_rate = 10e6;
  net::Fabric fab(eng, 2, cfg);
  std::uint64_t received = 0;
  fab.nic(1).set_deliver_handler([&](net::Message&&) { ++received; });

  struct Sender {
    net::Fabric* fab;
    std::size_t remaining;
    void send_one() {
      net::Message m;
      m.src = 0;
      m.dst = 1;
      m.wire_bytes = 8;
      net::Fabric* const f = fab;
      f->nic(0).send(std::move(m), [this] {
        if (--remaining > 0) send_one();
      });
    }
  };

  // Warm-up pass populates the delivery-record arena, the payload pool,
  // and — at one send per 100 ns of simulated time — spans the event
  // queue's full 262 µs wheel rotation, so every calendar bucket reaches
  // its steady-state capacity before the measured region starts.
  Sender warm{&fab, std::min<std::size_t>(msgs, 4096)};
  warm.send_one();
  eng.run();

  Sender s{&fab, msgs};
  const des::Time sim0 = eng.now();
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  s.send_one();
  eng.run();
  const double elapsed = seconds_since(t0);
  const std::uint64_t a1 = allocs_now();
  FabricBenchResult r;
  r.msgs_per_sec = static_cast<double>(msgs) / elapsed;
  r.allocs_per_msg = static_cast<double>(a1 - a0) / static_cast<double>(msgs);
  r.sim_seconds = static_cast<double>(eng.now() - sim0) / 1e9;
  if (received == 0) std::fprintf(stderr, "fabric bench delivered nothing\n");
  return r;
}

// ---------------------------------------------------------------------------
// Timeline-sampler and flight-recorder overhead (the observability PR's
// perf guards): the sampler hook is one compare per engine step, the
// recorder a branch + 32-byte store per fabric send.  Both are measured
// against the identical workload with the feature off.

// Dense traffic deltas only (25 ns .. 675 ns): a 100 us sample boundary
// then lands every few hundred events, the density of a real run's hot
// phase.  Long timer deltas would make the catch-up loop sample hundreds
// of boundaries per event and overstate the cost.
constexpr des::Time kStepDeltas[8] = {25, 25, 25, 25, 50, 50, 675, 675};

struct StepRates {
  double base = 0;     ///< engine steps/s, sampler disarmed
  double sampled = 0;  ///< engine steps/s, sampler armed
};

// One unsampled and one sampled leg on the SAME engine, queue storage,
// stepper and timeline, in the order `sampled_first` picks.  Sharing the
// objects matters: where the engine and its slab land in memory moves
// step throughput by up to ~15% from one process to the next (address
// randomization), so legs on separately built engines compare two memory
// layouts rather than sampler on vs off.
StepRates bench_engine_steps(std::size_t ops, bool sampled_first) {
  des::Engine eng;
  obs::Timeline tl{obs::TimelineConfig{}};  // default cadence, in-memory
  struct Stepper {
    des::Engine* eng;
    std::uint64_t fired = 0;
    std::size_t remaining = 0;
    void fire() {
      ++fired;
      if (remaining == 0) return;
      --remaining;
      eng->schedule_at(eng->now() + kStepDeltas[fired & 7],
                       [this]() { fire(); });
    }
  };
  Stepper st{&eng, 0, 0};
  // A representative per-node probe set (the standard set registers a
  // handful per node); all read live state.
  for (int i = 0; i < 4; ++i) {
    tl.add_probe("perf.qdepth", i, [&eng]() {
      return static_cast<double>(eng.owner_pending(0));
    });
  }
  tl.add_probe("perf.fired", -1,
               [&st]() { return static_cast<double>(st.fired); });
  const auto leg = [&](bool sampled, std::size_t n) {
    if (sampled) {
      tl.arm(eng);
    } else {
      eng.set_sampler(nullptr);
    }
    st.fired = 0;
    st.remaining = n;
    const des::Time start = eng.now();
    for (std::size_t i = 0; i < 64; ++i) {
      eng.schedule_at(start + static_cast<des::Time>(i * 100),
                      [&st]() { st.fire(); });
    }
    const auto t0 = Clock::now();
    eng.run();
    const double elapsed = seconds_since(t0);
    return static_cast<double>(n) / elapsed;
  };
  leg(false, ops / 4);  // unmeasured: grows the slab and wheel once
  StepRates r;
  if (sampled_first) {
    r.sampled = leg(true, ops);
    r.base = leg(false, ops);
  } else {
    r.base = leg(false, ops);
    r.sampled = leg(true, ops);
  }
  eng.set_sampler(nullptr);
  return r;
}

// Direct cost of one FlightRecorder::record() call (the fabric send path
// makes exactly one per message).  Measured straight rather than by
// differencing two fabric-throughput runs: the per-record cost is a few
// nanoseconds, so at smoke sizes the difference of two wall-clock
// throughputs is pure scheduler noise, while a tight loop over the call
// itself is stable to a fraction of a nanosecond.
double bench_record_ns(std::size_t n) {
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.begin_run(2);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    fr.record(static_cast<int>(i & 1), obs::FlightKind::MsgSend,
              static_cast<des::Time>(i), 0, i & 1, 8);
  }
  const double elapsed = seconds_since(t0);
  return elapsed * 1e9 / static_cast<double>(n);
}

struct Fig4Result {
  double wall_s = 0;
  double tts_s = 0;
  double msgs = 0;
};

Fig4Result bench_fig4_reduced() {
  hicma::ExperimentConfig cfg;
  cfg.nodes = 4;
  cfg.backend = ce::BackendKind::Lci;
  cfg.mt_activate = false;
  cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
  cfg.tlr.n = 36000;
  cfg.tlr.nb = 3000;
  (void)hicma::run_tlr_cholesky(cfg);  // warm-up (pools, code paths)
  const auto t0 = Clock::now();
  const auto res = hicma::run_tlr_cholesky(cfg);
  Fig4Result r;
  r.wall_s = seconds_since(t0);
  r.tts_s = res.tts_s;
  r.msgs = static_cast<double>(res.fabric_messages);
  return r;
}

void json_field(std::FILE* f, const char* key, double v, bool last = false) {
  std::fprintf(f, "    \"%s\": %.17g%s\n", key, v, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  // In-flight event population, sampled every 100 us of simulated time
  // across a 4-node Model-mode TLR Cholesky run: mean 9, peak 28.  A ring
  // of 64 covers that peak with headroom; inflating it further would just
  // let heap-sift costs (common to both queues) drown the per-event fixed
  // costs this benchmark exists to compare.
  const std::size_t ring = 64;
  // Smoke keeps the FULL-SIZE measured loops and trims only rep count
  // (and the fabric/timeline legs): the CI regression guard compares
  // smoke-mode speedup ratios against the committed full-mode baseline,
  // so the measured region must be identical — and a rep shorter than
  // one OS scheduler tick (~10 ms) is one preemption away from a
  // 2x-skewed ratio and a false alarm.  9 reps of ~10-70 ms loops keep
  // the queue legs under ~3 s total.
  const std::size_t ops = 1'000'000;
  const std::size_t fab_msgs = smoke ? 20'000 : 200'000;
  // N INTERLEAVED hybrid/heapslab reps: wall-clock on a shared machine is
  // noisy, the fastest rep is the closest estimate of the code's
  // intrinsic cost, and alternating the queues rep-by-rep keeps a load
  // spike from taxing only one side of a pair.
  const int reps = smoke ? 9 : 15;

  std::printf("perf_core (%s mode)\n", smoke ? "smoke" : "full");

  // The speedup is the ratio of the two bests in full mode (the committed
  // baseline).  Smoke mode, which the CI guard reads on a shared box,
  // takes the median of the per-pair ratios instead: one lucky hybrid rep
  // or one load spike on a heap-slab rep moves a ratio of bests, while
  // the median of the pairs needs most of them to move.
  struct TwoWay {
    QueueBenchResult hybrid, heapslab;
    double speedup = 0;
  };
  const auto best_of2 = [reps, smoke](auto&& measure_a, auto&& measure_b) {
    TwoWay best;
    std::vector<double> pair_ratios;
    for (int r = 0; r < reps; ++r) {
      const QueueBenchResult a = measure_a();
      const QueueBenchResult b = measure_b();
      if (r == 0 || a.events_per_sec > best.hybrid.events_per_sec) {
        best.hybrid = a;
      }
      if (r == 0 || b.events_per_sec > best.heapslab.events_per_sec) {
        best.heapslab = b;
      }
      pair_ratios.push_back(a.events_per_sec / b.events_per_sec);
    }
    if (smoke) {
      const auto mid = pair_ratios.begin() + pair_ratios.size() / 2;
      std::nth_element(pair_ratios.begin(), mid, pair_ratios.end());
      best.speedup = *mid;
    } else {
      best.speedup = best.hybrid.events_per_sec / best.heapslab.events_per_sec;
    }
    return best;
  };

  const TwoWay sp = best_of2(
      [&] { return bench_schedule_pop<des::EventQueue>(ring, ops); },
      [&] { return bench_schedule_pop<des::HeapSlabQueue>(ring, ops); });
  std::printf(
      "schedule_pop   : hybrid %.3g ev/s (%.3g allocs/ev), heapslab %.3g "
      "ev/s, %.2fx vs heapslab\n",
      sp.hybrid.events_per_sec, sp.hybrid.allocs_per_event,
      sp.heapslab.events_per_sec, sp.speedup);

  const TwoWay ch = best_of2(
      [&] { return bench_cancel_heavy<des::EventQueue>(ring, ops); },
      [&] { return bench_cancel_heavy<des::HeapSlabQueue>(ring, ops); });
  std::printf(
      "cancel_heavy   : hybrid %.3g op/s (%.3g allocs/op), heapslab %.3g "
      "op/s, %.2fx vs heapslab\n",
      ch.hybrid.events_per_sec, ch.hybrid.allocs_per_event,
      ch.heapslab.events_per_sec, ch.speedup);

  const auto fabr = bench_fabric_throughput(fab_msgs);
  std::printf("fabric         : %.3g msg/s wall (%.3g allocs/msg)\n",
              fabr.msgs_per_sec, fabr.allocs_per_msg);

  // A real end-to-end run first: its wall-clock and flight-record count
  // are the denominator of the recorder-overhead guard below.
  const auto fig4 = bench_fig4_reduced();
  std::printf("fig4_reduced   : wall %.3f s, tts %.6f s, %.0f msgs\n",
              fig4.wall_s, fig4.tts_s, fig4.msgs);
  std::uint64_t fig4_records = 0;
  for (int n = -1; n < obs::FlightRecorder::global().num_nodes(); ++n) {
    fig4_records += obs::FlightRecorder::global().total_records(n);
  }

  // Observability overhead guards.  Best-of interleaved pairs, like the
  // queue comparison: the min over reps estimates intrinsic cost, and
  // alternating keeps machine noise from taxing one side.  The sampler
  // legs are short (~15 ms at smoke size) and a single leg can lose 20%
  // to a load spike, so each rep runs three engine pairs: the best of 27
  // legs per side is stable where the best of 9 was not.  The recorder
  // guard is direct-cost based — (records made by the fig4 run) x (cost
  // of one record()) over the run's wall-clock — because the per-record
  // cost is a few nanoseconds and differencing two wall-clock throughputs
  // at smoke sizes measures scheduler noise, not the recorder.
  const std::size_t tl_ops = smoke ? 400'000 : 2'000'000;
  const int tl_reps = 9;
  double base_steps = 0;
  double sampled_steps = 0;
  double base_msgs = 0;
  double recorder_msgs = 0;
  double record_ns = 1e99;
  for (int r = 0; r < tl_reps; ++r) {
    for (int p = 0; p < 3; ++p) {
      const StepRates steps = bench_engine_steps(tl_ops, ((r + p) & 1) != 0);
      base_steps = std::max(base_steps, steps.base);
      sampled_steps = std::max(sampled_steps, steps.sampled);
    }
    obs::FlightRecorder::global().set_enabled(false);
    base_msgs = std::max(base_msgs, bench_fabric_throughput(fab_msgs).msgs_per_sec);
    obs::FlightRecorder::global().set_enabled(true);
    recorder_msgs =
        std::max(recorder_msgs, bench_fabric_throughput(fab_msgs).msgs_per_sec);
    record_ns = std::min(record_ns, bench_record_ns(tl_ops));
  }
  const double sampler_overhead = 1.0 - sampled_steps / base_steps;
  const double recorder_overhead =
      record_ns * static_cast<double>(fig4_records) / (fig4.wall_s * 1e9);
  std::printf(
      "timeline       : sampler %.3g ev/s vs %.3g (overhead %.2f%%), "
      "recorder %.2f ns/record x %llu records (overhead %.2f%%)\n",
      sampled_steps, base_steps, sampler_overhead * 100.0, record_ns,
      static_cast<unsigned long long>(fig4_records), recorder_overhead * 100.0);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_core\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"schedule_pop\": {\n");
  json_field(f, "ops", static_cast<double>(ops));
  json_field(f, "ring", static_cast<double>(ring));
  json_field(f, "events_per_sec", sp.hybrid.events_per_sec);
  json_field(f, "heapslab_events_per_sec", sp.heapslab.events_per_sec);
  json_field(f, "speedup_vs_heapslab", sp.speedup);
  json_field(f, "steady_state_allocs_per_event", sp.hybrid.allocs_per_event);
  json_field(f, "heapslab_allocs_per_event", sp.heapslab.allocs_per_event,
             true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cancel_heavy\": {\n");
  json_field(f, "ops", static_cast<double>(2 * ops));
  json_field(f, "events_per_sec", ch.hybrid.events_per_sec);
  json_field(f, "heapslab_events_per_sec", ch.heapslab.events_per_sec);
  json_field(f, "speedup_vs_heapslab", ch.speedup);
  json_field(f, "steady_state_allocs_per_event", ch.hybrid.allocs_per_event);
  json_field(f, "heapslab_allocs_per_event", ch.heapslab.allocs_per_event,
             true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fabric_throughput\": {\n");
  json_field(f, "messages", static_cast<double>(fab_msgs));
  json_field(f, "msgs_per_sec", fabr.msgs_per_sec);
  json_field(f, "allocs_per_msg", fabr.allocs_per_msg);
  json_field(f, "sim_seconds", fabr.sim_seconds, true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"timeline\": {\n");
  json_field(f, "ops", static_cast<double>(tl_ops));
  json_field(f, "base_events_per_sec", base_steps);
  json_field(f, "sampled_events_per_sec", sampled_steps);
  json_field(f, "sampler_overhead", sampler_overhead);
  json_field(f, "base_msgs_per_sec", base_msgs);
  json_field(f, "recorder_msgs_per_sec", recorder_msgs);
  json_field(f, "record_ns_per_call", record_ns);
  json_field(f, "fig4_records", static_cast<double>(fig4_records));
  json_field(f, "recorder_overhead", recorder_overhead, true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fig4_reduced\": {\n");
  json_field(f, "nodes", 4);
  json_field(f, "n", 36000);
  json_field(f, "nb", 3000);
  json_field(f, "wall_s", fig4.wall_s);
  json_field(f, "tts_s", fig4.tts_s);
  json_field(f, "messages", fig4.msgs, true);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
