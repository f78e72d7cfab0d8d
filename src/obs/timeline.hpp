// Deterministic simulated-time timeline sampler.
//
// Every metric the runtime emits elsewhere is an end-of-run aggregate
// (obs::Recorder) or a discrete trace event (obs::Tracer).  The Timeline
// adds the time axis: registered probes — DES queue depths, link bytes,
// reliable-layer windows, FD states, ready-task counts — are snapshotted
// at a fixed simulated-time cadence and delta-encoded into bounded
// per-probe buffers.
//
// Scheduling: the Timeline implements des::Sampler, so the engine calls
// it BETWEEN events (one integer compare per step, no events scheduled,
// no sequence numbers consumed).  A sampler-on run therefore fires the
// exact same event order, RNG draws, and timestamps as a sampler-off run
// — the fingerprint tests pin this.  Sample timestamps are multiples of
// the interval; a sample at boundary t observes the state left by every
// event that fired strictly before t.
//
// Export, three ways:
//   * Perfetto counter tracks: each stored sample is forwarded to a
//     des::TraceSink as a ph:"C" point, so curves render interleaved
//     with the span/flow tracks of the same AMTLCE_TRACE file.
//   * json(): a schema-stable dump (schema_version 1) for the bench
//     harness; write() puts it on disk.
//   * report(): a top-k bottleneck summary (deepest probes by family,
//     phase attribution) the drivers print after a run.
//
// Opt-in via AMTLCE_TIMELINE=path[,interval_us]; with the variable unset
// attach_from_env() installs nothing and runs pay one compare per step
// against kTimeNever (the disarmed engine default).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "des/engine.hpp"
#include "des/time.hpp"

namespace des {
class TraceSink;
}

namespace obs {

struct TimelineConfig {
  std::string path;  ///< output file; empty = in-memory only (tests)

  /// Sampling cadence in simulated time.  100us resolves the millisecond
  /// dynamics the drivers care about (queue waves, FD outages) at ~25k
  /// samples for the fingerprint problem.
  static constexpr des::Duration kDefaultInterval = 100 * des::kMicrosecond;
  des::Duration interval = kDefaultInterval;

  /// Per-probe stored-sample cap.  Delta encoding stores only changes, so
  /// flat probes stay tiny; a probe that changes every tick saturates at
  /// the cap and counts further changes as dropped.
  std::size_t max_samples_per_probe = 1u << 14;

  bool enabled() const { return interval > 0; }

  /// Parses AMTLCE_TIMELINE=path[,interval_us].  Unset/empty => a config
  /// with an empty path and interval 0 (enabled() == false).  A suffix
  /// after the last comma without a '/' is the interval; one that is not
  /// a positive number fitting in simulated time throws
  /// std::invalid_argument.
  static TimelineConfig from_env();
};

/// One registered probe's stored series plus running statistics.  The
/// statistics cover every sample (including delta-suppressed and
/// capacity-dropped ones); the stored series is the changes-only curve.
struct ProbeSeries {
  std::string name;
  int node = -1;  ///< -1: cluster-wide probe
  std::vector<des::Time> times;   ///< change points (delta-encoded)
  std::vector<double> values;     ///< value from times[i] onward
  std::uint64_t samples = 0;      ///< boundaries observed
  std::uint64_t dropped = 0;      ///< changes lost to the per-probe cap
  double last = 0;
  double min = 0;
  double max = 0;
  des::Time t_max = 0;            ///< first boundary where max was seen
  double tw_integral = 0;         ///< time-weighted sum since first sample
  des::Time first_t = 0;
  des::Time last_t = 0;

  /// Time-weighted mean of the level over [first sample, finish).
  double tw_mean() const {
    return last_t > first_t
               ? tw_integral / static_cast<double>(last_t - first_t)
               : last;
  }
};

/// A phase marker: per-phase makespan attribution for the report.
struct PhaseMark {
  std::string name;
  des::Time t;
};

class Timeline final : public des::Sampler {
 public:
  explicit Timeline(TimelineConfig cfg);
  ~Timeline() override;  // writes the file if configured and not written

  const TimelineConfig& config() const { return cfg_; }

  /// Registers a probe read at every sample boundary.  `node` is -1 for
  /// cluster-wide series.  Registration order is export order — register
  /// deterministically.  Probes must stay callable until finish().
  void add_probe(std::string name, int node, std::function<double()> fn);

  /// Marks a named phase boundary at simulated time `t` (run start,
  /// first death, recovery complete, ...).  Phases segment the report's
  /// makespan attribution.
  void mark_phase(std::string name, des::Time t);

  /// Forwards every stored sample to `sink` as a ph:"C" counter point on
  /// track "node<N>.counters" (or "cluster.counters").  Null detaches.
  /// Typically the engine's Tracer, so curves land in the same
  /// Chrome-trace file as the span/flow events.
  void set_counter_sink(des::TraceSink* sink) { sink_ = sink; }

  /// Installs this timeline as `eng`'s sampler with the first boundary
  /// one interval past now.  Returns that first due time.
  des::Time arm(des::Engine& eng);

  /// des::Sampler: samples every due boundary <= now, returns the next.
  des::Time on_sample(des::Time now) override;

  /// Takes the final sample at `end` (quiesce time), closes every
  /// series' time-weighted window, and disarms future sampling.
  void finish(des::Time end);

  const ProbeSeries& probe(std::size_t i) const { return probes_[i].series; }
  const std::vector<PhaseMark>& phases() const { return phases_; }

  /// Schema-stable JSON dump (schema_version 1): config, phases, and one
  /// object per probe with the delta-encoded series and its statistics.
  /// Deterministic: identical runs render byte-identically.
  std::string json() const;

  /// Top-k bottleneck summary: per probe family (name prefix up to the
  /// last '.'), the k series with the largest peak, plus phase makespan
  /// attribution.  Human-readable; printed by the drivers.
  std::string report(int k = 3) const;

  /// Writes json() to cfg.path.  No-op when the path is empty; idempotent.
  void write();

  /// When AMTLCE_TIMELINE is set, creates a Timeline and arms it as
  /// `engine`'s sampler (first boundary = one interval past now);
  /// returns null and installs nothing otherwise.  Like the Tracer, a
  /// second attachment in one process writes "<path>.1", then ".2", ...
  /// — read config().path for the resolved name.
  static std::unique_ptr<Timeline> attach_from_env(des::Engine& engine);

 private:
  struct Probe {
    ProbeSeries series;
    std::function<double()> read;
  };

  void sample_all(des::Time t);

  TimelineConfig cfg_;
  std::vector<Probe> probes_;
  std::vector<PhaseMark> phases_;
  des::TraceSink* sink_ = nullptr;
  des::Time next_due_ = 0;
  bool finished_ = false;
  bool written_ = false;
};

}  // namespace obs
