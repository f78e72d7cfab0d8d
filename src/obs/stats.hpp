// Metrics primitives: Counter, log-bucketed Histogram, the named Recorder
// registry, and the export tables that carry a layer's stats struct into
// a Recorder.
//
// Everything here is zero-dependency, deterministic, and mergeable:
// per-node (or per-backend) recorders can be combined into cluster-wide
// aggregates, the way the paper's §6.1.3 methodology sums per-rank
// measurements.  Histograms keep fixed-size geometric buckets (8 per
// octave, ~9% relative resolution) so p50/p90/p99/max queries cost O(1)
// memory regardless of sample count — distributions, not just the means
// the earlier ad-hoc counters reported.
//
// Event counts have one home: a plain field in their layer's stats
// struct.  A live Recorder only holds histograms, resolved once to
// Histogram* by each layer's set_recorder; counters reach a Recorder
// at export, through the layer's CounterField table.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void merge(const Counter& o) { value_ += o.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log-bucketed histogram of non-negative samples (latencies in ns, byte
/// counts, ...).  Samples below 1 land in bucket 0; the geometric range
/// covers [1, 2^40) with 8 sub-buckets per octave.  Percentiles
/// interpolate linearly within a bucket and are clamped to the observed
/// [min, max].
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;      // sub-buckets per octave
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = kOctaves * kSub + 1;  // +1: the [0,1) bucket

  void add(double v);
  void merge(const Histogram& o);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Value at percentile `p` in [0, 100].  0 when empty.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

 private:
  static int bucket_of(double v);
  static double bucket_lo(int b);
  static double bucket_hi(int b);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named-metric registry.  Lookup creates on first use; iteration order is
/// the name order (std::map), so reports are deterministic.  Copyable, so
/// results structs can carry a snapshot out of a finished simulation.
/// Map nodes are stable, so a Histogram& handed out stays valid for the
/// recorder's lifetime.
class Recorder {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-only lookup; null when the metric was never touched.
  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Combines another recorder into this one, metric by metric.
  void merge(const Recorder& o);

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// One row of a stats struct's export table: the exported metric name and
/// the struct field that holds the count.
template <class Stats>
struct CounterField {
  const char* name;
  std::uint64_t Stats::*field;
};

/// Adds every nonzero field of `s` listed in `table` to `rec` under its
/// name.  Zero fields are skipped, so a counter appears in the export
/// exactly when it counted something.
template <class Stats, std::size_t N>
void export_counters(const Stats& s, const CounterField<Stats> (&table)[N],
                     Recorder& rec) {
  for (const CounterField<Stats>& f : table) {
    if (s.*f.field != 0) rec.counter(f.name).add(s.*f.field);
  }
}

/// Machine-readable dump of a recorder: one JSON object with "counters"
/// (name -> value) and "histograms" (name -> {count,sum,mean,min,max,p50,
/// p90,p99}).  A histogram without samples is left out, so a metric
/// appears if and only if it observed something.  Key order follows the
/// recorder's (sorted) iteration order, so outputs of identical runs are
/// byte-identical and diffable in CI.
std::string metrics_json(const Recorder& rec);

}  // namespace obs
