#include "obs/stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/artifact.hpp"

namespace obs {

int Histogram::bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // sub-unit, zero, negative, NaN
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant in [0.5, 1)
  const int octave = std::min(exp - 1, kOctaves - 1);
  const int sub = std::min(
      kSub - 1, static_cast<int>((mant - 0.5) * 2.0 * kSub));
  return 1 + octave * kSub + sub;
}

double Histogram::bucket_lo(int b) {
  if (b <= 0) return 0.0;
  const int octave = (b - 1) / kSub;
  const int sub = (b - 1) % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, octave);
}

double Histogram::bucket_hi(int b) {
  if (b <= 0) return 1.0;
  const int octave = (b - 1) / kSub;
  const int sub = (b - 1) % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSub, octave);
}

void Histogram::add(double v) {
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

void Histogram::merge(const Histogram& o) {
  if (o.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        o.buckets_[static_cast<std::size_t>(b)];
  }
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (count_ == 0 || o.max_ > max_) max_ = o.max_;
  sum_ += o.sum_;
  count_ += o.count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based (nearest-rank definition).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                              static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (seen + n >= rank) {
      // Interpolate within the bucket, then clamp to the observed range.
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(n);
      const double lo = bucket_lo(b);
      const double hi = bucket_hi(b);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    seen += n;
  }
  return max_;
}

Counter& Recorder::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram& Recorder::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

const Counter* Recorder::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* Recorder::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Recorder::merge(const Recorder& o) {
  for (const auto& [name, c] : o.counters_) counter(name).merge(c);
  for (const auto& [name, h] : o.histograms_) histogram(name).merge(h);
}

std::string metrics_json(const Recorder& rec) {
  std::string out;
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : rec.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": ";
    out += std::to_string(c.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : rec.histograms()) {
    if (h.count() == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": {\"count\": ";
    out += std::to_string(h.count());
    out += ", \"sum\": ";
    append_json_number(out, h.sum());
    out += ", \"mean\": ";
    append_json_number(out, h.mean());
    out += ", \"min\": ";
    append_json_number(out, h.min());
    out += ", \"max\": ";
    append_json_number(out, h.max());
    out += ", \"p50\": ";
    append_json_number(out, h.p50());
    out += ", \"p90\": ";
    append_json_number(out, h.p90());
    out += ", \"p99\": ";
    append_json_number(out, h.p99());
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace obs
