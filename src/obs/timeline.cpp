#include "obs/timeline.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>

#include "des/trace_sink.hpp"
#include "obs/artifact.hpp"

namespace obs {
namespace {

std::string counter_name(const ProbeSeries& s) {
  // Chrome-trace counters are keyed by (pid, name) — the tid is not part
  // of the identity — so the node id must be folded into the name for
  // per-node series to render as separate tracks.
  if (s.node < 0) return s.name;
  return s.name + ".n" + std::to_string(s.node);
}

std::string fmt_ms(des::Time t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(t) / 1e6);
  return buf;
}

}  // namespace

TimelineConfig TimelineConfig::from_env() {
  TimelineConfig cfg;
  cfg.interval = 0;  // disabled until AMTLCE_TIMELINE provides a path
  const char* p = std::getenv("AMTLCE_TIMELINE");
  if (p == nullptr || *p == '\0') return cfg;
  std::string spec(p);
  cfg.interval = kDefaultInterval;
  // path[,interval_us] — the text after the last comma is the cadence
  // unless it holds a '/', in which case the comma is inside a directory
  // name and the whole value is the path.  A cadence must parse whole as
  // a positive number of microseconds that fits in simulated time.
  if (const auto comma = spec.rfind(',');
      comma != std::string::npos &&
      spec.find('/', comma) == std::string::npos) {
    const std::string tail = spec.substr(comma + 1);
    char* end = nullptr;
    errno = 0;
    const double us = std::strtod(tail.c_str(), &end);
    const std::optional<des::Duration> ns =
        des::checked_duration(us, des::kMicrosecond);
    if (end == tail.c_str() || *end != '\0' || errno == ERANGE ||
        !(us > 0) || !ns) {
      throw std::invalid_argument(
          "AMTLCE_TIMELINE wants path[,interval_us] with a positive "
          "interval_us, got \"" + spec + "\"");
    }
    cfg.interval = std::max<des::Duration>(*ns, 1);
    spec.resize(comma);
  }
  cfg.path = std::move(spec);
  return cfg;
}

Timeline::Timeline(TimelineConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.interval <= 0) cfg_.interval = TimelineConfig::kDefaultInterval;
  next_due_ = cfg_.interval;
}

Timeline::~Timeline() { write(); }

void Timeline::add_probe(std::string name, int node,
                         std::function<double()> fn) {
  Probe p;
  p.series.name = std::move(name);
  p.series.node = node;
  p.read = std::move(fn);
  probes_.push_back(std::move(p));
}

void Timeline::mark_phase(std::string name, des::Time t) {
  phases_.push_back(PhaseMark{std::move(name), t});
}

des::Time Timeline::arm(des::Engine& eng) {
  next_due_ = eng.now() + cfg_.interval;
  eng.set_sampler(this, next_due_);
  return next_due_;
}

des::Time Timeline::on_sample(des::Time now) {
  if (finished_) return des::kTimeNever;
  // Catch up over event gaps: one sample per elapsed boundary, so idle
  // stretches cost probe reads but store nothing (delta encoding).
  while (next_due_ <= now) {
    sample_all(next_due_);
    next_due_ += cfg_.interval;
  }
  return next_due_;
}

void Timeline::sample_all(des::Time t) {
  for (Probe& p : probes_) {
    ProbeSeries& s = p.series;
    const double v = p.read();
    const bool first = s.samples == 0;
    ++s.samples;
    if (first) {
      s.min = s.max = v;
      s.t_max = t;
      s.first_t = t;
    } else {
      s.tw_integral += s.last * static_cast<double>(t - s.last_t);
      if (v < s.min) s.min = v;
      if (v > s.max) {
        s.max = v;
        s.t_max = t;
      }
    }
    if (first || v != s.last) {
      if (s.times.size() < cfg_.max_samples_per_probe) {
        s.times.push_back(t);
        s.values.push_back(v);
        if (sink_ != nullptr) {
          const std::string track =
              s.node < 0 ? "cluster.counters"
                         : "node" + std::to_string(s.node) + ".counters";
          sink_->counter(track, counter_name(s), t, v);
        }
      } else {
        ++s.dropped;
      }
    }
    s.last = v;
    s.last_t = t;
  }
}

void Timeline::finish(des::Time end) {
  if (finished_) return;
  // One closing sample at the quiesce time (not necessarily on a
  // boundary) so every series' level and time-weighted window extend to
  // the end of the run.
  if (probes_.empty() || end > probes_.front().series.last_t ||
      probes_.front().series.samples == 0) {
    sample_all(end);
  }
  finished_ = true;
}

std::string Timeline::json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"bench\": \"timeline\",\n  \"schema_version\": 1,\n";
  out += "  \"interval_ns\": " + std::to_string(cfg_.interval) + ",\n";
  out += "  \"max_samples_per_probe\": " +
         std::to_string(cfg_.max_samples_per_probe) + ",\n";
  out += "  \"phases\": [";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    { \"name\": ";
    append_json_string(out, phases_[i].name);
    out += ", \"t_ns\": " + std::to_string(phases_[i].t) + " }";
  }
  out += phases_.empty() ? "],\n" : "\n  ],\n";
  out += "  \"probes\": [";
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    const ProbeSeries& s = probes_[i].series;
    out += i == 0 ? "\n" : ",\n";
    out += "    { \"name\": ";
    append_json_string(out, s.name);
    out += ", \"node\": " + std::to_string(s.node);
    out += ", \"samples\": " + std::to_string(s.samples);
    out += ", \"stored\": " + std::to_string(s.times.size());
    out += ", \"dropped\": " + std::to_string(s.dropped);
    out += ", \"min\": ";
    append_json_number(out, s.min);
    out += ", \"max\": ";
    append_json_number(out, s.max);
    out += ", \"t_max_ns\": " + std::to_string(s.t_max);
    out += ", \"last\": ";
    append_json_number(out, s.last);
    out += ", \"tw_mean\": ";
    append_json_number(out, s.tw_mean());
    out += ",\n      \"points\": [";
    for (std::size_t j = 0; j < s.times.size(); ++j) {
      if (j != 0) out += ',';
      out += '[';
      out += std::to_string(s.times[j]);
      out += ',';
      append_json_number(out, s.values[j]);
      out += ']';
    }
    out += "] }";
  }
  out += probes_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string Timeline::report(int k) const {
  // Group per-node series by probe name; within each family rank nodes
  // by peak value.  std::map keeps family order deterministic.
  std::map<std::string, std::vector<const ProbeSeries*>> families;
  for (const Probe& p : probes_) {
    if (p.series.samples == 0) continue;
    families[p.series.name].push_back(&p.series);
  }
  std::string out = "== timeline report (interval " +
                    std::to_string(cfg_.interval / 1000) + " us, " +
                    std::to_string(probes_.size()) + " probes) ==\n";
  char buf[192];
  for (auto& [name, series] : families) {
    std::stable_sort(series.begin(), series.end(),
                     [](const ProbeSeries* a, const ProbeSeries* b) {
                       return a->max > b->max;
                     });
    std::snprintf(buf, sizeof buf, "  %-24s", name.c_str());
    out += buf;
    const int n = std::min<int>(k, static_cast<int>(series.size()));
    for (int i = 0; i < n; ++i) {
      const ProbeSeries& s = *series[i];
      if (i != 0) out += "; ";
      if (s.node >= 0) {
        std::snprintf(buf, sizeof buf, "n%d peak %.4g @ %s", s.node, s.max,
                      fmt_ms(s.t_max).c_str());
      } else {
        std::snprintf(buf, sizeof buf, "peak %.4g @ %s (tw-mean %.4g)",
                      s.max, fmt_ms(s.t_max).c_str(), s.tw_mean());
      }
      out += buf;
    }
    if (static_cast<int>(series.size()) > n) {
      std::snprintf(buf, sizeof buf, "; +%d more",
                    static_cast<int>(series.size()) - n);
      out += buf;
    }
    out += '\n';
  }
  if (!phases_.empty()) {
    des::Time end = 0;
    for (const Probe& p : probes_) end = std::max(end, p.series.last_t);
    out += "  phases:\n";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      const des::Time t0 = phases_[i].t;
      const des::Time t1 = i + 1 < phases_.size() ? phases_[i + 1].t : end;
      const des::Time span = t1 > t0 ? t1 - t0 : 0;
      const double pct = end > phases_.front().t
                             ? 100.0 * static_cast<double>(span) /
                                   static_cast<double>(end - phases_.front().t)
                             : 0.0;
      std::snprintf(buf, sizeof buf, "    %-28s %s -> %s (%.1f%%)\n",
                    phases_[i].name.c_str(), fmt_ms(t0).c_str(),
                    fmt_ms(t1).c_str(), pct);
      out += buf;
    }
  }
  return out;
}

void Timeline::write() {
  if (written_ || cfg_.path.empty()) return;
  written_ = true;
  write_file(cfg_.path, json(), "timeline");
}

std::unique_ptr<Timeline> Timeline::attach_from_env(des::Engine& engine) {
  TimelineConfig cfg = TimelineConfig::from_env();
  if (!cfg.enabled() || cfg.path.empty()) return nullptr;
  // Multi-simulation processes keep every timeline, like the Tracer.
  static int attach_count = 0;
  cfg.path = numbered_path(std::move(cfg.path), attach_count);
  auto tl = std::make_unique<Timeline>(std::move(cfg));
  tl->arm(engine);
  return tl;
}

}  // namespace obs
