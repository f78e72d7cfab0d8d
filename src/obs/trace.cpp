#include "obs/trace.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/artifact.hpp"

namespace obs {
namespace {

/// Nanoseconds -> microseconds with three decimals, Chrome's ts unit.
void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  if (const char* p = std::getenv("AMTLCE_TRACE"); p != nullptr && *p != '\0') {
    cfg.path = p;
  }
  return cfg;
}

Tracer::Tracer(TraceConfig cfg) : cfg_(std::move(cfg)) {}

Tracer::~Tracer() { write(); }

int Tracer::tid_for(std::string_view track) {
  if (const auto it = tids_.find(std::string(track)); it != tids_.end()) {
    return it->second;
  }
  const int tid = static_cast<int>(tracks_.size());
  tracks_.emplace_back(track);
  tids_.emplace(std::string(track), tid);
  return tid;
}

bool Tracer::admit() {
  if (events_.size() < cfg_.max_events) return true;
  ++dropped_;
  return false;
}

void Tracer::span(std::string_view track, std::string_view name,
                  des::Time start, des::Duration dur) {
  if (!admit()) return;
  if (dur < 0) dur = 0;
  events_.push_back(
      Event{tid_for(track), std::string(name), start, dur, Kind::Span, 0});
}

void Tracer::instant(std::string_view track, std::string_view name,
                     des::Time t) {
  if (!admit()) return;
  events_.push_back(
      Event{tid_for(track), std::string(name), t, 0, Kind::Instant, 0});
}

void Tracer::flow(std::string_view track, std::string_view name, des::Time t,
                  std::uint64_t id, bool begin) {
  if (!admit()) return;
  events_.push_back(Event{tid_for(track), std::string(name), t, 0,
                          begin ? Kind::FlowBegin : Kind::FlowEnd, id});
}

void Tracer::counter(std::string_view track, std::string_view name,
                     des::Time t, double value) {
  if (!admit()) return;
  events_.push_back(
      Event{tid_for(track), std::string(name), t, 0, Kind::Counter, 0, value});
}

std::string Tracer::json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":";
  out += std::to_string(dropped_);
  out += ",\"maxEvents\":";
  out += std::to_string(cfg_.max_events);
  out += "},\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata first, so viewers label tracks before any event.
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(out, tracks_[tid]);
    out += "}}";
  }
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    switch (e.kind) {
      case Kind::Instant:
        out += "{\"ph\":\"i\",\"s\":\"t\"";
        break;
      case Kind::Span:
        out += "{\"ph\":\"X\"";
        break;
      case Kind::Counter:
        // Counter tracks: the viewer keys series by (pid, name), renders
        // the value as a stepped area chart, and holds each point until
        // the next one.
        out += "{\"ph\":\"C\"";
        break;
      case Kind::FlowBegin:
      case Kind::FlowEnd:
        // Flow arrows: the viewer matches "s"/"f" pairs by (cat, id, name)
        // and binds each end to the slice enclosing ts on its track.
        // bp:"e" attaches the finish to the enclosing slice rather than
        // the next one, which is what a message-delivery handler wants.
        out += e.kind == Kind::FlowBegin ? "{\"ph\":\"s\""
                                         : "{\"ph\":\"f\",\"bp\":\"e\"";
        out += ",\"cat\":\"flow\",\"id\":";
        out += std::to_string(e.flow_id);
        break;
    }
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.ts);
    if (e.kind == Kind::Span) {
      out += ",\"dur\":";
      append_us(out, e.dur);
    }
    out += ",\"name\":";
    append_json_string(out, e.name);
    if (e.kind == Kind::Counter) {
      out += ",\"args\":{\"value\":";
      append_json_number(out, e.value);
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void Tracer::write() {
  if (written_ || !cfg_.enabled()) return;
  written_ = true;
  write_file(cfg_.path, json(), "trace");
}

std::unique_ptr<Tracer> Tracer::attach_from_env(des::Engine& engine) {
  TraceConfig cfg = TraceConfig::from_env();
  if (!cfg.enabled()) return nullptr;
  // One process may run several simulations (e.g. comm_thread_study runs
  // one per configuration); keep every trace by suffixing after the first.
  static int attach_count = 0;
  cfg.path = numbered_path(std::move(cfg.path), attach_count);
  auto tracer = std::make_unique<Tracer>(std::move(cfg));
  engine.set_trace_sink(tracer.get());
  return tracer;
}

}  // namespace obs
