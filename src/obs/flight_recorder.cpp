#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/artifact.hpp"

namespace obs {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::MsgSend: return "msg_send";
    case FlightKind::MsgDrop: return "msg_drop";
    case FlightKind::Crash: return "crash";
    case FlightKind::Restart: return "restart";
    case FlightKind::FdState: return "fd_state";
    case FlightKind::RelTimeout: return "rel_timeout";
    case FlightKind::RelRetransmit: return "rel_retransmit";
    case FlightKind::TaskDone: return "task_done";
    case FlightKind::Recovery: return "recovery";
    case FlightKind::RunStatus: return "run_status";
    case FlightKind::Invariant: return "invariant";
    case FlightKind::Sample: return "sample";
  }
  return "?";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

void FlightRecorder::begin_run(int num_nodes) {
  num_nodes_ = num_nodes < 0 ? 0 : num_nodes;
  rings_.assign(static_cast<std::size_t>(num_nodes_) + 1, Ring{});
  for (Ring& r : rings_) r.buf.resize(kRingCapacity);
}

std::uint64_t FlightRecorder::total_records(int node) const {
  const auto idx = static_cast<std::size_t>(node < 0 ? 0 : node + 1);
  if (idx >= rings_.size()) return 0;
  return rings_[idx].total;
}

std::vector<FlightRecord> FlightRecorder::snapshot(int node) const {
  std::vector<FlightRecord> out;
  const auto idx = static_cast<std::size_t>(node < 0 ? 0 : node + 1);
  if (idx >= rings_.size()) return out;
  const Ring& r = rings_[idx];
  const std::size_t held =
      r.total < r.buf.size() ? static_cast<std::size_t>(r.total)
                             : r.buf.size();
  out.reserve(held);
  // Oldest first: the ring wraps at head, so the oldest surviving record
  // sits at head when full, at 0 otherwise.
  const std::size_t start = r.total < r.buf.size() ? 0 : r.head;
  for (std::size_t i = 0; i < held; ++i) {
    out.push_back(r.buf[(start + i) % r.buf.size()]);
  }
  return out;
}

namespace {

void append_section(std::string& out, const char* key,
                    std::string_view value_json) {
  out += "  \"";
  out += key;
  out += "\": ";
  if (value_json.empty()) {
    out += "null";
  } else {
    out += value_json;
  }
}

}  // namespace

std::string FlightRecorder::bundle_json(std::string_view reason,
                                        std::string_view config_json,
                                        std::string_view crash_schedule_json,
                                        std::string_view metrics_json) const {
  std::string out;
  out.reserve(1u << 16);
  out += "{\n  \"bench\": \"postmortem\",\n  \"schema_version\": 1,\n";
  out += "  \"reason\": ";
  append_json_string(out, reason);
  out += ",\n";
  out += "  \"ring_capacity\": " + std::to_string(kRingCapacity) + ",\n";
  out += "  \"num_nodes\": " + std::to_string(num_nodes_) + ",\n";
  out += "  \"rings\": [";
  bool first_ring = true;
  for (int node = -1; node < num_nodes_; ++node) {
    const std::vector<FlightRecord> recs = snapshot(node);
    out += first_ring ? "\n" : ",\n";
    first_ring = false;
    out += "    { \"node\": " + std::to_string(node);
    out += ", \"total\": " + std::to_string(total_records(node));
    out += ", \"records\": [";
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const FlightRecord& r = recs[i];
      out += i == 0 ? "\n" : ",\n";
      out += "      { \"t_ns\": " + std::to_string(r.t);
      out += ", \"kind\": \"";
      out += flight_kind_name(static_cast<FlightKind>(r.kind));
      out += "\", \"code\": " + std::to_string(r.code);
      out += ", \"a\": " + std::to_string(r.a);
      out += ", \"b\": " + std::to_string(r.b) + " }";
    }
    out += recs.empty() ? "] }" : " ] }";
  }
  out += first_ring ? "],\n" : "\n  ],\n";
  append_section(out, "config", config_json);
  out += ",\n";
  append_section(out, "crash_schedule", crash_schedule_json);
  out += ",\n";
  append_section(out, "metrics", metrics_json);
  out += "\n}\n";
  return out;
}

std::string FlightRecorder::dump_postmortem(
    std::string_view reason, std::string_view config_json,
    std::string_view crash_schedule_json, std::string_view metrics_json) const {
  const char* p = std::getenv("AMTLCE_POSTMORTEM");
  if (p != nullptr &&
      (std::string_view(p) == "off" || std::string_view(p) == "0")) {
    return {};
  }
  const std::string path = (p != nullptr && *p != '\0') ? p : "postmortem.json";
  if (!write_file(path, bundle_json(reason, config_json, crash_schedule_json,
                                    metrics_json),
                  "postmortem")) {
    return {};
  }
  std::fprintf(stderr, "postmortem bundle written to %s (%s)\n", path.c_str(),
               std::string(reason).c_str());
  return path;
}

}  // namespace obs
