// Chrome-trace (chrome://tracing / Perfetto) exporter for simulated time.
//
// Implements des::TraceSink: every span becomes a `ph:"X"` complete event
// and every point event a `ph:"i"` instant event in the Trace Event JSON
// format; tracks (simulated threads, NIC pipes) map to tids with thread_name
// metadata so the viewer labels them.  Timestamps are simulated
// microseconds (ts/dur fields), with displayTimeUnit "ns".
//
// Tracing is opt-in via AMTLCE_TRACE=<path>: attach_from_env() installs a
// tracer on the engine only when the variable is set, so an untracing run
// pays exactly one null-pointer check per potential event.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "des/engine.hpp"
#include "des/trace_sink.hpp"

namespace obs {

struct TraceConfig {
  std::string path;  ///< output file; empty disables tracing

  /// In-memory event cap; events past the cap are counted as dropped, not
  /// stored, so long chaos soaks with tracing on stay bounded.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 21;
  std::size_t max_events = kDefaultMaxEvents;

  bool enabled() const { return !path.empty(); }

  /// Reads AMTLCE_TRACE (unset/empty => disabled).
  static TraceConfig from_env();
};

class Tracer final : public des::TraceSink {
 public:
  explicit Tracer(TraceConfig cfg);
  ~Tracer() override;  // writes the file if not already written

  void span(std::string_view track, std::string_view name, des::Time start,
            des::Duration dur) override;
  void instant(std::string_view track, std::string_view name,
               des::Time t) override;
  void flow(std::string_view track, std::string_view name, des::Time t,
            std::uint64_t id, bool begin) override;
  void counter(std::string_view track, std::string_view name, des::Time t,
               double value) override;

  std::size_t num_events() const { return events_.size(); }

  /// Events discarded because the buffer hit cfg.max_events.  Also emitted
  /// into the JSON as otherData.droppedEvents so a consumer of the file can
  /// tell the trace is truncated.
  std::uint64_t dropped_events() const { return dropped_; }

  /// Renders the full trace JSON (what write() puts on disk).
  std::string json() const;

  /// Writes the trace to cfg.path (no-op when disabled).  Idempotent;
  /// called automatically by the destructor.
  void write();

  /// When AMTLCE_TRACE is set, creates a tracer and installs it as
  /// `engine`'s sink; returns null (and installs nothing) otherwise.  A
  /// second attachment in the same process writes to "<path>.1", the next
  /// to "<path>.2", ... so multi-simulation drivers keep every trace.
  static std::unique_ptr<Tracer> attach_from_env(des::Engine& engine);

 private:
  enum class Kind : std::uint8_t { Span, Instant, FlowBegin, FlowEnd, Counter };

  struct Event {
    int tid;
    std::string name;
    des::Time ts;
    des::Duration dur;  // spans only
    Kind kind;
    std::uint64_t flow_id;  // flow events only
    double value = 0;       // counter events only
  };

  int tid_for(std::string_view track);
  bool admit();  // false (and counts a drop) once the buffer is full

  TraceConfig cfg_;
  std::vector<Event> events_;
  std::vector<std::string> tracks_;  // tid -> name
  std::unordered_map<std::string, int> tids_;
  std::uint64_t dropped_ = 0;
  bool written_ = false;
};

}  // namespace obs
