// Chrome/Perfetto `trace_event` JSON export of a recorded simulation
// (DESIGN.md §9).
//
// The emitted file is the classic JSON-object trace format
// (`{"traceEvents":[...], "displayTimeUnit":"ms"}`) that ui.perfetto.dev and
// chrome://tracing both load natively. Track layout:
//
//   * One *process* per job (pid = job + 1, named via "M" metadata from the
//     recorder's label directory when available), with
//       - one thread per flow group ("X" complete slices per flow:
//         start -> finish, instant "i" events for park/resume/reroute/
//         retry/abandon), and
//       - one thread per worker for compute phases (task "X" slices).
//   * A dedicated *counters* process (pid = kCountersPid) holding "C"
//     counter tracks sampled from a MetricsSnapshot's time series --
//     per-link utilization (named after the topology's endpoint nodes when
//     one is supplied) and scheduler-level series such as active flows.
//   * Control-plane events (control passes, alloc passes, fault firings,
//     heuristic runs, reuse hits) land on named threads of a *control*
//     process (pid = kControlPid).
//
// Times are seconds in the simulator and microseconds in trace_event; the
// exporter multiplies by 1e6. Flows whose finish was dropped from the ring
// are closed at the recorder's horizon (last event time) so every slice
// remains well-formed.
//
// parse_trace_event_json() is a deliberately small parser for exactly the
// subset this exporter emits (flat string/number fields, no nesting inside
// args beyond one level). It exists so tests and CI can round-trip the
// output without a JSON dependency.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace echelon::topology {
class Topology;
}  // namespace echelon::topology

namespace echelon::obs {

// Synthetic pids for non-job tracks. Job pids are job + 1 (jobs are
// 0-based), so reserve a distant range to avoid collisions.
inline constexpr std::uint64_t kControlPid = 1'000'000;
inline constexpr std::uint64_t kCountersPid = 1'000'001;
// Series named "service.*" -- in practice the `--profile` wall-clock
// self-profile, service.profile.*_ms -- render as counter tracks of their
// own "service control" process, apart from the simulation counters. The
// service telemetry registry (queue depth, SLO gauges) holds current values
// only and does not reach the trace.
inline constexpr std::uint64_t kServicePid = 1'000'002;

struct PerfettoOptions {
  // When supplied, link counter tracks are named "src->dst"; otherwise
  // "link.<id>".
  const topology::Topology* topology = nullptr;
};

// Writes the recorder (and, optionally, a metrics snapshot's time series)
// as trace_event JSON. Returns the number of traceEvents emitted.
std::size_t write_perfetto_trace(std::ostream& os, const TraceRecorder& rec,
                                 const MetricsSnapshot* metrics = nullptr,
                                 const PerfettoOptions& options = {});

// Convenience: open `path` and write. Returns false when the file cannot be
// opened or the stream fails.
[[nodiscard]] bool write_perfetto_trace_file(
    const std::string& path, const TraceRecorder& rec,
    const MetricsSnapshot* metrics = nullptr,
    const PerfettoOptions& options = {});

// One parsed traceEvent (subset of fields the exporter emits).
struct ParsedTraceEvent {
  std::string name;
  std::string ph;   // "X", "i", "C", "M"
  std::string cat;
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  double ts = 0.0;
  double dur = 0.0;   // "X" only
  bool has_dur = false;
};

struct ParsedTrace {
  std::vector<ParsedTraceEvent> events;
  bool ok = false;           // false => `error` explains
  std::string error;

  [[nodiscard]] std::size_t count_ph(std::string_view ph) const;
  [[nodiscard]] std::size_t count_name(std::string_view name) const;
};

// Parses the subset of trace_event JSON that write_perfetto_trace emits.
[[nodiscard]] ParsedTrace parse_trace_event_json(std::istream& is);

}  // namespace echelon::obs
