// Bounded flight recorder for the service plane (DESIGN.md §15).
//
// A fixed-size ring of recent structured service events -- admission
// outcomes, launches, completions, fault firings, telemetry flushes,
// snapshot boundaries, and errors. The ring drops oldest on overflow but
// keeps exact cumulative per-kind counts, mirroring obs::TraceRecorder.
//
// On an error path (SnapshotError, unroutable flow, job abandon) the
// service dumps the ring as a self-contained text post-mortem:
//
//   ECHFLIGHT 1
//   capacity 4096
//   recorded 12345
//   counts admit=9 launch=9 complete=7 ...
//   E <kind> <t> <a> <b> [note...]
//   ...
//   END
//
// Times print as %.17g (exact double round-trip), so
// parse_flight_dump(dump(rec)) reproduces the recorder's contents bit for
// bit -- the round-trip is pinned by tests. Recording is wall-clock-free
// and deterministic; the ring participates in snapshot verification via
// ring_digest().

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace echelon::obs {

enum class FlightKind : std::uint8_t {
  kAdmit = 0,     // a = job index
  kQueue,         // a = job index, b = queue depth after
  kReject,        // a = job index
  kLaunch,        // a = job index, b = running count after
  kComplete,      // a = job index, b = completed count after
  kFault,         // a = cumulative faults fired
  kFlush,         // a = flush index, b = steps executed
  kSnapshot,      // a = steps executed
  kError,         // note = what()
};
inline constexpr int kFlightKindCount = 9;

[[nodiscard]] std::string_view flight_kind_name(FlightKind kind) noexcept;

struct FlightEvent {
  FlightKind kind = FlightKind::kError;
  SimTime t = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string note;

  [[nodiscard]] bool operator==(const FlightEvent&) const = default;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(FlightKind kind, SimTime t, std::uint64_t a = 0,
              std::uint64_t b = 0, std::string note = {});

  // Ring contents, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  // Exact cumulative count per kind (survives ring drops).
  [[nodiscard]] std::uint64_t count(FlightKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  void clear();

  // Overwrites the ring with checkpointed contents (oldest first). Used by
  // snapshot restore: the replay rebuilds every event *except* the
  // kSnapshot markers earlier saves injected, so the ring is restored
  // verbatim rather than re-derived. Throws std::invalid_argument when
  // `events` exceeds capacity or `counts` has the wrong length.
  void restore(std::uint64_t recorded,
               const std::vector<std::uint64_t>& counts,
               std::vector<FlightEvent> events);

  // FNV-1a digest of the ring contents + cumulative counters; used by the
  // snapshot verification image to pin interrupted == uninterrupted.
  [[nodiscard]] std::uint64_t ring_digest() const noexcept;

  // Self-contained post-mortem (see format above).
  void dump(std::ostream& os) const;
  [[nodiscard]] std::string dump_string() const;

 private:
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t counts_[kFlightKindCount] = {};
};

// Parsed post-mortem; ok == false sets error and leaves fields best-effort.
struct ParsedFlightDump {
  std::size_t capacity = 0;
  std::uint64_t recorded = 0;
  std::uint64_t counts[kFlightKindCount] = {};
  std::vector<FlightEvent> events;
  bool ok = false;
  std::string error;
};

[[nodiscard]] ParsedFlightDump parse_flight_dump(std::istream& is);

}  // namespace echelon::obs
