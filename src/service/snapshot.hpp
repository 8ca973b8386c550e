// Versioned binary snapshot/restore for the online service (DESIGN.md §13).
//
// The event queue and workflow engines hold arbitrary std::function
// closures, so a direct state-image resume is impossible. The snapshot is
// instead a *replay checkpoint* (event-sourcing): it persists the service
// configuration, the arrival *source* (the generator's kind and construction
// arguments -- both persistable generators are deterministic from those),
// one admission-outcome byte per consumed arrival, the step counter, and a
// bitwise verification image of the simulator. Restore rebuilds the stack
// from the configuration and the generator at stream start, replays the
// recorded number of steps through the identical step loop -- which pulls
// the same arrivals again, cross-checking every recomputed admission
// decision against the recorded one -- then compares the rebuilt simulator
// against the verification image field-for-field; any drift fails loudly
// with the offending field named.
// Because the service loop is pull-driven over a deterministic boundary
// sequence, save -> load -> continue is bit-identical to an uninterrupted
// run (tests/test_service.cpp proves this at every boundary).
//
// Wire format (all integers little-endian, doubles as IEEE-754 bit images):
//
//   magic   8 bytes  "ECHSNAP1"
//   version u32      kSnapshotVersion (readers reject anything else)
//   sections, each {tag u32, length u64, payload}:
//     1 kConfig     ServiceConfig incl. the fault plan's text serialization
//                   and the TelemetryConfig (v2: metrics_every, series
//                   budget, flight-recorder capacity, SLO objectives)
//                   and (v14) record_flow_finish
//     2 kArrivals   journal: count u64, then one outcome u8 per arrival
//     3 kGenerator  generator kind u8 + construction arguments: none; the
//                   TraceConfig and burst_every (Poisson); or the path and
//                   the FNV-1a digest of the file's bytes (trace file --
//                   restore fails naming the path if the file changed)
//     4 kService    step counter
//     5 kVerify     named scalar image + per-flow records of resident flows
//                   + one digest per released flow record chunk (see .cpp)
//     6 kTelemetry  (v2) named scalar image over the telemetry state:
//                   flush counters, SLO window digest, flight-ring digest,
//                   Prometheus exposition digest. Telemetry *state* is
//                   config-driven, so the replay rebuilds it; this
//                   section verifies the rebuild bit-for-bit.
//   end tag u32      0xFFFFFFFF
//   checksum u64     FNV-1a over every preceding byte
//
// Every byte flip is detected: mutations in the header fail the magic or
// version check, anything else fails the checksum *before* any payload is
// parsed, and a checksum-valid but semantically-wrong image (version bump
// without converter, code drift) fails replay or verification. A snapshot
// never loads garbage (tests/test_service.cpp fuzzes this with seeded
// byte flips over every offset class).

#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace echelon::service {

inline constexpr char kSnapshotMagic[8] = {'E', 'C', 'H', 'S', 'N', 'A', 'P',
                                           '1'};
// v2: TelemetryConfig in kConfig + the kTelemetry verification section.
// v3: kConfig drops the scheduler-mode word; kVerify drops sched.groups_*.
// v4: kVerify's routes.hits/computations/unreachable count per-destination
//     hop-distance reuse instead of (src, dst, seed) cache verdicts.
// v5: kConfig drops the loop/alloc/fill mode words; kVerify drops
//     alloc.components_reused.
// v6: kVerify keeps per-flow records only for resident flows; each released
//     flow record chunk contributes one flow_chunk[c].digest instead.
// v7: kVerify adds alloc.explicit_passes (allocator passes that returned the
//     scheduler's caps without a fill).
// v8: kConfig drops the threads word (runs are single-threaded).
// v9: kConfig drops the coflow work-conserving and priority-queue words
//     (ServiceConfig no longer has either knob).
// v10: kArrivals keeps one outcome byte per arrival (no JobSpec); kGenerator
//      records the source (construction arguments, a trace file's digest)
//      instead of its progress and pending arrival; kService keeps only the
//      step counter; kVerify drops sched.scoped_passes and sched.pass_skips.
// v11: kConfig's scheduler word stores kAalo as 5 (was 6): the coordinator
//      scheduler kind is gone.
// v12: step boundaries are result-inert (a tick forces no scheduler pass and
//      a run deadline stamps no bytes), so a v11 step count replays a
//      different history; kConfig drops control_period (ticks are every
//      kTickPeriod) and kVerify drops service.last_launch_seq.
// v13: record chunks are sized in bytes (256 flows), so kVerify has one
//      flow_chunk[c].digest per released 256-flow chunk; kVerify adds
//      registry.released (the registry's release cursor).
// v14: kConfig ends with record_flow_finish, so a restored loop records
//      flow finish times only if the saved one did.
inline constexpr std::uint32_t kSnapshotVersion = 14;

// Thrown on any malformed, truncated, corrupt, or divergent snapshot. The
// message always names what failed and where.
struct SnapshotError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Serializes the loop's full state. Call only at a step boundary (between
// ServiceLoop::step() calls); mid-event state is not capturable. Throws
// SnapshotError, naming its kind(), for a generator restore cannot rebuild
// (anything but PoissonArrivalGenerator, TraceFileArrivalReader or none).
[[nodiscard]] std::string save_snapshot(const ServiceLoop& loop);
void save_snapshot_file(const ServiceLoop& loop, const std::string& path);

// Observability to attach to the restored loop *after* replay (replay runs
// dark so a restored run's trace stream contains only post-snapshot events;
// prefix events live in the original run's sink).
struct RestoreOptions {
  obs::TraceSink* trace_sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kOff;
  obs::MetricsRegistry* metrics = nullptr;
  // Telemetry output targets to reattach (telemetry *state* -- SLO window,
  // flight ring, flush counters -- is rebuilt by replay and verified
  // against the kTelemetry section; outputs are per-process).
  TelemetryOutputs telemetry;
};

// Rebuilds a ServiceLoop from snapshot bytes. Throws SnapshotError on any
// validation failure; never returns a partially-restored loop.
[[nodiscard]] std::unique_ptr<ServiceLoop> restore_snapshot(
    const std::string& bytes, const RestoreOptions& options = {});
[[nodiscard]] std::unique_ptr<ServiceLoop> restore_snapshot_file(
    const std::string& path, const RestoreOptions& options = {});

}  // namespace echelon::service
