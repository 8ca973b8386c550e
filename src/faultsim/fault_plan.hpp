// Deterministic fault-injection plans (DESIGN.md §8).
//
// A FaultPlan is a timed script of infrastructure faults -- link outages,
// partial-capacity brownouts, compute stragglers, whole-node failures and
// job abort/restart pairs -- replayed against a running Simulator by the
// FaultInjector. Plans are plain data: they can be written by hand, parsed
// from a text file (--fault-plan), or generated from a seeded ChaosProfile,
// and the same plan always produces the same simulation, byte for byte.
//
// The paper motivates EchelonFlow with training jobs sharing "a highly
// dynamic network" (§1) and recalibration after members fall behind
// (Fig. 6); this module is how we make that dynamism a first-class,
// reproducible test input rather than two hand-scripted scenarios.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "topology/graph.hpp"

namespace echelon::faultsim {

enum class FaultKind {
  kLinkDown,      // target = link id
  kLinkUp,        // target = link id
  kBrownout,      // target = link id or kAllLinks; factor = capacity multiplier
  kBrownoutEnd,   // target = link id or kAllLinks; restores exact nominal
  kStraggler,     // target = worker id; factor = compute-duration multiplier
  kStragglerEnd,  // target = worker id
  kNodeDown,      // target = node id; all incident links go down
  kNodeUp,        // target = node id; links taken down by kNodeDown return
  kJobAbort,      // target = job id; active flows park, new flows park at birth
  kJobRestart,    // target = job id; parked flows resume
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;
[[nodiscard]] std::optional<FaultKind> kind_from_string(
    std::string_view name) noexcept;

// Sentinel target for kBrownout/kBrownoutEnd meaning "every link" -- the
// uniform-degradation case used by the monotonicity property tests.
inline constexpr std::uint64_t kAllLinks = ~0ULL;

struct FaultEvent {
  SimTime at = 0.0;
  FaultKind kind = FaultKind::kLinkDown;
  std::uint64_t target = 0;  // link / node / worker / job id, per kind
  double factor = 1.0;       // brownout capacity multiplier / straggler scale
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  // Recovery policy for flows parked by an outage: a parked flow retries
  // routing every `retry_backoff` seconds; after `max_retries` *failed*
  // attempts it is abandoned (completes unsuccessfully, releasing dependent
  // work, with the undelivered bytes recorded as loss).
  int max_retries = 3;
  Duration retry_backoff = 50e-3;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
};

// Random-plan generator knobs. A profile plus the deployment shape uniquely
// determines a plan: same seed, same plan, same simulation.
struct ChaosProfile {
  std::uint64_t seed = 1;
  SimTime horizon = 1.0;  // faults start in [0, 0.8 * horizon)

  int link_faults = 0;  // link down/up windows
  int brownouts = 0;    // single-link capacity-degradation windows
  int stragglers = 0;   // compute-slowdown windows
  int node_faults = 0;  // whole-node outage windows
  int job_aborts = 0;   // abort + late-restart pairs

  double min_outage = 0.05;    // window length, fraction of horizon
  double max_outage = 0.25;
  double min_factor = 0.2;     // brownout capacity multiplier range
  double max_factor = 0.8;
  double min_slowdown = 1.5;   // straggler duration multiplier range
  double max_slowdown = 4.0;
};

// Generates a scripted plan from a profile. Targets are drawn from the
// topology's links and hosts, `worker_count` workers and `job_count` jobs
// (categories whose pool is empty are skipped). Every fault is a
// well-formed window: the recovery event is always emitted, so plans never
// leave the fabric degraded forever. Events are sorted by time (stable).
// Throws std::invalid_argument when the horizon is <= 0 or not finite.
[[nodiscard]] FaultPlan from_chaos(const ChaosProfile& profile,
                                   const topology::Topology& topo,
                                   std::size_t worker_count,
                                   std::size_t job_count);

// Text round-trip, one event per line:
//   retries <n>
//   backoff <seconds>
//   <time> <kind> <target|*> [factor]
// '#' starts a comment. parse throws std::invalid_argument, naming the line,
// on any malformed line: a number with trailing characters, a negative
// time or target, a non-finite time or factor, or a token after the last
// field. Whether targets exist is checked against a topology by
// FaultInjector::arm().
[[nodiscard]] std::string serialize(const FaultPlan& plan);
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

}  // namespace echelon::faultsim
