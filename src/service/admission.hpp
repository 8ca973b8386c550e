// Pluggable admission control for the online service loop (DESIGN.md §13).
//
// The decision is a pure function of three observable numbers -- running
// jobs, queued jobs, and the registry's accumulated total tardiness -- so
// the same stream of arrivals always produces the same stream of decisions.
// That determinism is load-bearing: snapshot restore *replays* the arrival
// journal through this function and cross-checks every recomputed outcome
// against the journaled one (src/service/snapshot.cpp). Total tardiness is a
// scan over every EchelonFlow, so decide() takes it as a callable and reads
// it only where a policy needs it.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace echelon::service {

enum class AdmissionPolicy : std::uint32_t {
  kAcceptAll = 0,     // every arrival launches immediately
  kQueueWithCap = 1,  // bounded running set; overflow queues up to a cap
  kTardinessAware = 2,  // queue-with-cap that sheds load once the cluster
                        // is already missing deadlines
};

[[nodiscard]] constexpr const char* to_string(AdmissionPolicy p) noexcept {
  switch (p) {
    case AdmissionPolicy::kAcceptAll: return "accept-all";
    case AdmissionPolicy::kQueueWithCap: return "queue-with-cap";
    case AdmissionPolicy::kTardinessAware: return "tardiness-aware";
  }
  return "?";
}

[[nodiscard]] inline AdmissionPolicy admission_policy_from_string(
    std::string_view s) {
  if (s == "accept-all") return AdmissionPolicy::kAcceptAll;
  if (s == "queue-with-cap") return AdmissionPolicy::kQueueWithCap;
  if (s == "tardiness-aware") return AdmissionPolicy::kTardinessAware;
  throw std::invalid_argument("unknown admission policy: " + std::string(s));
}

// Journaled per-arrival decision. The numeric values are part of the
// snapshot wire format (SNAPSHOT §kArrivals) -- do not renumber.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted = 0,
  kQueued = 1,
  kRejected = 2,
};

[[nodiscard]] constexpr const char* to_string(AdmissionOutcome o) noexcept {
  switch (o) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kQueued: return "queued";
    case AdmissionOutcome::kRejected: return "rejected";
  }
  return "?";
}

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kAcceptAll;
  // Max concurrently-running jobs; 0 = unlimited. Ignored by kAcceptAll.
  std::uint64_t max_running = 0;
  // Max jobs waiting for a running slot; arrivals past it are rejected.
  std::uint64_t queue_cap = 16;
  // kTardinessAware only: once the registry's total tardiness exceeds this,
  // over-capacity arrivals are rejected outright instead of queued --
  // queueing more work a cluster that is already late only deepens the
  // deficit (the paper's Eq. 3 objective is additive in per-group lateness).
  Duration tardiness_limit = 1.0;
};

// `total_tardiness` is a callable returning the registry's total tardiness;
// it is called only by kTardinessAware, and only for an arrival over the
// running cap.
template <typename TotalTardiness>
[[nodiscard]] AdmissionOutcome decide(const AdmissionConfig& cfg,
                                      std::uint64_t running,
                                      std::uint64_t queued,
                                      TotalTardiness&& total_tardiness) {
  switch (cfg.policy) {
    case AdmissionPolicy::kAcceptAll:
      return AdmissionOutcome::kAdmitted;
    case AdmissionPolicy::kQueueWithCap:
      if (cfg.max_running == 0 || running < cfg.max_running) {
        return AdmissionOutcome::kAdmitted;
      }
      return queued < cfg.queue_cap ? AdmissionOutcome::kQueued
                                    : AdmissionOutcome::kRejected;
    case AdmissionPolicy::kTardinessAware:
      if (cfg.max_running == 0 || running < cfg.max_running) {
        return AdmissionOutcome::kAdmitted;
      }
      if (total_tardiness() > cfg.tardiness_limit) {
        return AdmissionOutcome::kRejected;
      }
      return queued < cfg.queue_cap ? AdmissionOutcome::kQueued
                                    : AdmissionOutcome::kRejected;
  }
  return AdmissionOutcome::kRejected;
}

}  // namespace echelon::service
