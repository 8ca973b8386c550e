#include "faultsim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/rng.hpp"

namespace echelon::faultsim {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kBrownout: return "brownout";
    case FaultKind::kBrownoutEnd: return "brownout-end";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kStragglerEnd: return "straggler-end";
    case FaultKind::kNodeDown: return "node-down";
    case FaultKind::kNodeUp: return "node-up";
    case FaultKind::kJobAbort: return "job-abort";
    case FaultKind::kJobRestart: return "job-restart";
  }
  return "?";
}

std::optional<FaultKind> kind_from_string(std::string_view name) noexcept {
  for (const FaultKind k :
       {FaultKind::kLinkDown, FaultKind::kLinkUp, FaultKind::kBrownout,
        FaultKind::kBrownoutEnd, FaultKind::kStraggler,
        FaultKind::kStragglerEnd, FaultKind::kNodeDown, FaultKind::kNodeUp,
        FaultKind::kJobAbort, FaultKind::kJobRestart}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

FaultPlan from_chaos(const ChaosProfile& profile,
                     const topology::Topology& topo, std::size_t worker_count,
                     std::size_t job_count) {
  const SimTime horizon = profile.horizon;
  if (!(std::isfinite(horizon) && horizon > 0.0)) {
    std::ostringstream os;
    os << "chaos: horizon must be finite and > 0, got " << horizon;
    throw std::invalid_argument(os.str());
  }
  FaultPlan plan;
  Rng rng(profile.seed);
  const auto hosts = topo.hosts();

  // Window helper: start in [0, 0.8 * horizon), length in the outage range.
  const auto window = [&rng, horizon](const ChaosProfile& p) {
    const SimTime start = rng.uniform(0.0, 0.8 * horizon);
    const Duration len =
        horizon * rng.uniform(p.min_outage, p.max_outage);
    return std::pair<SimTime, SimTime>{start, start + len};
  };

  // Categories are generated in a fixed order so the seed uniquely
  // determines the plan regardless of which counts are zero.
  for (int i = 0; i < profile.link_faults && topo.link_count() > 0; ++i) {
    const auto [t0, t1] = window(profile);
    const std::uint64_t link = rng.uniform_int(topo.link_count());
    plan.events.push_back({t0, FaultKind::kLinkDown, link, 1.0});
    plan.events.push_back({t1, FaultKind::kLinkUp, link, 1.0});
  }
  for (int i = 0; i < profile.brownouts && topo.link_count() > 0; ++i) {
    const auto [t0, t1] = window(profile);
    const std::uint64_t link = rng.uniform_int(topo.link_count());
    const double factor = rng.uniform(profile.min_factor, profile.max_factor);
    plan.events.push_back({t0, FaultKind::kBrownout, link, factor});
    plan.events.push_back({t1, FaultKind::kBrownoutEnd, link, 1.0});
  }
  for (int i = 0; i < profile.stragglers && worker_count > 0; ++i) {
    const auto [t0, t1] = window(profile);
    const std::uint64_t worker = rng.uniform_int(worker_count);
    const double scale =
        rng.uniform(profile.min_slowdown, profile.max_slowdown);
    plan.events.push_back({t0, FaultKind::kStraggler, worker, scale});
    plan.events.push_back({t1, FaultKind::kStragglerEnd, worker, 1.0});
  }
  for (int i = 0; i < profile.node_faults && !hosts.empty(); ++i) {
    const auto [t0, t1] = window(profile);
    const std::uint64_t node =
        hosts[rng.uniform_int(hosts.size())].value();
    plan.events.push_back({t0, FaultKind::kNodeDown, node, 1.0});
    plan.events.push_back({t1, FaultKind::kNodeUp, node, 1.0});
  }
  for (int i = 0; i < profile.job_aborts && job_count > 0; ++i) {
    const auto [t0, t1] = window(profile);
    const std::uint64_t job = rng.uniform_int(job_count);
    plan.events.push_back({t0, FaultKind::kJobAbort, job, 1.0});
    plan.events.push_back({t1, FaultKind::kJobRestart, job, 1.0});
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::string serialize(const FaultPlan& plan) {
  std::ostringstream out;
  out.precision(17);  // doubles round-trip exactly
  out << "retries " << plan.max_retries << "\n";
  out << "backoff " << plan.retry_backoff << "\n";
  for (const FaultEvent& e : plan.events) {
    out << e.at << ' ' << to_string(e.kind) << ' ';
    if (e.target == kAllLinks) {
      out << '*';
    } else {
      out << e.target;
    }
    if (e.kind == FaultKind::kBrownout || e.kind == FaultKind::kStraggler) {
      out << ' ' << e.factor;
    }
    out << '\n';
  }
  return out.str();
}

namespace {

[[noreturn]] void fail(int lineno, const std::string& why) {
  throw std::invalid_argument("fault plan line " + std::to_string(lineno) +
                              ": " + why);
}

}  // namespace

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    // Every field is one whitespace-separated token that must parse in full
    // (common/parse.hpp); a missing field reads as the empty token.
    std::istringstream tok(line);
    const auto next = [&tok] {
      std::string t;
      tok >> t;
      return t;
    };
    const std::string first = next();
    if (first.empty()) continue;  // blank / comment-only line
    if (first == "retries") {
      const auto v = parse_number<int>(next());
      if (!v || *v < 0) {
        fail(lineno, "expected non-negative integer after 'retries'");
      }
      plan.max_retries = *v;
    } else if (first == "backoff") {
      const auto v = parse_number<double>(next());
      if (!v || *v <= 0.0) {
        fail(lineno, "expected positive duration after 'backoff'");
      }
      plan.retry_backoff = *v;
    } else {
      FaultEvent ev;
      const auto at = parse_number<double>(first);
      if (!at) {
        fail(lineno, "expected event time, 'retries' or 'backoff', got '" +
                         first + "'");
      }
      if (*at < 0.0) fail(lineno, "negative event time");
      ev.at = *at;
      const std::string kind_name = next();
      if (kind_name.empty()) fail(lineno, "missing fault kind");
      const auto kind = kind_from_string(kind_name);
      if (!kind) fail(lineno, "unknown fault kind '" + kind_name + "'");
      ev.kind = *kind;
      const std::string target = next();
      if (target.empty()) fail(lineno, "missing fault target");
      if (target == "*") {
        if (ev.kind != FaultKind::kBrownout &&
            ev.kind != FaultKind::kBrownoutEnd) {
          fail(lineno, "'*' target is only valid for brownout events");
        }
        ev.target = kAllLinks;
      } else {
        const auto id = parse_number<std::uint64_t>(target);
        if (!id) fail(lineno, "bad fault target '" + target + "'");
        ev.target = *id;
      }
      if (ev.kind == FaultKind::kBrownout || ev.kind == FaultKind::kStraggler) {
        const auto factor = parse_number<double>(next());
        if (!factor || *factor <= 0.0) fail(lineno, "expected positive factor");
        ev.factor = *factor;
      }
      plan.events.push_back(ev);
    }
    if (const std::string extra = next(); !extra.empty()) {
      fail(lineno, "unexpected trailing token '" + extra + "'");
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_plan(in);
}

}  // namespace echelon::faultsim
