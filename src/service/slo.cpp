#include "service/slo.hpp"

#include <bit>

#include "common/hash.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"

namespace echelon::service {

namespace {

bool kind_from_name(std::string_view name, SloKind& out) {
  if (name == "jct") {
    out = SloKind::kJct;
  } else if (name == "queue_wait") {
    out = SloKind::kQueueWait;
  } else if (name == "tardiness") {
    out = SloKind::kTardiness;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string_view to_string(SloKind kind) noexcept {
  switch (kind) {
    case SloKind::kJct:
      return "jct";
    case SloKind::kQueueWait:
      return "queue_wait";
    case SloKind::kTardiness:
      return "tardiness";
  }
  return "?";
}

std::optional<std::vector<SloObjective>> parse_slo_spec(std::string_view spec,
                                                        std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  std::vector<SloObjective> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view item = spec.substr(
        pos, comma == std::string_view::npos ? comma : comma - pos);
    if (!item.empty()) {
      const std::size_t le = item.find("<=");
      if (le == std::string_view::npos) {
        return fail("missing '<=' in SLO objective '" + std::string(item) +
                    "' (expected kind<=threshold@budget)");
      }
      const std::size_t at = item.find('@', le + 2);
      if (at == std::string_view::npos) {
        return fail("missing '@budget' in SLO objective '" +
                    std::string(item) + "'");
      }
      SloObjective obj;
      if (!kind_from_name(item.substr(0, le), obj.kind)) {
        return fail("unknown SLO kind '" + std::string(item.substr(0, le)) +
                    "' (expected jct | queue_wait | tardiness)");
      }
      const auto threshold =
          parse_number<double>(item.substr(le + 2, at - le - 2));
      if (!threshold) {
        return fail("bad threshold in SLO objective '" + std::string(item) +
                    "'");
      }
      if (*threshold < 0.0) {
        // JCT, queue wait and tardiness are never negative: every
        // completion would violate the objective.
        return fail("negative threshold in SLO objective '" +
                    std::string(item) + "' (" +
                    std::string(to_string(obj.kind)) + " is never negative)");
      }
      obj.threshold = *threshold;
      const auto budget = parse_number<double>(item.substr(at + 1));
      if (!budget || *budget < 0.0 || *budget > 1.0) {
        return fail("bad budget in SLO objective '" + std::string(item) +
                    "' (expected a fraction in [0, 1])");
      }
      obj.budget = *budget;
      out.push_back(obj);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) return fail("empty SLO spec");
  return out;
}

SloTracker::SloTracker(SloConfig config) : config_(std::move(config)) {
  violations_.assign(config_.objectives.size(), 0);
}

void SloTracker::on_completion(SimTime t,
                               const double (&values)[kSloKindCount]) {
  Sample s;
  s.t = t;
  for (int i = 0; i < kSloKindCount; ++i) s.values[i] = values[i];
  window_.push_back(s);
  ++total_samples_;
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& obj = config_.objectives[i];
    if (values[static_cast<std::size_t>(obj.kind)] > obj.threshold) {
      ++violations_[i];
    }
  }
}

void SloTracker::expire(SimTime t) {
  const SimTime cutoff = t - config_.window;
  while (!window_.empty() && window_.front().t < cutoff) {
    const Sample& s = window_.front();
    for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
      const SloObjective& obj = config_.objectives[i];
      if (s.values[static_cast<std::size_t>(obj.kind)] > obj.threshold) {
        --violations_[i];
      }
    }
    window_.pop_front();
  }
}

SloGauges SloTracker::gauges(std::size_t objective) const {
  SloGauges g;
  g.violations = violations_[objective];
  g.total = window_.size();
  const double budget = config_.objectives[objective].budget;
  if (g.total == 0) {
    g.error_budget = 1.0;
    g.burn_rate = 0.0;
    return g;
  }
  const double rate =
      static_cast<double>(g.violations) / static_cast<double>(g.total);
  if (budget > 0.0) {
    g.error_budget = 1.0 - rate / budget;
    g.burn_rate = rate / budget;
  } else {
    // Zero budget: any violation is an immediate full burn.
    g.error_budget = g.violations == 0 ? 1.0 : 0.0;
    g.burn_rate = g.violations == 0 ? 0.0 : 1e9;
  }
  return g;
}

void SloTracker::bind_gauges(obs::MetricsRegistry* registry) {
  handles_.clear();
  handles_.reserve(config_.objectives.size());
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const std::string prefix = "service.slo." + std::to_string(i) + ".";
    GaugeHandles h;
    h.violations = &registry->gauge(prefix + "violations");
    h.total = &registry->gauge(prefix + "total");
    h.error_budget = &registry->gauge(prefix + "error_budget");
    h.burn_rate = &registry->gauge(prefix + "burn_rate");
    handles_.push_back(h);
  }
  bound_registry_ = registry;
}

void SloTracker::on_boundary(SimTime t, obs::MetricsRegistry* registry) {
  expire(t);
  if (registry == nullptr) return;
  if (registry != bound_registry_) bind_gauges(registry);
  for (std::size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloGauges g = gauges(i);
    const GaugeHandles& h = handles_[i];
    h.violations->set(static_cast<double>(g.violations));
    h.total->set(static_cast<double>(g.total));
    h.error_budget->set(g.error_budget);
    h.burn_rate->set(g.burn_rate);
  }
}

std::uint64_t SloTracker::digest() const noexcept {
  std::uint64_t h = fnv1a_word(kFnvOffset, total_samples_);
  h = fnv1a_word(h, window_.size());
  for (const Sample& s : window_) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(s.t));
    for (double v : s.values) {
      h = fnv1a_word(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  for (std::uint64_t v : violations_) h = fnv1a_word(h, v);
  return h;
}

}  // namespace echelon::service
