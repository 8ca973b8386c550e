#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace echelon::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bucket bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);  // +1: implicit +inf tail bucket
}

void Histogram::observe(double x) noexcept {
  // First bucket whose upper bound admits x; the tail bucket catches
  // everything beyond the last bound (and NaN, defensively).
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

namespace {

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts,
                       std::uint64_t count, double min_v, double max_v,
                       double q) noexcept {
  if (count == 0) return 0.0;
  if (q >= 1.0) return max_v;
  if (q <= 0.0) return min_v;
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += static_cast<double>(counts[i]);
    if (cum >= target) {
      // Upper bound of the containing bucket; the +inf tail reports the
      // exact observed max instead of infinity.
      return i < bounds.size() ? bounds[i] : max_v;
    }
  }
  return max_v;
}

}  // namespace

double Histogram::quantile(double q) const noexcept {
  return bucket_quantile(bounds_, counts_, count_, min_, max_, q);
}

double MetricsSnapshot::Hist::quantile(double q) const noexcept {
  return bucket_quantile(bounds, counts, count, min, max, q);
}

std::vector<double> default_duration_bounds() {
  std::vector<double> b;
  b.reserve(28);
  for (double decade = 1e-6; decade < 5e2; decade *= 10.0) {
    b.push_back(decade);
    b.push_back(2.0 * decade);
    b.push_back(5.0 * decade);
  }
  b.push_back(1e3);
  return b;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = default_duration_bounds();
  return histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
      .first->second;
}

Series& MetricsRegistry::series(std::string_view name) {
  auto [it, inserted] = series_.try_emplace(std::string(name));
  if (inserted && series_budget_ != 0) {
    it->second.set_point_budget(series_budget_);
  }
  return it->second;
}

void MetricsRegistry::set_series_budget(std::size_t budget) {
  series_budget_ = budget;
  for (auto& [name, ser] : series_) ser.set_point_budget(budget);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c.value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g.value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Hist out;
    out.name = name;
    out.bounds = h.bounds();
    out.counts = h.counts();
    out.count = h.count();
    out.sum = h.sum();
    out.min = h.count() == 0 ? 0.0 : h.min();
    out.max = h.count() == 0 ? 0.0 : h.max();
    s.histograms.push_back(std::move(out));
  }
  s.series.reserve(series_.size());
  for (const auto& [name, ser] : series_) {
    s.series.push_back({name, ser.points()});
  }
  return s;
}

const std::uint64_t* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* MetricsSnapshot::find_gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const MetricsSnapshot::Hist* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const Hist& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const MetricsSnapshot::Ser* MetricsSnapshot::find_series(
    std::string_view name) const {
  for (const Ser& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsSnapshot merge_snapshots(std::span<const MetricsSnapshot> snapshots) {
  // Accumulate through ordered maps so the merged snapshot is name-sorted
  // regardless of which points define which metrics.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<double, std::uint64_t>> gauges;  // sum, n
  std::map<std::string, MetricsSnapshot::Hist> hists;

  for (const MetricsSnapshot& s : snapshots) {
    for (const auto& [name, v] : s.counters) counters[name] += v;
    for (const auto& [name, v] : s.gauges) {
      auto& [sum, n] = gauges[name];
      sum += v;
      ++n;
    }
    for (const MetricsSnapshot::Hist& h : s.histograms) {
      const auto it = hists.find(h.name);
      if (it == hists.end()) {
        hists.emplace(h.name, h);
        continue;
      }
      MetricsSnapshot::Hist& acc = it->second;
      if (acc.bounds != h.bounds) {
        throw std::invalid_argument(
            "merge_snapshots: histogram '" + h.name +
            "' has mismatched bucket layouts across snapshots (" +
            std::to_string(acc.bounds.size()) + " vs " +
            std::to_string(h.bounds.size()) +
            " bounds) -- same-name histograms must be registered with "
            "identical bounds");
      }
      for (std::size_t i = 0; i < acc.counts.size(); ++i) {
        acc.counts[i] += h.counts[i];
      }
      if (acc.count == 0) {
        acc.min = h.min;
        acc.max = h.max;
      } else if (h.count != 0) {
        acc.min = std::min(acc.min, h.min);
        acc.max = std::max(acc.max, h.max);
      }
      acc.count += h.count;
      acc.sum += h.sum;
    }
  }

  MetricsSnapshot out;
  out.counters.assign(counters.begin(), counters.end());
  out.gauges.reserve(gauges.size());
  for (const auto& [name, acc] : gauges) {
    out.gauges.emplace_back(name,
                            acc.first / static_cast<double>(acc.second));
  }
  out.histograms.reserve(hists.size());
  for (auto& [name, h] : hists) out.histograms.push_back(std::move(h));
  return out;
}

}  // namespace echelon::obs
