// Metrics registry for the simulation observability layer (DESIGN.md §9).
//
// Four instrument types:
//   * Counter   -- monotonically increasing u64 (events, cache hits).
//   * Gauge     -- last-written double (makespan, wall time).
//   * Histogram -- fixed-bucket distribution (latencies, tardiness); bucket
//                  upper bounds are fixed at registration so histograms from
//                  different runs merge by adding counts.
//   * Series    -- (sim-time, value) samples (per-link utilization, active
//                  flow counts). Append-only, recorded at control passes.
//
// A MetricsRegistry owns named instruments; instrument references returned
// by counter()/gauge()/histogram()/series() stay valid for the registry's
// lifetime (node-based map). Registries are *not* thread-safe -- the
// threading model mirrors the simulator's: one registry per experiment, and
// cluster::run_sweep gives every sweep point (hence every worker thread) its
// own registry, then merges the per-point snapshots deterministically in
// point order.
//
// snapshot() produces a name-sorted, self-contained MetricsSnapshot that
// exporters (CSV, Perfetto counter tracks, summary tables, bench JSON
// context) consume without holding the registry.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace echelon::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  void set(std::uint64_t value) noexcept { value_ = value; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram. `bounds` are ascending bucket upper bounds; an
// implicit +inf bucket catches the tail, so counts().size() ==
// bounds().size() + 1. Also tracks count/sum/min/max exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  // Bucket-resolution quantile estimate: the upper bound of the bucket
  // containing the q-th sample (exact `max` for q >= 1). Good enough for
  // p50/p99 reporting; the fixed-bucket design is what makes cross-run
  // merging exact.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Default latency/duration buckets: 1-2-5 decades from 1 µs to 1000 s
// (seconds). Shared by every duration-flavoured histogram so merges line up.
[[nodiscard]] std::vector<double> default_duration_bounds();

// Time-stamped samples of a gauge-like quantity.
//
// Unbounded by default. set_point_budget(B) bounds memory for indefinitely
// long service runs by *decimation*: once B retained points accumulate,
// every other one is dropped and the keep-stride doubles, so the series
// thereafter records only every stride-th offered sample. The retained set
// is always exactly the uncapped series' samples at offer indices that are
// multiples of the current stride -- a capped and an uncapped series fed
// the same stream agree bitwise on every point the capped one kept.
class Series {
 public:
  void sample(SimTime t, double value) {
    if (total_ % stride_ == 0) {
      points_.emplace_back(t, value);
      if (budget_ != 0 && points_.size() >= budget_) decimate();
    }
    ++total_;
  }
  [[nodiscard]] const std::vector<std::pair<SimTime, double>>& points()
      const noexcept {
    return points_;
  }

  // Retention cap (0 = unbounded, the default). Budgets below 2 are clamped
  // to 2: decimation must be able to make progress. Applying a budget to an
  // already-over-budget series decimates immediately.
  void set_point_budget(std::size_t budget) {
    budget_ = budget == 0 ? 0 : std::max<std::size_t>(budget, 2);
    while (budget_ != 0 && points_.size() >= budget_) decimate();
  }
  [[nodiscard]] std::size_t point_budget() const noexcept { return budget_; }
  // Current keep-stride in offered samples (1 until the budget first trips).
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }
  // Samples offered over the series' lifetime (>= points().size()).
  [[nodiscard]] std::uint64_t total_samples() const noexcept { return total_; }

 private:
  void decimate() {
    // Keep retained indices 0, 2, 4, ... -- offer indices that are multiples
    // of the doubled stride.
    std::size_t out = 0;
    for (std::size_t i = 0; i < points_.size(); i += 2) {
      points_[out++] = points_[i];
    }
    points_.resize(out);
    stride_ *= 2;
  }

  std::vector<std::pair<SimTime, double>> points_;
  std::size_t budget_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t total_ = 0;
};

// Self-contained, name-sorted copy of a registry's state.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (tail = +inf)
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    [[nodiscard]] double mean() const noexcept {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    [[nodiscard]] double quantile(double q) const noexcept;
  };
  struct Ser {
    std::string name;
    std::vector<std::pair<SimTime, double>> points;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Hist> histograms;
  std::vector<Ser> series;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }
  // Lookup helpers (nullptr / fallback when absent). Linear scan over the
  // sorted vectors -- snapshots are small and read on export paths only.
  [[nodiscard]] const std::uint64_t* find_counter(std::string_view name) const;
  [[nodiscard]] const double* find_gauge(std::string_view name) const;
  [[nodiscard]] const Hist* find_histogram(std::string_view name) const;
  [[nodiscard]] const Ser* find_series(std::string_view name) const;
};

class MetricsRegistry {
 public:
  // Returns the named instrument, creating it on first use. A histogram's
  // bucket bounds are fixed by its first registration; `bounds` empty means
  // default_duration_bounds().
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});
  Series& series(std::string_view name);

  // Retention cap applied to every existing and future series in this
  // registry (see Series::set_point_budget; 0 = unbounded).
  void set_series_budget(std::size_t budget);
  [[nodiscard]] std::size_t series_budget() const noexcept {
    return series_budget_;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  // snapshot() with each series cut to its latest sample: all the
  // Prometheus exposition reads, at a cost that does not grow with the
  // series' history.
  [[nodiscard]] MetricsSnapshot latest() const;

 private:
  [[nodiscard]] MetricsSnapshot copy(bool latest_only) const;

  // std::map: deterministic (name-sorted) iteration and stable node
  // addresses, so instrument references never move.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Series, std::less<>> series_;
  std::size_t series_budget_ = 0;
};

// Deterministic merge of per-point snapshots (point order): counters sum;
// gauges average (arithmetic mean over the snapshots defining them);
// histograms with identical bounds add counts and merge count/sum/min/max.
// A histogram name appearing with *different* bucket layouts is a
// registration bug; the merge throws std::invalid_argument naming the
// metric rather than silently misfolding counts.
// Series are point-local and intentionally dropped -- export them per point.
[[nodiscard]] MetricsSnapshot merge_snapshots(
    std::span<const MetricsSnapshot> snapshots);

}  // namespace echelon::obs
