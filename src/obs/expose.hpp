// Prometheus-style text exposition for MetricsSnapshot (DESIGN.md §15).
//
// to_prom_text renders a snapshot into the Prometheus text format:
//   # TYPE <family> counter|gauge|histogram
//   <family>{<labels>} <value>
// with exact cumulative bucket counts for histograms (`_bucket{le="..."}`
// ascending, a `+Inf` tail, then `_sum` and `_count`).
//
// Output is byte-stable: families are emitted in sorted name order and
// samples within a family in sorted label order, floats always print as
// %.17g, and nothing wall-clock-dependent (timestamps, hostnames) ever
// appears. Two snapshots with equal contents render to equal bytes, which
// is what lets the telemetry tests compare interrupted vs uninterrupted
// service runs with a plain string equality.
//
// Dotted numeric name segments become labels keyed by the preceding
// segment: "link.3.util" renders as `link_util{link="3"}` and
// "job.12.tardiness" as `job_tardiness{job="12"}`. Counter families get
// the conventional `_total` suffix. Label sets are interned (stable
// first-seen ids) so repeated flushes of the same registry shape do no
// per-flush label-string rebuilding.
//
// A series renders as a gauge of its latest sample, exactly as a gauge set
// to that value would. The service plane publishes its flush-time values as
// gauges, so the registry it exposes keeps no history to copy.
//
// PromWriter owns a file target: each write() renders the snapshot,
// optionally rotates previous expositions (path.1, path.2, ...) and
// replaces `path` via a tmp-file + rename so readers never see a torn
// exposition.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace echelon::obs {

// Stable first-seen interning of label-set strings. Ids are dense and
// assigned in intern() call order; the same label set always maps to the
// same id for the interner's lifetime.
class LabelInterner {
 public:
  std::uint32_t intern(std::string_view labels);
  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }
  [[nodiscard]] const std::string& label_at(std::uint32_t id) const {
    return *by_id_.at(id);
  }

 private:
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<const std::string*> by_id_;  // map nodes are stable
};

// Split a dotted metric name into a sanitized family name and a prom label
// string (`key="value",...`; empty when the name has no numeric segments).
// Exposed for tests.
void prom_split_name(std::string_view dotted, std::string& family,
                     std::string& labels);

// Render the snapshot to Prometheus text exposition (empty snapshot ->
// empty string). `interner`, when given, interns every distinct label set
// encountered (stable across calls). Throws std::invalid_argument if two
// metrics of different instrument kinds collapse onto one family name.
[[nodiscard]] std::string to_prom_text(const MetricsSnapshot& snap,
                                       LabelInterner* interner = nullptr);

// File target with optional rotation. rotate_keep == 0 overwrites in
// place; rotate_keep == N first shifts path -> path.1 -> ... -> path.N
// (dropping path.N) so the last N expositions survive.
class PromWriter {
 public:
  explicit PromWriter(std::string path, int rotate_keep = 0);

  // Renders and atomically replaces the target file. Returns the rendered
  // byte count. Throws std::runtime_error on I/O failure.
  std::size_t write(const MetricsSnapshot& snap);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] const LabelInterner& interner() const noexcept {
    return interner_;
  }

 private:
  std::string path_;
  int rotate_keep_;
  LabelInterner interner_;
  std::uint64_t writes_ = 0;
};

}  // namespace echelon::obs
