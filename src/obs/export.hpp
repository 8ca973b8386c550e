// Tabular exporters for MetricsSnapshot (DESIGN.md §9): long-format CSV via
// common/csv.hpp and a human-readable summary table via common/table.hpp.
//
// CSV layout (one row per scalar, plot-friendly):
//   metric,kind,key,value
//   sim.flows_finished,counter,,1234
//   alloc.flows_per_class,gauge,,1.88
//   flow.completion_s,hist,p99,0.0125
//   link.3.util,series,12.5,0.74        (key = sim time for series samples)
//
// The summary table shows every counter and gauge plus count/mean/p50/p99/max
// for each histogram -- the at-a-glance view the CLI prints after a traced
// run.

#pragma once

#include <iosfwd>
#include <string>

#include "common/csv.hpp"
#include "obs/metrics.hpp"

namespace echelon::obs {

// Flattens a snapshot into the long CSV format described above.
[[nodiscard]] Csv metrics_to_csv(const MetricsSnapshot& snapshot);

// Convenience: write the long-format CSV to `path`. Returns false when the
// file cannot be opened.
[[nodiscard]] bool write_metrics_csv(const std::string& path,
                                     const MetricsSnapshot& snapshot);

// Renders the human-readable summary (counters, gauges, histogram
// statistics) to `os`. Series are summarized by sample count only.
void print_metrics_summary(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace echelon::obs
