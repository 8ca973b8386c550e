#include "cluster/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

namespace echelon::cluster {

void parallel_for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // One exception slot per index: every index is attempted, and the scan
  // after the join rethrows what a serial loop would have thrown first.
  std::vector<std::exception_ptr> errors(n);
  const auto run_one = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(i);
      }
    };
    const std::size_t width = std::min<std::size_t>(threads, n);
    std::vector<std::thread> workers;
    workers.reserve(width);
    try {
      for (std::size_t w = 0; w < width; ++w) workers.emplace_back(drain);
    } catch (const std::system_error&) {
      drain();  // out of threads: the caller takes whatever is left
    }
    for (std::thread& t : workers) t.join();
  }
  for (const std::exception_ptr& ep : errors) {
    if (ep) std::rethrow_exception(ep);
  }
}

std::vector<ExperimentResult> run_sweep(const std::vector<SweepPoint>& points,
                                        const SweepOptions& options,
                                        SweepCapture* capture) {
  std::vector<ExperimentResult> results(points.size());
  if (capture == nullptr) {
    parallel_for_indexed(points.size(), options.threads, [&](std::size_t i) {
      results[i] = run_experiment(points[i].jobs, points[i].config);
    });
    return results;
  }

  // Metric capture: one registry per point, created and written only on the
  // worker thread that owns the point (thread-confined -- registries are not
  // thread-safe, and never shared here). Snapshots land in a pre-sized slot
  // vector, so the merge below sees them in point order regardless of
  // completion order.
  capture->point_metrics.assign(points.size(), obs::MetricsSnapshot{});
  parallel_for_indexed(points.size(), options.threads, [&](std::size_t i) {
    ExperimentConfig config = points[i].config;
    obs::MetricsRegistry local;
    if (config.metrics == nullptr) config.metrics = &local;
    results[i] = run_experiment(points[i].jobs, config);
    capture->point_metrics[i] = config.metrics->snapshot();
  });
  capture->merged = obs::merge_snapshots(capture->point_metrics);
  return results;
}

}  // namespace echelon::cluster
