// Soak test (ctest label `soak`, Release builds only; DESIGN.md §13
// "Retained state"): a long online run keeps memory and per-job cost
// bounded by live jobs, not by history.
//
// One ServiceLoop serves 20,000 Poisson jobs (rate 8/s, 2 iterations each)
// on a 64-host 2:1 leaf-spine with per-flow finish recording off -- the
// CLI's `serve` configuration. Every 4,000 completed jobs it samples the
// process's current RSS (/proc/self/statm) and CPU time. Between samples,
// RSS may grow by at most 3 KB per completed job, and the last window's CPU
// time per job may be at most 1.5x the first window's.
//
// The restored leg: the loop is saved once 10,000 jobs have completed (the
// snapshot bytes are held through the rest of the run). After the run, the
// loop is freed and the snapshot restored -- the CLI's `serve
// --snapshot-in` -- and continued to the end. The restored run is sampled
// at the restore and at every multiple of 4,000 completed jobs, under the
// same 3 KB per job bound, and its total tardiness must equal the
// uninterrupted run's to the bit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/trace.hpp"
#include "common/units.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"

namespace echelon {
namespace {

constexpr int kJobs = 20000;
constexpr std::uint64_t kWindowJobs = 4000;
constexpr double kMaxGrowthKbPerJob = 3.0;
constexpr double kMaxCpuPerJobRatio = 1.5;

// Resident set size of this process now, in KB.
double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct Sample {
  std::uint64_t completed = 0;
  double rss_kb = 0.0;
  double cpu_s = 0.0;
};

Sample sample(const service::ServiceLoop& loop) {
  return {loop.completed(), current_rss_kb(), cpu_seconds()};
}

// Steps `loop` to the end, sampling whenever the completed count reaches a
// multiple of kWindowJobs; `at_boundary` runs after every step.
template <typename F>
void run_sampled(service::ServiceLoop& loop, std::vector<Sample>& samples,
                 F&& at_boundary) {
  std::uint64_t next = (loop.completed() / kWindowJobs + 1) * kWindowJobs;
  while (loop.step()) {
    at_boundary();
    if (loop.completed() < next) continue;
    samples.push_back(sample(loop));
    next += kWindowJobs;
  }
  loop.drain();
  ASSERT_EQ(loop.completed(), static_cast<std::uint64_t>(kJobs));
}

// Checks every window's RSS growth against the bound; returns each
// window's CPU milliseconds per job.
std::vector<double> check_windows(const std::vector<Sample>& samples,
                                  const char* leg) {
  std::vector<double> cpu_ms_per_job;
  for (std::size_t w = 1; w < samples.size(); ++w) {
    const Sample& a = samples[w - 1];
    const Sample& b = samples[w];
    const auto jobs = static_cast<double>(b.completed - a.completed);
    const double growth = (b.rss_kb - a.rss_kb) / jobs;
    cpu_ms_per_job.push_back((b.cpu_s - a.cpu_s) * 1e3 / jobs);
    std::cout << leg << " jobs " << a.completed << ".." << b.completed
              << ": RSS " << a.rss_kb / 1024.0 << " -> " << b.rss_kb / 1024.0
              << " MB (" << growth << " KB/job), CPU "
              << cpu_ms_per_job.back() << " ms/job\n";
    EXPECT_LE(growth, kMaxGrowthKbPerJob)
        << leg << ": RSS grew " << growth << " KB per job over jobs "
        << a.completed << ".." << b.completed;
  }
  return cpu_ms_per_job;
}

TEST(Soak, RssAndCpuPerJobStayFlat) {
  service::ServiceConfig cfg;
  cfg.fabric = cluster::FabricKind::kLeafSpine;
  cfg.hosts = 64;
  cfg.port_capacity = gbps(25);
  cfg.oversubscription = 2.0;
  cfg.record_flow_finish = false;
  auto loop = std::make_unique<service::ServiceLoop>(cfg);
  cluster::TraceConfig trace;
  trace.num_jobs = kJobs;
  trace.arrival_rate = 8.0;
  trace.seed = 42;
  trace.iterations = 2;
  loop->set_generator(
      std::make_unique<service::PoissonArrivalGenerator>(trace, 0));

  std::vector<Sample> samples;
  std::string snapshot;
  run_sampled(*loop, samples, [&] {
    if (snapshot.empty() && loop->completed() >= kJobs / 2) {
      snapshot = service::save_snapshot(*loop);
    }
  });
  ASSERT_EQ(samples.size(), kJobs / kWindowJobs);
  ASSERT_FALSE(snapshot.empty());
  const std::vector<double> cpu_ms_per_job = check_windows(samples, "run");
  EXPECT_LE(cpu_ms_per_job.back(),
            kMaxCpuPerJobRatio * cpu_ms_per_job.front())
      << "CPU per job rose from " << cpu_ms_per_job.front() << " ms to "
      << cpu_ms_per_job.back() << " ms";
  const Duration tardiness = loop->registry().total_tardiness();
  loop.reset();

  auto restored = service::restore_snapshot(snapshot);
  EXPECT_FALSE(restored->config().record_flow_finish);
  std::vector<Sample> restored_samples = {sample(*restored)};
  run_sampled(*restored, restored_samples, [] {});
  ASSERT_GT(restored_samples.size(), 2u);
  (void)check_windows(restored_samples, "restored");
  EXPECT_EQ(restored->registry().total_tardiness(), tardiness);
}

}  // namespace
}  // namespace echelon
