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

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "cluster/trace.hpp"
#include "common/units.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"

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

TEST(Soak, RssAndCpuPerJobStayFlat) {
  service::ServiceConfig cfg;
  cfg.fabric = cluster::FabricKind::kLeafSpine;
  cfg.hosts = 64;
  cfg.port_capacity = gbps(25);
  cfg.oversubscription = 2.0;
  cfg.record_flow_finish = false;
  service::ServiceLoop loop(cfg);
  cluster::TraceConfig trace;
  trace.num_jobs = kJobs;
  trace.arrival_rate = 8.0;
  trace.seed = 42;
  trace.iterations = 2;
  loop.set_generator(
      std::make_unique<service::PoissonArrivalGenerator>(trace, 0));

  std::vector<Sample> samples;
  std::uint64_t next = kWindowJobs;
  while (loop.step()) {
    if (loop.completed() < next) continue;
    samples.push_back({loop.completed(), current_rss_kb(), cpu_seconds()});
    next += kWindowJobs;
  }
  loop.drain();
  ASSERT_EQ(loop.completed(), static_cast<std::uint64_t>(kJobs));
  ASSERT_EQ(samples.size(), kJobs / kWindowJobs);

  std::vector<double> cpu_ms_per_job;
  for (std::size_t w = 1; w < samples.size(); ++w) {
    const Sample& a = samples[w - 1];
    const Sample& b = samples[w];
    const auto jobs = static_cast<double>(b.completed - a.completed);
    const double growth = (b.rss_kb - a.rss_kb) / jobs;
    cpu_ms_per_job.push_back((b.cpu_s - a.cpu_s) * 1e3 / jobs);
    std::cout << "jobs " << a.completed << ".." << b.completed << ": RSS "
              << a.rss_kb / 1024.0 << " -> " << b.rss_kb / 1024.0 << " MB ("
              << growth << " KB/job), CPU " << cpu_ms_per_job.back()
              << " ms/job\n";
    EXPECT_LE(growth, kMaxGrowthKbPerJob)
        << "RSS grew " << growth << " KB per job over jobs " << a.completed
        << ".." << b.completed;
  }
  EXPECT_LE(cpu_ms_per_job.back(),
            kMaxCpuPerJobRatio * cpu_ms_per_job.front())
      << "CPU per job rose from " << cpu_ms_per_job.front() << " ms to "
      << cpu_ms_per_job.back() << " ms";
}

}  // namespace
}  // namespace echelon
