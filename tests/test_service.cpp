// Online-service-mode suite (DESIGN.md §13, EXPERIMENTS.md EXT-S).
//
// The ServiceLoop promises that streaming operation is *bit-identical* to
// itself under interruption: a snapshot taken at any step boundary, restored
// into a fresh process, and run to completion must produce exactly the
// results and trace stream of the uninterrupted run. Eight sections:
//
//   1. Snapshot/restore bit identity: every-boundary sweeps on a small
//      configuration fed by a Poisson generator and by a trace file
//      (results AND split trace streams), then a mid-run snapshot across
//      the scheduler x fabric x {chaos, none} matrix. Restore rebuilds the
//      arrival source, so it refuses a trace file rewritten after the save
//      and a save refuses a generator it could not rebuild.
//   2. Crash/resume fuzz: >= 100 seeded (trace, scheduler, fabric,
//      admission, burst, cut point) combinations (ECHELON_SERVICE_SEEDS
//      overrides the budget; CI sanitizer legs set it to 8).
//   3. Corrupt-snapshot negative fuzz: truncations at every short length and
//      seeded byte flips at every offset class must throw SnapshotError with
//      a diagnostic -- a snapshot never loads garbage. Re-checksummed
//      header/version/tag/length/enum mutations fail their specific checks.
//   4. Arrival generators: Poisson draw-compatibility with generate_trace,
//      trace-file write -> read -> write byte identity, burst-knob
//      invariants, empty/zero-rate edges.
//   5. Admission control: decide() truth table and service-level queue /
//      backfill / reject behaviour.
//   6. Same-instant ordering: simultaneous arrivals launch in submission
//      order (the event-queue seq tie-break), and non-monotone or stale
//      arrival streams are rejected loudly.
//   7. Retained state: only running jobs hold a workflow at any step
//      boundary, a finished job keeps it until its run returns, and
//      snapshot replay retires identically.
//   8. Flow finish record: a mid-run result stays frozen, recording off
//      changes nothing else, the record reads as the Simulator's did, and
//      ServiceResult::end is the last job completion.
//
// Single translation unit: equivalence_harness.hpp defines the global
// allocation hook (see its header comment).

#include "equivalence_harness.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/chunked_store.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"

namespace echelon {
namespace {

using cluster::FabricKind;
using cluster::SchedulerKind;
using faultsim::ChaosProfile;
using faultsim::FaultPlan;
using service::AdmissionConfig;
using service::AdmissionOutcome;
using service::AdmissionPolicy;
using service::Arrival;
using service::ArrivalGenerator;
using service::kFinishChunk;
using service::PoissonArrivalGenerator;
using service::restore_snapshot;
using service::RestoreOptions;
using service::save_snapshot;
using service::ServiceConfig;
using service::ServiceLoop;
using service::ServiceResult;
using service::SnapshotError;
using service::TraceFileArrivalReader;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

// One point in the service equivalence matrix (the service-side RunSpec).
struct ServiceSpec {
  SchedulerKind scheduler = SchedulerKind::kEchelonMadd;
  FabricKind fabric = FabricKind::kBigSwitch;
  const FaultPlan* plan = nullptr;
  AdmissionConfig admission;
  obs::TraceSink* sink = nullptr;
};

ServiceConfig make_config(const ServiceSpec& s) {
  ServiceConfig c = eqh::run_config(
      {.scheduler = s.scheduler, .fabric = s.fabric, .plan = s.plan,
       .trace_sink = s.sink});
  c.admission = s.admission;
  c.record_flow_finish = true;  // results compare every flow's finish time
  return c;
}

// Small streaming workload: overlapping Poisson arrivals of short jobs.
cluster::TraceConfig small_arrivals(std::uint64_t seed, int jobs = 3) {
  cluster::TraceConfig t;
  t.num_jobs = jobs;
  t.seed = seed;
  t.arrival_rate = 4.0;
  t.iterations = 1;
  t.min_layers = 4;
  t.max_layers = 6;
  t.min_width = 512;
  t.max_width = 1024;
  t.rank_choices = {2, 4};
  return t;
}

std::unique_ptr<ServiceLoop> make_loop(const ServiceSpec& spec,
                                       const cluster::TraceConfig& trace,
                                       int burst_every = 0) {
  auto loop = std::make_unique<ServiceLoop>(make_config(spec));
  loop->set_generator(
      std::make_unique<PoissonArrivalGenerator>(trace, burst_every));
  return loop;
}

// Every deterministic ServiceResult field compared to the bit (wall_ms is
// host timing and excluded).
void expect_same_service_result(const ServiceResult& a,
                                const ServiceResult& b) {
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_BITEQ(a.end, b.end);
  EXPECT_BITEQ(a.total_tardiness, b.total_tardiness);
  EXPECT_BITEQ(a.weighted_total_tardiness, b.weighted_total_tardiness);
  EXPECT_EQ(a.control_invocations, b.control_invocations);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.launched, b.launched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.control_ticks, b.control_ticks);
  ASSERT_EQ(a.flow_finish.size(), b.flow_finish.size());
  for (std::size_t i = 0; i < a.flow_finish.size(); ++i) {
    EXPECT_BITEQ(a.flow_finish[i], b.flow_finish[i]) << "flow " << i;
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].paradigm, b.jobs[j].paradigm) << "job " << j;
    EXPECT_BITEQ(a.jobs[j].submitted, b.jobs[j].submitted) << "job " << j;
    EXPECT_BITEQ(a.jobs[j].started, b.jobs[j].started) << "job " << j;
    EXPECT_BITEQ(a.jobs[j].finish, b.jobs[j].finish) << "job " << j;
    EXPECT_EQ(a.jobs[j].finished, b.jobs[j].finished) << "job " << j;
  }
}

// Uninterrupted trace stream == prefix stream + restored-suffix stream.
void expect_split_trace(const obs::TraceRecorder& whole,
                        const obs::TraceRecorder& prefix,
                        const obs::TraceRecorder& suffix) {
  EXPECT_EQ(whole.recorded(), prefix.recorded() + suffix.recorded());
  for (std::size_t k = 0; k < obs::kTraceKindCount; ++k) {
    EXPECT_EQ(whole.count(static_cast<obs::TraceKind>(k)),
              prefix.count(static_cast<obs::TraceKind>(k)) +
                  suffix.count(static_cast<obs::TraceKind>(k)))
        << "kind " << obs::to_string(static_cast<obs::TraceKind>(k));
  }
  const std::vector<obs::TraceEvent> ew = whole.events();
  std::vector<obs::TraceEvent> es = prefix.events();
  const std::vector<obs::TraceEvent> tail = suffix.events();
  es.insert(es.end(), tail.begin(), tail.end());
  ASSERT_EQ(ew.size(), es.size());
  for (std::size_t i = 0; i < ew.size(); ++i) {
    EXPECT_EQ(ew[i].kind, es[i].kind) << "event " << i;
    EXPECT_BITEQ(ew[i].t, es[i].t) << "event " << i;
    EXPECT_EQ(ew[i].id, es[i].id) << "event " << i;
    EXPECT_EQ(ew[i].job, es[i].job) << "event " << i;
    EXPECT_EQ(ew[i].ctx, es[i].ctx) << "event " << i;
    EXPECT_BITEQ(ew[i].value, es[i].value) << "event " << i;
  }
}

// Service-mode chaos: link faults and brownouts only. Straggler events
// target WorkerIds by index, and in service mode workers are created at
// launch time -- a straggler firing before its worker exists is a scripting
// error, not a scheduling scenario.
FaultPlan service_chaos_plan(std::uint64_t seed,
                             const topology::Topology& topo) {
  ChaosProfile p;
  p.seed = seed;
  p.horizon = 1.5;
  p.link_faults = 3;
  p.brownouts = 2;
  p.stragglers = 0;
  return faultsim::from_chaos(p, topo, /*worker_count=*/0, /*job_count=*/8);
}


// Steps a fresh loop to `cut` boundaries, snapshots, restores, and drains
// the restored loop to completion.
ServiceResult resume_at(std::unique_ptr<ServiceLoop> prefix,
                        std::uint64_t cut) {
  for (std::uint64_t k = 0; k < cut; ++k) {
    if (!prefix->step()) break;  // cut past the end: snapshot the idle state
  }
  const std::string bytes = save_snapshot(*prefix);
  prefix.reset();  // the "crash"
  auto restored = restore_snapshot(bytes);
  restored->drain();
  return restored->result();
}

ServiceResult run_with_snapshot_at(const ServiceSpec& spec,
                                   const cluster::TraceConfig& trace,
                                   std::uint64_t cut, int burst_every = 0) {
  return resume_at(make_loop(spec, trace, burst_every), cut);
}

// A scripted arrival source for the ordering tests.
class VectorArrivalGenerator final : public ArrivalGenerator {
 public:
  explicit VectorArrivalGenerator(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {}
  std::optional<Arrival> next() override {
    if (i_ >= arrivals_.size()) return std::nullopt;
    return arrivals_[i_++];
  }
  const char* kind() const noexcept override { return "vector"; }

 private:
  std::vector<Arrival> arrivals_;
  std::size_t i_ = 0;
};

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + "/" + stem;
}

// ---------------------------------------------------------------------------
// 1. Snapshot/restore bit identity
// ---------------------------------------------------------------------------

TEST(ServiceSnapshot, EveryBoundaryResumeMatchesUninterrupted) {
  const ServiceSpec spec;
  const auto trace = small_arrivals(17);

  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_GT(reference.steps, 4u);
  ASSERT_EQ(reference.completed, reference.launched);

  // Boundary 0 (nothing consumed), every interior boundary, and one past the
  // end (idle-state snapshot).
  for (std::uint64_t cut = 0; cut <= reference.steps + 1; ++cut) {
    const ServiceResult resumed = run_with_snapshot_at(spec, trace, cut);
    expect_same_service_result(reference, resumed);
    if (HasFailure()) {
      FAIL() << "first divergence at snapshot boundary " << cut << " of "
             << reference.steps;
    }
  }
}

TEST(ServiceSnapshot, SplitTraceStreamMatchesUninterrupted) {
  obs::TraceRecorder whole_rec(1 << 16);
  ServiceSpec spec;
  spec.sink = &whole_rec;
  const auto trace = small_arrivals(29);

  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_GT(whole_rec.recorded(), 0u);

  const std::uint64_t cut = reference.steps / 2;
  obs::TraceRecorder prefix_rec(1 << 16);
  ServiceSpec prefix_spec = spec;
  prefix_spec.sink = &prefix_rec;
  auto prefix = make_loop(prefix_spec, trace);
  for (std::uint64_t k = 0; k < cut; ++k) ASSERT_TRUE(prefix->step());
  const std::string bytes = save_snapshot(*prefix);
  prefix.reset();

  // Replay runs dark; the suffix recorder sees only post-snapshot events.
  obs::TraceRecorder suffix_rec(1 << 16);
  RestoreOptions opts;
  opts.trace_sink = &suffix_rec;
  opts.trace_detail = obs::TraceDetail::kFlow;
  auto restored = restore_snapshot(bytes, opts);
  restored->drain();

  expect_same_service_result(reference, restored->result());
  expect_split_trace(whole_rec, prefix_rec, suffix_rec);
}

// Writes a small bursty stream to an arrival trace file at `path`.
void write_trace_file(const std::string& path, std::uint64_t seed) {
  PoissonArrivalGenerator gen(small_arrivals(seed, /*jobs=*/4),
                              /*burst_every=*/2);
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  service::write_arrival_trace(out, service::drain(gen));
}

std::unique_ptr<ServiceLoop> make_trace_loop(const ServiceSpec& spec,
                                             const std::string& path) {
  auto loop = std::make_unique<ServiceLoop>(make_config(spec));
  loop->set_generator(std::make_unique<TraceFileArrivalReader>(path));
  return loop;
}

// Restore rereads the trace file and replays it from its first arrival.
TEST(ServiceSnapshot, EveryBoundaryTraceFileResumeMatchesUninterrupted) {
  ServiceSpec spec;
  spec.admission.policy = AdmissionPolicy::kQueueWithCap;
  spec.admission.max_running = 2;
  spec.admission.queue_cap = 1;
  const std::string path = temp_path("every_boundary.trace");
  write_trace_file(path, 37);

  auto whole = make_trace_loop(spec, path);
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_EQ(reference.arrivals, 4u);
  ASSERT_GT(reference.steps, 4u);

  for (std::uint64_t cut = 0; cut <= reference.steps + 1; ++cut) {
    expect_same_service_result(reference,
                               resume_at(make_trace_loop(spec, path), cut));
    if (HasFailure()) {
      FAIL() << "first divergence at snapshot boundary " << cut << " of "
             << reference.steps;
    }
  }
  std::remove(path.c_str());
}

TEST(ServiceSnapshot, RewrittenTraceFileFailsRestoreNamingThePath) {
  const std::string path = temp_path("rewritten.trace");
  write_trace_file(path, 37);
  auto loop = make_trace_loop(ServiceSpec{}, path);
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(loop->step());
  const std::string bytes = save_snapshot(*loop);
  (void)restore_snapshot(bytes);  // the unchanged file restores

  write_trace_file(path, 38);  // same shape, other jobs
  try {
    (void)restore_snapshot(bytes);
    ADD_FAILURE() << "restored against a rewritten trace file";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Save refuses a generator restore could not rebuild instead of writing a
// snapshot whose restored run silently drops every later arrival.
TEST(ServiceSnapshot, SaveRejectsAGeneratorItCannotRebuild) {
  ServiceLoop loop(make_config(ServiceSpec{}));
  loop.set_generator(std::make_unique<VectorArrivalGenerator>(
      std::vector<Arrival>{}));
  try {
    (void)save_snapshot(loop);
    ADD_FAILURE() << "saved a loop fed by a vector generator";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'vector'"), std::string::npos)
        << e.what();
  }

  // No generator at all is a source too: an empty one.
  ServiceLoop idle(make_config(ServiceSpec{}));
  EXPECT_EQ(restore_snapshot(save_snapshot(idle))->generator(), nullptr);
}

TEST(ServiceSnapshot, SetGeneratorAfterStepThrows) {
  auto loop = make_loop(ServiceSpec{}, small_arrivals(17));
  ASSERT_TRUE(loop->step());
  EXPECT_THROW(loop->set_generator(std::make_unique<PoissonArrivalGenerator>(
                   small_arrivals(18))),
               std::logic_error);
}

using ServiceSnapshotMatrix = eqh::SchedFabricTest;

TEST_P(ServiceSnapshotMatrix, MidRunSnapshotBitIdenticalAcrossChaos) {
  const auto [sched, fabric] = GetParam();
  const auto trace = small_arrivals(41);
  const auto built = eqh::run_cluster_fabric(fabric);
  const FaultPlan plan = service_chaos_plan(7, built.topo);

  for (const FaultPlan* p :
       {static_cast<const FaultPlan*>(nullptr), &plan}) {
    ServiceSpec spec;
    spec.scheduler = sched;
    spec.fabric = fabric;
    spec.plan = p;

    auto whole = make_loop(spec, trace);
    whole->drain();
    const ServiceResult reference = whole->result();
    const std::uint64_t cut = reference.steps / 2;

    const ServiceResult resumed = run_with_snapshot_at(spec, trace, cut);
    expect_same_service_result(reference, resumed);
    if (HasFailure()) {
      FAIL() << "first divergence: chaos " << (p != nullptr) << " cut "
             << cut;
    }
  }
}

ECHELON_INSTANTIATE_SCHED_FABRIC(ServiceSnapshotMatrix);

// ---------------------------------------------------------------------------
// 2. Crash/resume fuzz
// ---------------------------------------------------------------------------

TEST(ServiceFuzz, CrashResumeManySeededRuns) {
  const int budget = eqh::env_seed_budget("ECHELON_SERVICE_SEEDS", 100);

  constexpr SchedulerKind kKinds[] = {
      SchedulerKind::kFairSharing, SchedulerKind::kSrpt,
      SchedulerKind::kCoflowMadd,  SchedulerKind::kSincronia,
      SchedulerKind::kEchelonMadd, SchedulerKind::kAalo};
  constexpr FabricKind kFabrics[] = {FabricKind::kBigSwitch,
                                     FabricKind::kLeafSpine};

  for (int s = 0; s < budget; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const auto trace = small_arrivals(2000 + seed);
    const int burst = (s % 3 == 2) ? 2 : 0;

    ServiceSpec spec;
    spec.scheduler = kKinds[static_cast<std::size_t>(s) % std::size(kKinds)];
    spec.fabric = kFabrics[(static_cast<std::size_t>(s) / std::size(kKinds)) %
                           std::size(kFabrics)];
    switch (s % 4) {
      case 0:
        spec.admission.policy = AdmissionPolicy::kAcceptAll;
        break;
      case 1:
        spec.admission.policy = AdmissionPolicy::kQueueWithCap;
        spec.admission.max_running = 1;
        spec.admission.queue_cap = 4;
        break;
      case 2:
        spec.admission.policy = AdmissionPolicy::kQueueWithCap;
        spec.admission.max_running = 1;
        spec.admission.queue_cap = 1;  // forces rejections under bursts
        break;
      default:
        spec.admission.policy = AdmissionPolicy::kTardinessAware;
        spec.admission.max_running = 2;
        spec.admission.queue_cap = 4;
        break;
    }

    const auto built = eqh::run_cluster_fabric(spec.fabric);
    FaultPlan plan;
    if (s % 2 == 1) {
      plan = service_chaos_plan(seed, built.topo);
      spec.plan = &plan;
    }

    auto whole = make_loop(spec, trace, burst);
    whole->drain();
    const ServiceResult reference = whole->result();

    // The cut point walks the whole boundary range as seeds advance.
    const std::uint64_t cut = seed % (reference.steps + 2);
    const ServiceResult resumed =
        run_with_snapshot_at(spec, trace, cut, burst);
    expect_same_service_result(reference, resumed);
    if (HasFailure()) {
      FAIL() << "first divergence at seed " << s << " (scheduler "
             << cluster::to_string(spec.scheduler) << ", fabric "
             << (spec.fabric == FabricKind::kBigSwitch ? "bigswitch"
                                                       : "leafspine")
             << ", admission " << (s % 4)
             << ", chaos " << (s % 2) << ", burst " << burst << ", cut "
             << cut << " of " << reference.steps << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Corrupt-snapshot negative fuzz
// ---------------------------------------------------------------------------

// Recomputes and rewrites a snapshot's trailing checksum so a mutation
// reaches the validation layer it targets instead of tripping the integrity
// check.
std::string restamp(std::string b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i + 8 < b.size(); ++i) {
    h ^= static_cast<unsigned char>(b[i]);
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    b[b.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  }
  return b;
}

class CorruptSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ServiceSpec spec;
    const auto trace = small_arrivals(53);
    auto loop = make_loop(spec, trace);
    for (int k = 0; k < 6; ++k) ASSERT_TRUE(loop->step());
    bytes_ = save_snapshot(*loop);
    ASSERT_GT(bytes_.size(), 64u);
    // Sanity: the pristine snapshot restores.
    auto restored = restore_snapshot(bytes_);
    restored->drain();
  }

  static std::string expect_snapshot_error(const std::string& bytes) {
    try {
      auto loop = restore_snapshot(bytes);
      ADD_FAILURE() << "corrupt snapshot restored without error";
      return {};
    } catch (const SnapshotError& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
      return e.what();
    }
    // Anything else (std::logic_error, segfault, silent garbage) escapes
    // and fails the test.
  }

  std::string bytes_;
};

TEST_F(CorruptSnapshotTest, EveryShortTruncationThrows) {
  for (std::size_t len = 0; len < 64; ++len) {
    expect_snapshot_error(bytes_.substr(0, len));
  }
  Rng rng(7);
  for (int k = 0; k < 64; ++k) {
    const std::size_t len = rng.uniform_int(bytes_.size());  // < full size
    expect_snapshot_error(bytes_.substr(0, len));
  }
}

TEST_F(CorruptSnapshotTest, SeededByteFlipsAlwaysThrow) {
  Rng rng(11);
  const int flips = 256;
  for (int k = 0; k < flips; ++k) {
    std::string mutated = bytes_;
    const std::size_t off = rng.uniform_int(mutated.size());
    const int bit = static_cast<int>(rng.uniform_int(8));
    mutated[off] = static_cast<char>(
        static_cast<unsigned char>(mutated[off]) ^ (1u << bit));
    const std::string what = expect_snapshot_error(mutated);
    EXPECT_NE(what.find("snapshot"), std::string::npos)
        << "offset " << off << " bit " << bit << ": " << what;
  }
}

TEST_F(CorruptSnapshotTest, HeaderAndVersionMutationsFailTheirOwnChecks) {
  {
    std::string m = bytes_;
    m[0] = 'X';  // magic
    EXPECT_NE(expect_snapshot_error(m).find("magic"), std::string::npos);
  }
  {
    std::string m = bytes_;
    m[8] = 99;  // version (little-endian u32 after the 8-byte magic)
    EXPECT_NE(expect_snapshot_error(restamp(m)).find("version"),
              std::string::npos);
  }
  {
    // v14 images carry a telemetry series-budget word in kConfig; v15
    // readers reject them up front, naming the version, instead of failing
    // to parse the config section.
    static_assert(service::kSnapshotVersion == 15);
    std::string m = bytes_;
    m[8] = 14;
    EXPECT_NE(expect_snapshot_error(restamp(m))
                  .find("unsupported version 14 (expected 15)"),
              std::string::npos);
  }
  {
    std::string m = bytes_;
    m[12] = 9;  // first section tag (kConfig = 1)
    EXPECT_NE(expect_snapshot_error(restamp(m)).find("tag"),
              std::string::npos);
  }
  {
    std::string m = bytes_;
    m[16] = static_cast<char>(0xff);  // first section length, low byte
    const std::string what = expect_snapshot_error(restamp(m));
    EXPECT_TRUE(what.find("section") != std::string::npos ||
                what.find("truncated") != std::string::npos)
        << what;
  }
  {
    std::string m = bytes_;
    m[24] = static_cast<char>(0xee);  // config.scheduler enum, low byte
    EXPECT_NE(expect_snapshot_error(restamp(m)).find("scheduler"),
              std::string::npos);
  }
  {
    // Plain checksum corruption: flip a bit in the trailing u64.
    std::string m = bytes_;
    m[m.size() - 1] = static_cast<char>(
        static_cast<unsigned char>(m[m.size() - 1]) ^ 0x01);
    EXPECT_NE(expect_snapshot_error(m).find("checksum"), std::string::npos);
  }
}

TEST(CorruptSnapshotFile, MissingFileThrows) {
  EXPECT_THROW(
      (void)service::restore_snapshot_file(temp_path("no_such_snapshot.bin")),
      SnapshotError);
}

// ---------------------------------------------------------------------------
// 4. Arrival generators
// ---------------------------------------------------------------------------

void expect_same_job(const cluster::JobSpec& a, const cluster::JobSpec& b,
                     std::size_t i) {
  EXPECT_EQ(a.paradigm, b.paradigm) << "job " << i;
  EXPECT_EQ(a.ranks, b.ranks) << "job " << i;
  EXPECT_EQ(a.iterations, b.iterations) << "job " << i;
  EXPECT_EQ(a.buckets, b.buckets) << "job " << i;
  EXPECT_EQ(a.micro_batches, b.micro_batches) << "job " << i;
  EXPECT_EQ(a.pp_schedule, b.pp_schedule) << "job " << i;
  EXPECT_BITEQ(a.compute_jitter, b.compute_jitter) << "job " << i;
  EXPECT_EQ(a.jitter_seed, b.jitter_seed) << "job " << i;
  EXPECT_EQ(a.gpu.name, b.gpu.name) << "job " << i;
  EXPECT_BITEQ(a.gpu.peak_flops, b.gpu.peak_flops) << "job " << i;
  EXPECT_BITEQ(a.gpu.efficiency, b.gpu.efficiency) << "job " << i;
  EXPECT_EQ(a.model.name, b.model.name) << "job " << i;
  EXPECT_BITEQ(a.model.bytes_per_element, b.model.bytes_per_element)
      << "job " << i;
  ASSERT_EQ(a.model.layers.size(), b.model.layers.size()) << "job " << i;
  for (std::size_t l = 0; l < a.model.layers.size(); ++l) {
    EXPECT_EQ(a.model.layers[l].name, b.model.layers[l].name);
    EXPECT_EQ(a.model.layers[l].params, b.model.layers[l].params);
    EXPECT_BITEQ(a.model.layers[l].activation_bytes,
                 b.model.layers[l].activation_bytes);
    EXPECT_BITEQ(a.model.layers[l].fwd_flops, b.model.layers[l].fwd_flops);
    EXPECT_BITEQ(a.model.layers[l].bwd_flops, b.model.layers[l].bwd_flops);
  }
}

TEST(ArrivalGen, PoissonStreamMatchesGenerateTrace) {
  cluster::TraceConfig cfg;  // the production defaults: 10 jobs, seed 42
  const std::vector<cluster::JobSpec> batch = cluster::generate_trace(cfg);

  PoissonArrivalGenerator gen(cfg);
  const std::vector<Arrival> stream = service::drain(gen);

  ASSERT_EQ(stream.size(), batch.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_BITEQ(stream[i].at, batch[i].arrival) << "job " << i;
    EXPECT_BITEQ(stream[i].job.arrival, batch[i].arrival) << "job " << i;
    expect_same_job(stream[i].job, batch[i], i);
  }
}

TEST(ArrivalGen, TraceFileWriteReadWriteByteIdentity) {
  const auto cfg = small_arrivals(71, /*jobs=*/6);
  PoissonArrivalGenerator gen(cfg);
  const std::vector<Arrival> arrivals = service::drain(gen);

  const std::string text1 = service::serialize_arrivals(arrivals);
  const std::string path = temp_path("arrivals_roundtrip.trace");
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << text1;
  }
  TraceFileArrivalReader reader(path);
  EXPECT_EQ(reader.size(), arrivals.size());
  const std::vector<Arrival> reread = service::drain(reader);
  const std::string text2 = service::serialize_arrivals(reread);
  EXPECT_EQ(text1, text2);

  // And the in-memory parse path agrees byte for byte too.
  EXPECT_EQ(service::serialize_arrivals(service::parse_arrival_trace(text1)),
            text1);
  std::remove(path.c_str());
}

TEST(ArrivalGen, BurstCollapsesGapsWithoutPerturbingParameters) {
  const auto cfg = small_arrivals(73, /*jobs=*/8);
  PoissonArrivalGenerator plain(cfg);
  PoissonArrivalGenerator bursty(cfg, /*burst_every=*/2);
  const std::vector<Arrival> a = service::drain(plain);
  const std::vector<Arrival> b = service::drain(bursty);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_job(a[i].job, b[i].job, i);  // parameter stream untouched
    if (i > 0) {
      EXPECT_GE(b[i].at, b[i - 1].at);
    }
  }
  // Every 2nd emission pins its successor to the same instant: pairs (1,2),
  // (3,4), ... share arrival doubles bitwise.
  EXPECT_BITEQ(b[2].at, b[1].at);
  EXPECT_BITEQ(b[4].at, b[3].at);
  // burst_every == 0 is exactly the batch trace.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_BITEQ(a[i].at, a[i].job.arrival);
  }
}

TEST(ArrivalGen, EdgeCasesFailLoudOrEmpty) {
  auto cfg = small_arrivals(79);
  cfg.num_jobs = 0;
  PoissonArrivalGenerator empty(cfg);
  EXPECT_FALSE(empty.next().has_value());

  auto bad = small_arrivals(79);
  bad.arrival_rate = 0.0;
  EXPECT_THROW(PoissonArrivalGenerator{bad}, std::invalid_argument);
  bad.arrival_rate = -1.0;
  EXPECT_THROW(PoissonArrivalGenerator{bad}, std::invalid_argument);

  auto no_ranks = small_arrivals(79);
  no_ranks.rank_choices.clear();
  EXPECT_THROW(PoissonArrivalGenerator{no_ranks}, std::invalid_argument);

  auto bad_weights = small_arrivals(79);
  bad_weights.paradigm_weights = {1.0, 2.0};
  EXPECT_THROW(PoissonArrivalGenerator{bad_weights}, std::invalid_argument);

  // Empty stream round trip.
  const std::string empty_text = service::serialize_arrivals({});
  EXPECT_TRUE(service::parse_arrival_trace(empty_text).empty());

  // Malformed traces name the offending line.
  try {
    (void)service::parse_arrival_trace(std::string("bogus header\n"));
    ADD_FAILURE() << "bad header parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  try {
    (void)service::parse_arrival_trace(
        std::string("# echelonflow arrival trace v1\narrivals 1\n"));
    ADD_FAILURE() << "truncated trace parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }

  EXPECT_THROW(TraceFileArrivalReader{temp_path("no_such.trace")},
               std::runtime_error);
}

// Negative fuzz over the arrival-trace text format, in the
// CorruptSnapshotTest pattern: every truncation length and 256 seeded bit
// flips of a written trace. Each input must either throw
// std::invalid_argument or parse to arrivals that re-serialize and re-parse
// to themselves. Returns whether the input parsed.
bool expect_trace_parses_or_throws(const std::string& text) {
  std::vector<Arrival> parsed;
  try {
    parsed = service::parse_arrival_trace(text);
  } catch (const std::invalid_argument&) {
    return false;
  }
  const std::string again = service::serialize_arrivals(parsed);
  const std::vector<Arrival> reparsed = service::parse_arrival_trace(again);
  EXPECT_EQ(reparsed.size(), parsed.size());
  for (std::size_t i = 0; i < std::min(parsed.size(), reparsed.size()); ++i) {
    EXPECT_BITEQ(reparsed[i].at, parsed[i].at) << "job " << i;
    EXPECT_BITEQ(reparsed[i].job.arrival, parsed[i].job.arrival) << "job " << i;
    expect_same_job(reparsed[i].job, parsed[i].job, i);
  }
  EXPECT_EQ(service::serialize_arrivals(reparsed), again);
  return true;
}

std::string fuzz_trace_text() {
  PoissonArrivalGenerator gen(small_arrivals(83, /*jobs=*/3));
  return service::serialize_arrivals(service::drain(gen));
}

// Both outcomes must occur in each sweep, or it exercised only one side of
// the contract.
TEST(ArrivalTraceFuzz, EveryTruncationParsesOrThrows) {
  const std::string text = fuzz_trace_text();
  std::size_t parsed = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    if (expect_trace_parses_or_throws(text.substr(0, len))) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, text.size() + 1);
}

TEST(ArrivalTraceFuzz, SeededBitFlipsParseOrThrow) {
  const std::string text = fuzz_trace_text();
  Rng rng(13);
  constexpr std::size_t kFlips = 256;
  std::size_t parsed = 0;
  for (std::size_t k = 0; k < kFlips; ++k) {
    std::string mutated = text;
    const std::size_t off = rng.uniform_int(mutated.size());
    const int bit = static_cast<int>(rng.uniform_int(8));
    mutated[off] = static_cast<char>(
        static_cast<unsigned char>(mutated[off]) ^ (1u << bit));
    SCOPED_TRACE("offset " + std::to_string(off) + " bit " +
                 std::to_string(bit));
    if (expect_trace_parses_or_throws(mutated)) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kFlips);
}

TEST(ArrivalTraceFuzz, PartialTokensAndTrailingContentThrow) {
  const std::string text = fuzz_trace_text();
  const auto expect_rejected = [](const std::string& bad) {
    EXPECT_THROW((void)service::parse_arrival_trace(bad),
                 std::invalid_argument);
  };
  const auto replaced = [&text](const std::string& from,
                                const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string out = text;
    out.replace(at, from.size(), to);
    return out;
  };
  expect_rejected(replaced(" ranks ", " ranks 4x"));     // "4x4" reads as 4
  expect_rejected(replaced(" jseed ", " jseed -"));     // wraps unsigned
  expect_rejected(replaced("arrival 0 ", "arrival nan "));
  expect_rejected(replaced("\ngpu ", " extra\ngpu "));  // after submit
  expect_rejected(text + "arrival 1\n");                 // past the count
  // Blank lines after the declared arrivals are fine.
  EXPECT_EQ(service::parse_arrival_trace(text + "\n \n").size(), 3u);
}

// Seeded byte flips: each mutated byte takes any value, not just one bit
// away from the original.
TEST(ArrivalTraceFuzz, SeededByteFlipsParseOrThrow) {
  const std::string text = fuzz_trace_text();
  Rng rng(29);
  constexpr std::size_t kFlips = 256;
  std::size_t parsed = 0;
  for (std::size_t k = 0; k < kFlips; ++k) {
    std::string mutated = text;
    const std::size_t off = rng.uniform_int(mutated.size());
    mutated[off] = static_cast<char>(rng.uniform_int(256));
    SCOPED_TRACE("offset " + std::to_string(off));
    if (expect_trace_parses_or_throws(mutated)) ++parsed;
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kFlips);
}

// One out-of-range value per field: the parse fails with
// std::invalid_argument naming the line and the field, instead of loading
// a job that crashes, hangs or silently misbehaves downstream.
struct FieldCase {
  const char* key;    // the field's keyword in the trace text
  const char* value;  // an out-of-range value for it
  int line;           // the line it sits on in fuzz_trace_text()
};

class ArrivalTraceField : public ::testing::TestWithParam<FieldCase> {};

TEST_P(ArrivalTraceField, OutOfRangeValueThrowsNamingLineAndField) {
  const FieldCase c = GetParam();
  std::string text = fuzz_trace_text();
  // Replace the first occurrence of "<key> <value>".
  const std::string key = " " + std::string(c.key) + " ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_of(" \n", begin);
  text.replace(begin, end - begin, c.value);
  try {
    (void)service::parse_arrival_trace(text);
    ADD_FAILURE() << c.key << " " << c.value << " parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(c.line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(c.key), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryRangedField, ArrivalTraceField,
    ::testing::Values(FieldCase{"ranks", "0", 3},
                      FieldCase{"iterations", "0", 3},
                      FieldCase{"iterations", "-1", 3},
                      FieldCase{"buckets", "0", 3},
                      FieldCase{"micro", "0", 3},
                      FieldCase{"jitter", "-1", 3},
                      FieldCase{"submit", "-0.5", 3},
                      FieldCase{"peak", "0", 4},
                      FieldCase{"eff", "0", 4},
                      FieldCase{"eff", "1.5", 4},
                      FieldCase{"bpe", "-4", 5},
                      FieldCase{"layers", "0", 5},
                      FieldCase{"params", "-1", 6},
                      FieldCase{"act", "-472192", 6},
                      FieldCase{"fwd", "-1", 6},
                      FieldCase{"bwd", "-1", 6}),
    [](const ::testing::TestParamInfo<FieldCase>& info) {
      std::string name = std::string(info.param.key) + "_";
      for (const char ch : std::string(info.param.value)) {
        name += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// 5. Admission control
// ---------------------------------------------------------------------------

// decide() with a fixed total tardiness.
AdmissionOutcome decide_at(const AdmissionConfig& cfg, std::uint64_t running,
                           std::uint64_t queued, Duration total_tardiness) {
  return service::decide(cfg, running, queued,
                         [total_tardiness] { return total_tardiness; });
}

TEST(Admission, DecideTruthTable) {
  AdmissionConfig accept;  // kAcceptAll
  EXPECT_EQ(decide_at(accept, 0, 0, 0.0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide_at(accept, 1000, 1000, 1e9), AdmissionOutcome::kAdmitted);

  AdmissionConfig capped;
  capped.policy = AdmissionPolicy::kQueueWithCap;
  capped.max_running = 2;
  capped.queue_cap = 1;
  EXPECT_EQ(decide_at(capped, 0, 0, 0.0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide_at(capped, 1, 0, 0.0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide_at(capped, 2, 0, 0.0), AdmissionOutcome::kQueued);
  EXPECT_EQ(decide_at(capped, 2, 1, 0.0), AdmissionOutcome::kRejected);
  capped.max_running = 0;  // unlimited
  EXPECT_EQ(decide_at(capped, 5000, 0, 0.0), AdmissionOutcome::kAdmitted);

  AdmissionConfig tardy;
  tardy.policy = AdmissionPolicy::kTardinessAware;
  tardy.max_running = 1;
  tardy.queue_cap = 2;
  tardy.tardiness_limit = 0.5;
  EXPECT_EQ(decide_at(tardy, 0, 0, 0.0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide_at(tardy, 1, 0, 0.4), AdmissionOutcome::kQueued);
  EXPECT_EQ(decide_at(tardy, 1, 0, 0.6), AdmissionOutcome::kRejected);
  // Tardiness only sheds the *overflow*: total tardiness is cumulative and
  // never decreases, so rejecting while a running slot is free would starve
  // the cluster forever once the limit is ever crossed.
  EXPECT_EQ(decide_at(tardy, 0, 0, 0.6), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide_at(tardy, 1, 2, 0.4), AdmissionOutcome::kRejected);  // cap
}

// The registry scan behind total tardiness runs only where a policy reads
// it: tardiness-aware admission of an arrival over the running cap.
TEST(Admission, TotalTardinessIsReadOnlyByTardinessAwareOverflow) {
  int reads = 0;
  const auto counted = [&reads] {
    ++reads;
    return 0.0;
  };
  AdmissionConfig cfg;
  cfg.max_running = 1;
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kAcceptAll, AdmissionPolicy::kQueueWithCap}) {
    cfg.policy = p;
    (void)service::decide(cfg, 0, 0, counted);
    (void)service::decide(cfg, 5, 0, counted);
    (void)service::decide(cfg, 5, 100, counted);
  }
  cfg.policy = AdmissionPolicy::kTardinessAware;
  (void)service::decide(cfg, 0, 0, counted);  // a free slot: no read
  EXPECT_EQ(reads, 0);
  (void)service::decide(cfg, 1, 0, counted);  // over the cap: one read
  EXPECT_EQ(reads, 1);
}

// Admission outcomes of a bursty stream under accept-all and queue-with-cap,
// pinned to the values the service produced when every arrival still read
// total tardiness eagerly: not reading it changes no decision.
TEST(Admission, OutcomesMatchEagerTardinessReads) {
  struct Case {
    AdmissionPolicy policy;
    std::uint64_t max_running;
    std::uint64_t queue_cap;
    const char* outcomes;  // one letter per journal entry: A/Q/R
  };
  const Case cases[] = {
      {AdmissionPolicy::kAcceptAll, 0, 16, "AAAAAAAAAAAA"},
      {AdmissionPolicy::kQueueWithCap, 1, 1, "AQRAQAQAQAQQ"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(service::to_string(c.policy));
    ServiceSpec spec;
    spec.admission.policy = c.policy;
    spec.admission.max_running = c.max_running;
    spec.admission.queue_cap = c.queue_cap;
    auto loop = make_loop(spec, small_arrivals(113, /*jobs=*/12),
                          /*burst_every=*/2);
    loop->drain();
    std::string outcomes;
    for (const AdmissionOutcome o : loop->journal()) {
      outcomes += "AQR"[static_cast<int>(o)];
    }
    EXPECT_EQ(outcomes, c.outcomes);
    EXPECT_EQ(loop->result().completed, loop->result().launched);
  }
}

TEST(Admission, NamesRoundTrip) {
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kAcceptAll, AdmissionPolicy::kQueueWithCap,
        AdmissionPolicy::kTardinessAware}) {
    EXPECT_EQ(service::admission_policy_from_string(service::to_string(p)), p);
  }
  EXPECT_THROW((void)service::admission_policy_from_string("nonsense"),
               std::invalid_argument);
  EXPECT_EQ(std::string(service::to_string(AdmissionOutcome::kQueued)),
            "queued");
}

TEST(Admission, QueueWithCapBackfillsAndCompletes) {
  ServiceSpec spec;
  spec.admission.policy = AdmissionPolicy::kQueueWithCap;
  spec.admission.max_running = 1;
  spec.admission.queue_cap = 8;
  const auto trace = small_arrivals(83, /*jobs=*/4);
  auto loop = make_loop(spec, trace, /*burst_every=*/2);
  loop->drain();
  const ServiceResult r = loop->result();
  EXPECT_EQ(r.arrivals, 4u);
  EXPECT_GT(r.queued, 0u);  // serial admission must queue the overlap
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.launched, r.admitted + r.queued);
  EXPECT_EQ(r.completed, r.launched);  // the queue fully drains
  for (const service::ServiceJobRecord& j : r.jobs) {
    EXPECT_TRUE(j.finished);
    EXPECT_GE(j.started, j.submitted);  // queued jobs start late, never early
  }
}

TEST(Admission, ZeroQueueCapRejects) {
  ServiceSpec spec;
  spec.admission.policy = AdmissionPolicy::kQueueWithCap;
  spec.admission.max_running = 1;
  spec.admission.queue_cap = 0;
  const auto trace = small_arrivals(89, /*jobs=*/4);
  auto loop = make_loop(spec, trace, /*burst_every=*/2);
  loop->drain();
  const ServiceResult r = loop->result();
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.arrivals, r.admitted + r.queued + r.rejected);
  EXPECT_EQ(r.completed, r.launched);
}

TEST(Admission, PublishMetricsExportsServiceCounters) {
  obs::MetricsRegistry metrics;
  ServiceSpec spec;
  ServiceConfig cfg = make_config(spec);
  cfg.metrics = &metrics;
  ServiceLoop loop(cfg);
  loop.set_generator(
      std::make_unique<PoissonArrivalGenerator>(small_arrivals(97)));
  loop.drain();
  loop.publish_metrics();
  loop.publish_metrics();  // idempotent: republishing must not double-count
  const ServiceResult r = loop.result();
  EXPECT_EQ(metrics.counter("service.arrivals").value(), r.arrivals);
  EXPECT_EQ(metrics.counter("service.completed").value(), r.completed);
  EXPECT_EQ(metrics.counter("service.control_ticks").value(),
            r.control_ticks);
  EXPECT_EQ(metrics.gauge("service.queue_depth").value(), 0.0);
  EXPECT_EQ(metrics.gauge("service.admission_rate").value(), 1.0);
  EXPECT_EQ(metrics.counter("sim.control_invocations").value(),
            r.control_invocations);
  EXPECT_GT(metrics.gauge("run.wall_ms").value(), 0.0);
  // Released groups are complete; held ones may be too.
  std::uint64_t complete_groups = loop.registry().released();
  for (const ef::EchelonFlow* g : loop.registry().all()) {
    if (g->complete()) ++complete_groups;
  }
  EXPECT_GT(complete_groups, 0u);
  EXPECT_EQ(metrics.histogram("echelonflow.tardiness_s").count(),
            complete_groups);
}

// ---------------------------------------------------------------------------
// 6. Same-instant ordering
// ---------------------------------------------------------------------------

std::vector<Arrival> simultaneous_arrivals(int n, SimTime at) {
  const auto cfg = small_arrivals(101, n);
  PoissonArrivalGenerator gen(cfg);
  std::vector<Arrival> arrivals = service::drain(gen);
  for (Arrival& a : arrivals) {
    a.at = at;
    a.job.arrival = at;
  }
  return arrivals;
}

TEST(SameInstant, SimultaneousArrivalsLaunchInSubmissionOrder) {
  obs::TraceRecorder rec(1 << 16);
  ServiceSpec spec;
  spec.sink = &rec;
  ServiceLoop loop(make_config(spec));
  loop.set_generator(std::make_unique<VectorArrivalGenerator>(
      simultaneous_arrivals(3, 0.125)));
  loop.drain();

  const ServiceResult r = loop.result();
  ASSERT_EQ(r.launched, 3u);
  EXPECT_EQ(r.completed, 3u);
  for (const service::ServiceJobRecord& j : r.jobs) {
    EXPECT_BITEQ(j.submitted, 0.125);
    EXPECT_BITEQ(j.started, 0.125);
  }

  // The regression check proper: in the merged trace stream, each job's
  // first event must appear in submission (JobId) order -- the event-queue
  // seq tie-break replaying same-instant releases in launch order.
  const std::vector<obs::TraceEvent> events = rec.events();
  std::vector<std::size_t> first_seen;
  for (std::uint64_t job = 0; job < 3; ++job) {
    bool found = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].job == job) {
        first_seen.push_back(i);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "job " << job << " never traced";
  }
  EXPECT_LT(first_seen[0], first_seen[1]);
  EXPECT_LT(first_seen[1], first_seen[2]);
}

TEST(SameInstant, SnapshotBetweenSimultaneousBatchesStaysIdentical) {
  // Burst arrivals (pairs at identical instants) + every-boundary snapshots:
  // the cut can land exactly between two same-instant admissions' boundary
  // and the restored run must still replay them in order.
  const ServiceSpec spec;
  const auto trace = small_arrivals(103, /*jobs=*/4);
  auto whole = make_loop(spec, trace, /*burst_every=*/2);
  whole->drain();
  const ServiceResult reference = whole->result();
  for (std::uint64_t cut = 0; cut <= reference.steps; ++cut) {
    const ServiceResult resumed =
        run_with_snapshot_at(spec, trace, cut, /*burst_every=*/2);
    expect_same_service_result(reference, resumed);
    if (HasFailure()) FAIL() << "divergence at cut " << cut;
  }
}

TEST(SameInstant, NonMonotoneArrivalStreamThrows) {
  std::vector<Arrival> arrivals = simultaneous_arrivals(2, 0.5);
  arrivals[1].at = 0.25;  // travels back in time
  arrivals[1].job.arrival = 0.25;
  ServiceLoop loop(make_config(ServiceSpec{}));
  loop.set_generator(
      std::make_unique<VectorArrivalGenerator>(std::move(arrivals)));
  EXPECT_THROW(loop.drain(), std::logic_error);
}

// ---------------------------------------------------------------------------
// 7. Retained state
// ---------------------------------------------------------------------------

// Exactly the finished jobs' EchelonFlows are retired: every group of a
// finished job is, and no group of a running job is. The registry holds
// the groups from its release cursor on, and the cursor stands at the
// first group not retired: every group before it was retired and released
// (watch_releases checks that each belonged to a finished job). Returns how
// many are retired, released ones included.
std::size_t expect_groups_retired_with_jobs(const ServiceLoop& loop) {
  const ServiceResult r = loop.result();
  const ef::Registry& reg = loop.registry();
  const std::vector<const ef::EchelonFlow*> held = reg.all();
  EXPECT_EQ(held.size(), reg.size() - reg.released());
  if (!held.empty()) {
    EXPECT_EQ(held.front()->id(), EchelonFlowId{reg.released()});
    EXPECT_FALSE(held.front()->retired())
        << "the release cursor stopped at a retired EchelonFlow";
  }
  std::size_t retired = reg.released();
  std::size_t wrong = 0;
  for (const ef::EchelonFlow* h : held) {
    const bool finished = r.jobs.at(h->job().value()).finished;
    if (h->retired() != finished) ++wrong;
    if (h->retired()) {
      ++retired;
      EXPECT_TRUE(h->members().empty());
    }
  }
  EXPECT_EQ(wrong, 0u) << "EchelonFlows retired iff their job finished, at "
                       << "boundary " << loop.steps_executed();
  return retired;
}

// Checks every release of `loop`'s registry from now on: it names the next
// EchelonFlow in creation order, is retired, and belongs to a finished job.
// Returns the count of releases seen, which the listener keeps updating.
std::shared_ptr<std::size_t> watch_releases(ServiceLoop& loop) {
  auto seen = std::make_shared<std::size_t>(loop.registry().released());
  loop.registry().add_release_listener(
      [&loop, seen](const ef::EchelonFlow& h) {
        EXPECT_EQ(h.id(), EchelonFlowId{(*seen)++});
        EXPECT_TRUE(h.retired());
        EXPECT_TRUE(loop.result().jobs.at(h.job().value()).finished)
            << "EchelonFlow " << h.id().value() << " released while its "
            << "job runs";
      });
  return seen;
}

// Steps `loop` to completion (or `max_steps` boundaries), checking at every
// boundary that exactly the running jobs hold a workflow and exactly the
// finished jobs' EchelonFlows are retired, and every release (see
// watch_releases). A flow and task listener also watches *inside* each run:
// a job that finishes there must keep its workflow until the run returns
// (its engine is still on the stack), so the count briefly exceeds
// running(). Returns whether it did.
bool step_checking_retained(ServiceLoop& loop,
                            std::uint64_t max_steps = ~std::uint64_t{0}) {
  // The listeners outlive this call, so their state lives on the heap.
  auto deferred = std::make_shared<bool>(false);
  const auto watch = [&loop, deferred] {
    if (loop.workflows_held() > loop.running()) *deferred = true;
  };
  loop.sim().add_flow_listener(
      [watch](netsim::Simulator&, const netsim::Flow&) { watch(); });
  loop.sim().add_task_listener(
      [watch](netsim::Simulator&, const netsim::ComputeTask&) { watch(); });
  const std::shared_ptr<const std::size_t> released = watch_releases(loop);
  EXPECT_EQ(loop.workflows_held(), loop.running());
  expect_groups_retired_with_jobs(loop);
  for (std::uint64_t k = 0; k < max_steps && loop.step(); ++k) {
    EXPECT_EQ(loop.workflows_held(), loop.running())
        << "boundary " << loop.steps_executed();
    EXPECT_EQ(*released, loop.registry().released());
    expect_groups_retired_with_jobs(loop);
  }
  return *deferred;
}

TEST(RetainedState, OnlyRunningJobsHoldWorkflows) {
  const auto trace = small_arrivals(61, /*jobs=*/5);
  const auto built = eqh::run_cluster_fabric(FabricKind::kBigSwitch);
  // The chaos plan, plus an outage of the first job's first host that
  // outlasts the retry budget: its flows park at birth and are abandoned,
  // so some groups retire with abandoned members.
  const FaultPlan plan = [&built] {
    FaultPlan p = service_chaos_plan(11, built.topo);
    const std::uint64_t host0 = built.hosts[0].value();
    p.events.push_back({0.0, faultsim::FaultKind::kNodeDown, host0});
    p.events.push_back({0.5, faultsim::FaultKind::kNodeUp, host0});
    std::stable_sort(p.events.begin(), p.events.end(),
                     [](const auto& a, const auto& b) { return a.at < b.at; });
    return p;
  }();
  AdmissionConfig queue_with_cap;
  queue_with_cap.policy = AdmissionPolicy::kQueueWithCap;
  queue_with_cap.max_running = 2;
  queue_with_cap.queue_cap = 8;

  for (const AdmissionConfig& admission :
       {AdmissionConfig{}, queue_with_cap}) {
    for (const FaultPlan* p :
         {static_cast<const FaultPlan*>(nullptr), &plan}) {
      ServiceSpec spec;
      spec.admission = admission;
      spec.plan = p;
      auto loop = make_loop(spec, trace, /*burst_every=*/2);
      EXPECT_TRUE(step_checking_retained(*loop))
          << "no finished job kept its workflow until its run returned";
      loop->drain();
      const ServiceResult r = loop->result();
      EXPECT_GT(r.launched, 0u);
      EXPECT_EQ(r.completed, r.launched);
      EXPECT_EQ(loop->workflows_held(), 0u);
      EXPECT_GT(loop->registry().size(), 0u);
      EXPECT_EQ(expect_groups_retired_with_jobs(*loop),
                loop->registry().size());
      // Every job finished, so every group is released.
      EXPECT_EQ(loop->registry().released(), loop->registry().size());
      if (p != nullptr) {
        // The plan exercised the retirement of groups with parked and
        // abandoned members.
        const faultsim::FaultSummary& fs = loop->injector()->summary();
        EXPECT_GT(fs.parks, 0u);
        EXPECT_GT(fs.abandoned, 0u);
      }
      if (HasFailure()) {
        FAIL() << "policy " << service::to_string(admission.policy)
               << " chaos " << (p != nullptr);
      }
    }
  }
}

TEST(RetainedState, SnapshotRestoreRetiresIdentically) {
  ServiceSpec spec;
  spec.admission.policy = AdmissionPolicy::kQueueWithCap;
  spec.admission.max_running = 2;
  spec.admission.queue_cap = 8;
  const auto trace = small_arrivals(67, /*jobs=*/5);

  auto whole = make_loop(spec, trace, /*burst_every=*/2);
  whole->drain();
  const ServiceResult reference = whole->result();
  const std::uint64_t cut = reference.steps / 2;

  auto prefix = make_loop(spec, trace, /*burst_every=*/2);
  step_checking_retained(*prefix, cut);
  ASSERT_EQ(prefix->steps_executed(), cut);
  ASSERT_GT(prefix->completed(), 0u);  // the cut lands after a retirement
  const std::size_t released_at_cut = prefix->registry().released();
  const std::size_t groups_at_cut = prefix->registry().size();
  std::vector<bool> held_retired_at_cut;
  for (const ef::EchelonFlow* h : prefix->registry().all()) {
    held_retired_at_cut.push_back(h->retired());
  }
  ASSERT_GT(released_at_cut, 0u);
  const std::string bytes = save_snapshot(*prefix);
  const std::uint64_t running_at_cut = prefix->running();
  prefix.reset();

  // Restore replays to the cut (kVerify passes, registry.released
  // included) and retires and releases the same EchelonFlows on the way.
  auto restored = restore_snapshot(bytes);
  EXPECT_EQ(restored->running(), running_at_cut);
  ASSERT_EQ(restored->registry().size(), groups_at_cut);
  ASSERT_EQ(restored->registry().released(), released_at_cut);
  for (std::size_t g = released_at_cut; g < groups_at_cut; ++g) {
    EXPECT_EQ(restored->registry().get(EchelonFlowId{g}).retired(),
              held_retired_at_cut[g - released_at_cut])
        << "EchelonFlow " << g;
  }
  step_checking_retained(*restored);
  restored->drain();
  EXPECT_EQ(restored->workflows_held(), 0u);
  expect_same_service_result(reference, restored->result());
}

// A served run over more than two chunks of EchelonFlows. At every boundary
// the release cursor stands at the first group of a job still running: it
// has released every finished job's group it can reach, and none of a
// running job's. Here jobs finish close to launch order, so the records
// still resident -- the held groups plus the released ones sharing the
// cursor's chunk -- never exceed the running jobs' groups plus one chunk.
// The release listener sees every group once, in creation order, and
// echelonflow.tardiness_s matches the histogram recorded when
// publish_metrics() named it service.tardiness_s and still scanned every
// group of a registry that released none.
TEST(RetainedState, RegistryReleasesFinishedGroupsInCreationOrder) {
  constexpr std::size_t kChunk = ChunkedStore<ef::EchelonFlow>::kChunk;
  obs::MetricsRegistry metrics;
  ServiceConfig cfg = make_config(ServiceSpec{});
  cfg.metrics = &metrics;
  ServiceLoop loop(cfg);
  loop.set_generator(std::make_unique<PoissonArrivalGenerator>(
      small_arrivals(83, /*jobs=*/180)));
  std::vector<bool> finished_group;  // by EchelonFlow id
  loop.set_finish_hook([&finished_group](std::size_t,
                                         const cluster::BuiltJob& built) {
    if (finished_group.size() < built.group_end) {
      finished_group.resize(built.group_end, false);
    }
    for (std::size_t g = built.group_begin; g < built.group_end; ++g) {
      finished_group[g] = true;
    }
  });
  std::vector<std::uint64_t> released_ids;
  loop.registry().add_release_listener(
      [&released_ids](const ef::EchelonFlow& h) {
        released_ids.push_back(h.id().value());
      });
  const ef::Registry& reg = std::as_const(loop).registry();
  std::size_t peak_resident = 0;
  while (loop.step()) {
    std::size_t first_running = 0;
    while (first_running < finished_group.size() &&
           finished_group[first_running]) {
      ++first_running;
    }
    EXPECT_EQ(reg.released(), std::min(first_running, reg.size()))
        << "boundary " << loop.steps_executed();
    std::size_t running_groups = reg.size();
    for (std::size_t g = 0; g < finished_group.size(); ++g) {
      if (finished_group[g]) --running_groups;
    }
    const std::size_t resident =
        reg.size() - reg.released() / kChunk * kChunk;
    EXPECT_LE(resident, running_groups + kChunk)
        << "boundary " << loop.steps_executed();
    peak_resident = std::max(peak_resident, resident);
  }
  ASSERT_GT(reg.size(), 2 * kChunk);
  EXPECT_LT(peak_resident, 2 * kChunk);
  EXPECT_EQ(reg.released(), reg.size());
  EXPECT_TRUE(reg.all().empty());
  ASSERT_EQ(released_ids.size(), reg.size());
  for (std::size_t g = 0; g < released_ids.size(); ++g) {
    ASSERT_EQ(released_ids[g], g);
  }

  loop.publish_metrics();
  const obs::Histogram& tard = metrics.histogram("echelonflow.tardiness_s");
  EXPECT_EQ(tard.count(), 1137u);
  EXPECT_EQ(tard.sum(), 0x1.ed2ad3b4babc6p+0);
  const std::vector<std::uint64_t> buckets = {
      0, 0, 0, 0, 224, 224, 64, 82, 80, 80, 94, 163, 89, 31, 6,
      0, 0, 0, 0, 0,   0,   0,  0,  0,  0,  0,  0,   0,  0};
  EXPECT_EQ(tard.counts(), buckets);
}

// Released flow record chunks: each contributes one digest to kVerify, so a
// save taken after several releases must restore (verification passes) and
// continue bit-identically.
TEST(RetainedState, SnapshotAfterChunkReleasesRestoresIdentically) {
  constexpr std::size_t kChunk = netsim::Simulator::kFlowChunk;
  const ServiceSpec spec;
  auto trace = small_arrivals(71, /*jobs=*/100);
  trace.iterations = 4;

  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_GT(reference.flow_finish.size(), 4 * kChunk);
  EXPECT_FALSE(whole->sim().flow_resident(FlowId{0}));

  auto prefix = make_loop(spec, trace);
  while (prefix->sim().flow_resident(FlowId{3 * kChunk - 1}) ||
         prefix->sim().flow_count() < 3 * kChunk) {
    ASSERT_TRUE(prefix->step());
  }
  const std::string bytes = save_snapshot(*prefix);
  prefix.reset();

  auto restored = restore_snapshot(bytes);
  EXPECT_FALSE(restored->sim().flow_resident(FlowId{3 * kChunk - 1}));
  restored->drain();
  expect_same_service_result(reference, restored->result());

  // The chunk digests are verified: corrupting one fails the restore.
  const std::string field = "flow_chunk[2].digest";
  const std::size_t at = bytes.find(field);
  ASSERT_NE(at, std::string::npos);
  std::string bad = bytes;
  bad[at + field.size()] ^= 0x01;  // low byte of the digest value
  try {
    (void)restore_snapshot(restamp(bad));
    ADD_FAILURE() << "a corrupt chunk digest restored without error";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + field + "' mismatch"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// 8. Flow finish record and the reported end
// ---------------------------------------------------------------------------

// FNV-1a over the size and the bit image of every finish time.
std::uint64_t finish_digest(const ServiceResult& r) {
  std::uint64_t h = fnv1a_word(kFnvOffset, r.flow_finish.size());
  for (const SimTime t : r.flow_finish) {
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(t));
  }
  return h;
}

// Each flow's finish as its flow listeners saw it, kTimeInfinity before:
// what ServiceResult::flow_finish must read. Attach before the loop steps.
class FinishWatch {
 public:
  explicit FinishWatch(ServiceLoop& loop) {
    loop.sim().add_flow_listener(
        [this](netsim::Simulator&, const netsim::Flow& f) {
          if (finish_.size() <= f.id.value()) {
            finish_.resize(f.id.value() + 1, kTimeInfinity);
          }
          finish_[f.id.value()] = f.finish_time;
        });
  }
  void expect_read_by(const ServiceResult& r, std::size_t flows) const {
    ASSERT_EQ(r.flow_finish.size(), flows);
    for (std::size_t i = 0; i < flows; ++i) {
      const SimTime want = i < finish_.size() ? finish_[i] : kTimeInfinity;
      ASSERT_EQ(r.flow_finish[i], want) << "flow " << i;
    }
  }

 private:
  std::vector<SimTime> finish_;
};

// True when some flow is parked at this boundary.
bool has_parked_flow(const ServiceLoop& loop) {
  for (std::size_t i = 0; i < loop.sim().flow_count(); ++i) {
    const FlowId id{i};
    if (loop.sim().flow_resident(id) && loop.sim().flow(id).parked()) {
      return true;
    }
  }
  return false;
}

// A result shares the loop's finish-time chunks; the loop clones a shared
// chunk before writing into it, so a result taken mid-run never changes.
TEST(FlowFinish, MidRunResultStaysFrozenWhileTheLoopRunsOn) {
  const ServiceSpec spec;
  const auto trace = small_arrivals(23, /*jobs=*/12);
  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();

  // Cut past the middle, at a boundary with flows in flight.
  auto loop = make_loop(spec, trace);
  while (loop->steps_executed() < reference.steps / 2 ||
         loop->sim().active_flow_count() == 0) {
    ASSERT_TRUE(loop->step());
  }
  const ServiceResult mid = loop->result();
  ASSERT_EQ(mid.flow_finish.size(), loop->sim().flow_count());
  const std::vector<SimTime> frozen(mid.flow_finish.begin(),
                                    mid.flow_finish.end());
  loop->drain();
  const ServiceResult last = loop->result();

  // Flows unfinished at the cut finished later, into the chunks `mid` holds.
  std::size_t finished_later = 0;
  for (std::size_t i = 0; i < frozen.size(); ++i) {
    if (frozen[i] == kTimeInfinity && last.flow_finish[i] != kTimeInfinity) {
      ++finished_later;
    }
  }
  ASSERT_GT(finished_later, 0u);
  for (std::size_t i = 0; i < frozen.size(); ++i) {
    ASSERT_EQ(mid.flow_finish[i], frozen[i]) << "flow " << i;
  }
  expect_same_service_result(reference, last);
}

// record_flow_finish = false drops the record and nothing else.
TEST(FlowFinish, RecordingOffLeavesEveryOtherFieldIdentical) {
  const auto built = eqh::run_cluster_fabric(FabricKind::kBigSwitch);
  const FaultPlan plan = service_chaos_plan(7, built.topo);
  for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    ServiceSpec spec;
    spec.plan = p;
    ServiceConfig off_config = make_config(spec);
    off_config.record_flow_finish = false;
    ServiceLoop off_loop(off_config);
    off_loop.set_generator(
        std::make_unique<PoissonArrivalGenerator>(small_arrivals(29, 6)));
    off_loop.drain();
    ServiceResult off = off_loop.result();

    auto on_loop = make_loop(spec, small_arrivals(29, 6));
    on_loop->drain();
    const ServiceResult on = on_loop->result();

    EXPECT_TRUE(off.flow_finish.empty());
    ASSERT_EQ(on.flow_finish.size(), on_loop->sim().flow_count());
    EXPECT_EQ(off.deadline_at_risk, on.deadline_at_risk);
    EXPECT_EQ(off.telemetry_flushes, on.telemetry_flushes);
    off.flow_finish = on.flow_finish;
    expect_same_service_result(on, off);
  }
}

// A snapshot carries record_flow_finish: a loop saved with recording off
// restores with it off, keeps no finish times and continues bit-identically
// to the uninterrupted run. (The resume tests above record.)
TEST(FlowFinish, RestoredLoopRecordsOnlyIfTheSavedOneDid) {
  ServiceConfig config = make_config(ServiceSpec{});
  config.record_flow_finish = false;
  const auto make = [&config] {
    auto loop = std::make_unique<ServiceLoop>(config);
    loop->set_generator(
        std::make_unique<PoissonArrivalGenerator>(small_arrivals(31, 8)));
    return loop;
  };
  auto whole = make();
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_TRUE(reference.flow_finish.empty());

  auto prefix = make();
  while (prefix->steps_executed() < reference.steps / 2) {
    ASSERT_TRUE(prefix->step());
  }
  auto restored = restore_snapshot(save_snapshot(*prefix));
  EXPECT_FALSE(restored->config().record_flow_finish);
  restored->drain();
  const ServiceResult resumed = restored->result();
  EXPECT_TRUE(resumed.flow_finish.empty());
  expect_same_service_result(reference, resumed);
}

// The record reads what Simulator::finish_time() read before the record
// left the Simulator: the completion instant, kTimeInfinity until then.
// Each digest was recorded from that Simulator-side store.
TEST(FlowFinish, ReadsAsTheSimulatorRecordDid) {
  const auto built = eqh::run_cluster_fabric(FabricKind::kBigSwitch);
  const FaultPlan plan = service_chaos_plan(7, built.topo);

  {  // Under one chunk of flows.
    auto loop = make_loop(ServiceSpec{}, small_arrivals(17));
    const FinishWatch watch(*loop);
    loop->drain();
    const ServiceResult r = loop->result();
    ASSERT_LT(r.flow_finish.size(), kFinishChunk);
    watch.expect_read_by(r, loop->sim().flow_count());
    EXPECT_EQ(finish_digest(r), 0x6bb9fc7a29926eabULL);
  }
  {  // Link faults park flows: a parked flow reads kTimeInfinity.
    ServiceSpec spec;
    spec.plan = &plan;
    auto loop = make_loop(spec, small_arrivals(41, 8));
    const FinishWatch watch(*loop);
    bool saw_parked = false;
    while (loop->step()) {
      if (saw_parked || !has_parked_flow(*loop)) continue;
      saw_parked = true;
      const ServiceResult mid = loop->result();
      watch.expect_read_by(mid, loop->sim().flow_count());
      for (std::size_t i = 0; i < mid.flow_finish.size(); ++i) {
        const FlowId id{i};
        if (loop->sim().flow_resident(id) && loop->sim().flow(id).parked()) {
          EXPECT_EQ(mid.flow_finish[i], kTimeInfinity) << "flow " << i;
        }
      }
    }
    ASSERT_TRUE(saw_parked);
    loop->drain();
    const ServiceResult r = loop->result();
    watch.expect_read_by(r, loop->sim().flow_count());
    EXPECT_EQ(finish_digest(r), 0x5f0645aa28c9b1f7ULL);
  }
  {  // Restored from a mid-run snapshot: replay rebuilds the record.
    ServiceSpec spec;
    spec.plan = &plan;
    auto whole = make_loop(spec, small_arrivals(41, 8));
    whole->drain();
    const ServiceResult reference = whole->result();
    const ServiceResult resumed = run_with_snapshot_at(
        spec, small_arrivals(41, 8), reference.steps / 2);
    expect_same_service_result(reference, resumed);
    EXPECT_EQ(finish_digest(resumed), 0x5f0645aa28c9b1f7ULL);
  }
}

// ServiceResult::end is the last job completion, not where the last tick
// left the simulator.
TEST(ServiceResultEnd, IsTheLastJobCompletion) {
  const ServiceSpec spec;
  auto loop = make_loop(spec, small_arrivals(17));
  const SimTime stopped = loop->drain();
  const ServiceResult r = loop->result();
  ASSERT_GT(r.completed, 0u);
  SimTime last = 0.0;
  for (const service::ServiceJobRecord& job : r.jobs) {
    last = std::max(last, job.finish);
  }
  EXPECT_BITEQ(r.end, last);
  EXPECT_GE(stopped, r.end);

  ServiceLoop idle(make_config(spec));
  idle.drain();
  EXPECT_EQ(idle.result().end, 0.0);
}

// A fabric build_fabric rejects fails the constructor. A zero or negative
// port capacity or oversubscription would stall every flow and hang drain().
TEST(ServiceConfigCheck, RejectsFabricItCannotBuild) {
  const auto rejects = [](const ServiceConfig& c) {
    try {
      ServiceLoop loop(c);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  ServiceConfig c;
  c.port_capacity = 0.0;
  EXPECT_TRUE(rejects(c));
  c.port_capacity = -gbps(1);
  EXPECT_TRUE(rejects(c));
  c = ServiceConfig{};
  c.hosts = 1;
  EXPECT_TRUE(rejects(c));
  c = ServiceConfig{};
  c.fabric = FabricKind::kLeafSpine;
  c.oversubscription = -2.0;
  EXPECT_TRUE(rejects(c));
  c.oversubscription = 2.0;
  c.hosts = 12;
  EXPECT_TRUE(rejects(c));
  c.hosts = 16;
  EXPECT_FALSE(rejects(c));
}

// A job wider than the fabric is refused at launch by the placement rule
// run_experiment uses, with the same exception and message; the job
// launched before it stands.
TEST(ServiceConfigCheck, RejectsJobWiderThanFabricLikeRunExperiment) {
  std::vector<Arrival> arrivals = simultaneous_arrivals(2, 0.5);
  arrivals[1].job.ranks = 17;
  const auto refusal = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "<accepted>";
  };
  cluster::ExperimentConfig batch;
  batch.hosts = 16;
  batch.port_capacity = gbps(25);
  const std::vector<cluster::JobSpec> jobs = {arrivals[0].job,
                                              arrivals[1].job};
  const std::string batch_what =
      refusal([&] { (void)cluster::run_experiment(jobs, batch); });
  EXPECT_EQ(batch_what, "job needs 17 ranks but the fabric has 16 hosts");

  ServiceLoop loop(make_config(ServiceSpec{}));
  loop.set_generator(std::make_unique<VectorArrivalGenerator>(arrivals));
  EXPECT_EQ(refusal([&] { loop.drain(); }), batch_what);
  EXPECT_EQ(loop.launched(), 1u);
}

}  // namespace
}  // namespace echelon
