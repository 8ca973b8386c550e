// Service-plane telemetry suite (DESIGN.md §15, EXPERIMENTS.md EXT-T).
//
// The telemetry layer promises to be a pure *observer* of the service loop:
//
//   1. Telemetry-on vs telemetry-off bit identity: every deterministic
//      ServiceResult field and the whole trace stream are unchanged by any
//      combination of flusher / SLO tracker / flight recorder / run-level
//      series budget, across the scheduler x fabric x chaos matrix. The
//      telemetry registry keeps current values only: no series, and the
//      same instruments however many flushes have run.
//   2. Snapshot/restore mid-flush-window: the restored loop resumes the
//      flusher, SLO window, and flight ring exactly -- the Prometheus
//      exposition, SLO digest, and ring digest of a restored-then-drained
//      run match the uninterrupted run byte/bit-for-bit. Periodic saves
//      inject kSnapshot ring markers; later snapshots must still restore.
//   3. Chunked trace streaming: ECHCHUNK chunks merged back through
//      obs::merge_trace_chunks reproduce a byte-identical Perfetto trace.
//   4. SLO tracker unit behaviour: spec parsing, burn-rate / error-budget
//      arithmetic, rolling-window expiry, zero-budget edge.
//   5. Flight recorder: dump -> parse round-trip (exact doubles, notes with
//      spaces), ring overflow accounting, restore().
//   6. Seeded fuzz over SLO configurations and cut points
//      (ECHELON_SLO_SEEDS overrides the budget; sanitizer legs reduce it).
//
// Single translation unit: equivalence_harness.hpp defines the global
// allocation hook (see its header comment).

#include "equivalence_harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/expose.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/slo.hpp"
#include "service/snapshot.hpp"

namespace echelon {
namespace {

using cluster::FabricKind;
using cluster::SchedulerKind;
using faultsim::ChaosProfile;
using faultsim::FaultPlan;
using service::parse_slo_spec;
using service::PoissonArrivalGenerator;
using service::restore_snapshot;
using service::RestoreOptions;
using service::save_snapshot;
using service::ServiceConfig;
using service::ServiceLoop;
using service::ServiceResult;
using service::SloConfig;
using service::SloGauges;
using service::SloKind;
using service::SloObjective;
using service::SloTracker;
using service::TelemetryConfig;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct TelSpec {
  SchedulerKind scheduler = SchedulerKind::kEchelonMadd;
  FabricKind fabric = FabricKind::kBigSwitch;
  const FaultPlan* plan = nullptr;
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  // run-level registry
  TelemetryConfig telemetry;
};

ServiceConfig make_config(const TelSpec& s) {
  ServiceConfig c = eqh::run_config(
      {.scheduler = s.scheduler, .fabric = s.fabric, .plan = s.plan,
       .trace_sink = s.sink, .metrics = s.metrics});
  c.telemetry = s.telemetry;
  c.record_flow_finish = true;  // results compare every flow's finish time
  return c;
}

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

std::unique_ptr<ServiceLoop> make_loop(const TelSpec& spec,
                                       const cluster::TraceConfig& trace) {
  auto loop = std::make_unique<ServiceLoop>(make_config(spec));
  loop->set_generator(std::make_unique<PoissonArrivalGenerator>(trace, 0));
  return loop;
}

// Everything on: periodic flusher, SLO tracker, flight ring.
TelemetryConfig full_telemetry() {
  TelemetryConfig t;
  t.metrics_every = 0.05;
  t.flightrec_capacity = 128;
  t.slo.window = 0.5;
  t.slo.objectives = {
      SloObjective{SloKind::kJct, 0.5, 0.1},
      SloObjective{SloKind::kQueueWait, 0.05, 0.2},
      SloObjective{SloKind::kTardiness, 0.2, 0.05},
  };
  return t;
}

// The deterministic scheduling outcome, compared to the bit. Telemetry
// annotations (telemetry_flushes, deadline_at_risk) are deliberately NOT
// here: they exist only when telemetry is on, and the invariant under test
// is that everything *else* is unchanged by it.
void expect_same_outcome(const ServiceResult& a, const ServiceResult& b) {
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
    EXPECT_BITEQ(a.jobs[j].submitted, b.jobs[j].submitted) << "job " << j;
    EXPECT_BITEQ(a.jobs[j].started, b.jobs[j].started) << "job " << j;
    EXPECT_BITEQ(a.jobs[j].finish, b.jobs[j].finish) << "job " << j;
    EXPECT_EQ(a.jobs[j].finished, b.jobs[j].finished) << "job " << j;
  }
}

void expect_same_trace(const obs::TraceRecorder& a,
                       const obs::TraceRecorder& b) {
  EXPECT_EQ(a.recorded(), b.recorded());
  const std::vector<obs::TraceEvent> ea = a.events();
  const std::vector<obs::TraceEvent> eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
    EXPECT_BITEQ(ea[i].t, eb[i].t) << "event " << i;
    EXPECT_EQ(ea[i].id, eb[i].id) << "event " << i;
    EXPECT_EQ(ea[i].job, eb[i].job) << "event " << i;
    EXPECT_EQ(ea[i].ctx, eb[i].ctx) << "event " << i;
    EXPECT_BITEQ(ea[i].value, eb[i].value) << "event " << i;
  }
}

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


// ---------------------------------------------------------------------------
// 1. Telemetry-on vs telemetry-off bit identity
// ---------------------------------------------------------------------------

TEST(TelemetryIdentity, OnVsOffAcrossMatrix) {
  for (const SchedulerKind sched :
       {SchedulerKind::kEchelonMadd, SchedulerKind::kSincronia}) {
    for (const FabricKind fabric :
         {FabricKind::kBigSwitch, FabricKind::kLeafSpine}) {
      for (const bool chaos : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "sched=" << static_cast<int>(sched)
                     << " fabric=" << static_cast<int>(fabric)
                     << " chaos=" << chaos);
        const auto built = eqh::run_cluster_fabric(fabric);
        const FaultPlan plan = service_chaos_plan(7, built.topo);
        const auto trace = small_arrivals(11);

        obs::TraceRecorder off_trace;
        TelSpec off;
        off.scheduler = sched;
        off.fabric = fabric;
        off.plan = chaos ? &plan : nullptr;
        off.sink = &off_trace;
        auto off_loop = make_loop(off, trace);
        off_loop->drain();

        obs::TraceRecorder on_trace;
        TelSpec on = off;
        on.sink = &on_trace;
        on.telemetry = full_telemetry();
        auto on_loop = make_loop(on, trace);
        on_loop->drain();

        expect_same_outcome(off_loop->result(), on_loop->result());
        expect_same_trace(off_trace, on_trace);
        EXPECT_GT(on_loop->telemetry_flushes(), 0u);
        EXPECT_EQ(off_loop->telemetry_flushes(), 0u);
      }
    }
  }
}

TEST(TelemetryIdentity, EachKnobAloneIsInert) {
  const auto trace = small_arrivals(13);
  TelSpec off;
  auto reference = make_loop(off, trace);
  reference->drain();
  const ServiceResult ref = reference->result();

  for (int knob = 0; knob < 4; ++knob) {
    SCOPED_TRACE(::testing::Message() << "knob " << knob);
    TelSpec on;
    // Knob 3 decimates the run-level series under telemetry: a budget of 4
    // on the registry the Simulator samples at every control pass.
    obs::MetricsRegistry capped;
    capped.set_series_budget(4);
    switch (knob) {
      case 0: on.telemetry.metrics_every = 0.02; break;
      case 1: on.telemetry.slo = full_telemetry().slo; break;
      case 2: on.telemetry.flightrec_capacity = 16; break;
      case 3:
        on.telemetry.metrics_every = 0.02;
        on.metrics = &capped;
        break;
    }
    auto loop = make_loop(on, trace);
    loop->drain();
    expect_same_outcome(ref, loop->result());
    if (knob == 3) {
      EXPECT_GT(capped.series("sim.active_flows").total_samples(), 4u);
      for (const auto& ser : capped.snapshot().series) {
        EXPECT_LE(ser.points.size(), 4u) << ser.name;
      }
    }
  }
}

// Flush-time values are gauges: the telemetry registry holds no series, and
// after 2N flushes it has exactly the instruments it had after N, so its
// size follows the fabric and the SLO objectives, not the run's length.
TEST(TelemetryState, RegistryKeepsCurrentValuesNotHistory) {
  const auto trace = small_arrivals(29, /*jobs=*/20);
  TelSpec spec;
  spec.telemetry = full_telemetry();
  spec.telemetry.metrics_every = 0.01;  // at most one flush per step
  auto loop = make_loop(spec, trace);
  const auto names = [](const obs::MetricsSnapshot& s) {
    std::vector<std::string> out;
    for (const auto& [name, v] : s.counters) out.push_back(name);
    for (const auto& [name, v] : s.gauges) out.push_back(name);
    for (const auto& h : s.histograms) out.push_back(h.name);
    for (const auto& ser : s.series) out.push_back(ser.name);
    return out;
  };
  // Count from the first completion, which registers the per-job
  // histograms.
  while (loop->completed() == 0) ASSERT_TRUE(loop->step());
  constexpr std::uint64_t kN = 8;
  const std::uint64_t base = loop->telemetry_flushes();
  while (loop->telemetry_flushes() < base + kN) ASSERT_TRUE(loop->step());
  const obs::MetricsSnapshot at_n = loop->telemetry_snapshot();
  while (loop->telemetry_flushes() < base + 2 * kN) {
    ASSERT_TRUE(loop->step());
  }
  const obs::MetricsSnapshot at_2n = loop->telemetry_snapshot();

  EXPECT_TRUE(at_n.series.empty());
  EXPECT_TRUE(at_2n.series.empty());
  EXPECT_EQ(names(at_n), names(at_2n));
  EXPECT_NE(at_2n.find_gauge("service.queue_depth"), nullptr);
  EXPECT_NE(at_2n.find_gauge("service.link.0.util"), nullptr);
  EXPECT_NE(at_2n.find_histogram("service.jct_s"), nullptr);
}

// Attaching output writers (the only wall-world side effects) must not
// change anything either: same run with and without a PromWriter target.
TEST(TelemetryIdentity, OutputAttachmentIsInert) {
  const auto trace = small_arrivals(19);
  TelSpec spec;
  spec.telemetry = full_telemetry();

  auto silent = make_loop(spec, trace);
  silent->drain();

  const std::string path = ::testing::TempDir() + "/tel_prom.txt";
  obs::PromWriter prom(path, /*rotate_keep=*/1);
  auto writing = make_loop(spec, trace);
  writing->attach_telemetry_outputs(
      {.prom = &prom, .chunk = nullptr, .flightrec_path = ""});
  writing->drain();

  expect_same_outcome(silent->result(), writing->result());
  EXPECT_EQ(silent->prom_exposition(), writing->prom_exposition());
  EXPECT_EQ(prom.writes(), writing->telemetry_flushes());
}

// ---------------------------------------------------------------------------
// 2. Snapshot/restore resumes telemetry exactly
// ---------------------------------------------------------------------------

TEST(TelemetrySnapshot, MidWindowRestoreMatchesUninterrupted) {
  const auto trace = small_arrivals(23, /*jobs=*/10);
  TelSpec spec;
  spec.telemetry = full_telemetry();

  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();
  ASSERT_GT(whole->telemetry_flushes(), 2u);
  const std::string ref_prom = whole->prom_exposition();
  ASSERT_NE(whole->slo(), nullptr);
  ASSERT_NE(whole->flight(), nullptr);
  const std::uint64_t ref_slo = whole->slo()->digest();
  const std::uint64_t ref_ring = whole->flight()->ring_digest();

  for (const std::uint64_t cut : {1u, 5u, 13u, 40u}) {
    SCOPED_TRACE(::testing::Message() << "cut " << cut);
    auto prefix = make_loop(spec, trace);
    for (std::uint64_t k = 0; k < cut; ++k) {
      if (!prefix->step()) break;
    }
    const std::string bytes = save_snapshot(*prefix);
    prefix.reset();
    auto restored = restore_snapshot(bytes);
    restored->drain();
    expect_same_outcome(reference, restored->result());
    EXPECT_EQ(whole->telemetry_flushes(), restored->telemetry_flushes());
    EXPECT_EQ(ref_prom, restored->prom_exposition());
    ASSERT_NE(restored->slo(), nullptr);
    ASSERT_NE(restored->flight(), nullptr);
    EXPECT_EQ(ref_slo, restored->slo()->digest());
    EXPECT_EQ(ref_ring, restored->flight()->ring_digest());
  }
}

// A loop restored from a mid-run snapshot still has jobs to run, so its
// control passes sample the run-level series again. A budget on the
// restore's registry caps them, as `serve --snapshot-in --series-budget`
// applies it; without one the same restore samples past it. The telemetry
// registry has no series to cap.
TEST(TelemetrySnapshot, MidRunRestoreCapsTheRunLevelSeries) {
  constexpr std::size_t kBudget = 16;
  const auto trace = small_arrivals(23, /*jobs=*/10);
  TelSpec spec;
  spec.telemetry.metrics_every = 0.01;

  // Cut at the first boundary past the run's midpoint with a job running.
  auto whole = make_loop(spec, trace);
  whole->drain();
  const std::uint64_t half = whole->steps_executed() / 2;
  auto prefix = make_loop(spec, trace);
  while (prefix->steps_executed() < half || prefix->running() == 0) {
    ASSERT_TRUE(prefix->step());
  }
  const std::string bytes = save_snapshot(*prefix);

  // Longest run-level series a restore samples, with `budget` applied to
  // its registry the way the CLI applies --series-budget.
  const auto longest_series = [&](std::size_t budget) {
    obs::MetricsRegistry metrics;
    metrics.set_series_budget(budget);
    auto restored = restore_snapshot(bytes, {.metrics = &metrics});
    restored->drain();
    EXPECT_TRUE(restored->telemetry_snapshot().series.empty());
    std::size_t longest = 0;
    for (const auto& ser : metrics.snapshot().series) {
      longest = std::max(longest, ser.points.size());
    }
    return longest;
  };
  const std::size_t capped = longest_series(kBudget);
  EXPECT_GT(capped, 0u);
  EXPECT_LE(capped, kBudget);
  EXPECT_GT(longest_series(0), kBudget);
}

// Periodic saves leave kSnapshot markers in the live ring; a later snapshot
// must serialize that ring verbatim and restore it (replay alone cannot
// reproduce the markers).
TEST(TelemetrySnapshot, RingWithSnapshotMarkersRoundTrips) {
  const auto trace = small_arrivals(23, /*jobs=*/10);
  TelSpec spec;
  spec.telemetry = full_telemetry();

  auto loop = make_loop(spec, trace);
  for (int k = 0; k < 6; ++k) ASSERT_TRUE(loop->step());
  (void)save_snapshot(*loop);
  loop->note_snapshot();  // marker for the first save
  for (int k = 0; k < 6; ++k) ASSERT_TRUE(loop->step());
  const std::string bytes = save_snapshot(*loop);
  ASSERT_NE(loop->flight(), nullptr);
  const std::uint64_t marked_ring = loop->flight()->ring_digest();
  EXPECT_EQ(loop->flight()->count(obs::FlightKind::kSnapshot), 1u);

  auto restored = restore_snapshot(bytes);
  ASSERT_NE(restored->flight(), nullptr);
  EXPECT_EQ(marked_ring, restored->flight()->ring_digest());
  EXPECT_EQ(restored->flight()->count(obs::FlightKind::kSnapshot), 1u);
  restored->drain();

  loop->drain();
  expect_same_outcome(loop->result(), restored->result());
  EXPECT_EQ(loop->prom_exposition(), restored->prom_exposition());
  EXPECT_EQ(loop->flight()->ring_digest(), restored->flight()->ring_digest());
}

// A snapshot taken by a telemetry-off run stays restorable, and a flipped
// telemetry byte in the config section fails loudly.
TEST(TelemetrySnapshot, TelemetryOffSnapshotStillRoundTrips) {
  const auto trace = small_arrivals(29);
  const TelSpec spec;  // telemetry off
  auto whole = make_loop(spec, trace);
  whole->drain();
  const ServiceResult reference = whole->result();

  auto prefix = make_loop(spec, trace);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(prefix->step());
  const std::string bytes = save_snapshot(*prefix);
  auto restored = restore_snapshot(bytes);
  restored->drain();
  expect_same_outcome(reference, restored->result());
  EXPECT_EQ(restored->telemetry_flushes(), 0u);
  EXPECT_EQ(restored->flight(), nullptr);
  EXPECT_EQ(restored->slo(), nullptr);
}

// ---------------------------------------------------------------------------
// 3. Chunked trace streaming == whole-run trace
// ---------------------------------------------------------------------------

TEST(TelemetryChunks, MergedChunksReproducePerfettoByteIdentical) {
  const auto trace = small_arrivals(31);

  // Reference: the whole trace in one in-memory recorder.
  obs::TraceRecorder whole;
  TelSpec ref_spec;
  ref_spec.sink = &whole;
  ref_spec.telemetry.metrics_every = 0.05;
  auto ref_loop = make_loop(ref_spec, trace);
  ref_loop->drain();
  ref_loop->flush_now();

  // Chunked: the chunk writer is the sink, flushed at every boundary.
  std::ostringstream chunk_bytes;
  obs::TraceChunkWriter writer(chunk_bytes);
  TelSpec chunk_spec;
  chunk_spec.sink = &writer;
  chunk_spec.telemetry.metrics_every = 0.05;
  auto chunk_loop = make_loop(chunk_spec, trace);
  chunk_loop->attach_telemetry_outputs(
      {.prom = nullptr, .chunk = &writer, .flightrec_path = ""});
  chunk_loop->drain();
  chunk_loop->flush_now();

  expect_same_outcome(ref_loop->result(), chunk_loop->result());
  EXPECT_GT(writer.chunks(), 1u);
  EXPECT_EQ(writer.total_events(), whole.recorded());

  // Merge the chunk stream back and compare the final Perfetto bytes.
  obs::TraceRecorder merged;
  std::istringstream in(chunk_bytes.str());
  EXPECT_EQ(obs::merge_trace_chunks(in, merged), whole.recorded());
  expect_same_trace(whole, merged);

  std::ostringstream ref_json;
  std::ostringstream merged_json;
  obs::write_perfetto_trace(ref_json, whole, nullptr, {});
  obs::write_perfetto_trace(merged_json, merged, nullptr, {});
  EXPECT_EQ(ref_json.str(), merged_json.str());
}

TEST(TelemetryChunks, TruncatedChunkStreamFailsLoudly) {
  std::ostringstream bytes;
  obs::TraceChunkWriter writer(bytes);
  writer.record(obs::TraceEvent{});
  (void)writer.flush();
  const std::string whole = bytes.str();
  obs::TraceRecorder sink;
  std::istringstream truncated(whole.substr(0, whole.size() / 2));
  EXPECT_THROW((void)obs::merge_trace_chunks(truncated, sink),
               std::runtime_error);
  std::istringstream garbage("ECHGARBAGE 1\n");
  EXPECT_THROW((void)obs::merge_trace_chunks(garbage, sink),
               std::runtime_error);
  // The last kind merges; the first value past it (the retired sched_pass
  // or anything later) does not.
  const std::string last_kind = std::to_string(obs::kTraceKindCount - 1);
  const std::string past_last = std::to_string(obs::kTraceKindCount);
  std::istringstream last("ECHCHUNK 1\nE " + last_kind + " 0 0 0 0 0\n");
  EXPECT_EQ(obs::merge_trace_chunks(last, sink), 1u);
  std::istringstream retired("ECHCHUNK 1\nE " + past_last + " 0 0 0 0 0\n");
  EXPECT_THROW((void)obs::merge_trace_chunks(retired, sink),
               std::runtime_error);
  // Every field is one whole token: partial numbers, signs, trailing
  // content and "0x" prefixes on the hex bit images all fail.
  const std::string e = "E " + last_kind;
  for (const std::string& bad : {
           "ECHCHUNK 1x\n" + e + " 0 0 0 0 0\n",
           "ECHCHUNK +1\n" + e + " 0 0 0 0 0\n",
           "ECHCHUNK 1 trailing\n" + e + " 0 0 0 0 0\n",
           "ECHCHUNK 1\n" + e + " 0 0 0 0 0 junk\n",
           "ECHCHUNK 1\n" + e + " 0 -1 0 0 0\n",
           "ECHCHUNK 1\n" + e + " 0 +1 0 0 0\n",
           "ECHCHUNK 1\n" + e + " 0x0 0 0 0 0\n",
           "ECHCHUNK 1\n" + e + " 0 0 0 0 0x\n",
       }) {
    std::istringstream in(bad);
    EXPECT_THROW((void)obs::merge_trace_chunks(in, sink), std::runtime_error)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// 4. SLO tracker
// ---------------------------------------------------------------------------

TEST(Slo, SpecParsing) {
  std::string err;
  const auto parsed =
      parse_slo_spec("jct<=2.0@0.1,queue_wait<=0.5@0.2,tardiness<=1@0", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].kind, SloKind::kJct);
  EXPECT_BITEQ((*parsed)[0].threshold, 2.0);
  EXPECT_BITEQ((*parsed)[0].budget, 0.1);
  EXPECT_EQ((*parsed)[1].kind, SloKind::kQueueWait);
  EXPECT_EQ((*parsed)[2].kind, SloKind::kTardiness);
  EXPECT_BITEQ((*parsed)[2].budget, 0.0);

  // Empty segments (trailing / doubled commas) are tolerated, not errors:
  // the parser only rejects malformed non-empty objectives.
  err.clear();
  const auto trailing = parse_slo_spec("jct<=1@0.1,,", &err);
  ASSERT_TRUE(trailing.has_value()) << err;
  EXPECT_EQ(trailing->size(), 1u);

  for (const char* bad :
       {"", "jct<=x@0.1", "bogus<=1@0.1", "jct<=1@1.5", "jct<=1", ",,",
        "jct<=nan@0.1", "jct<=inf@0.1", "jct<=1@nan"}) {
    SCOPED_TRACE(bad);
    err.clear();
    EXPECT_FALSE(parse_slo_spec(bad, &err).has_value());
    EXPECT_FALSE(err.empty());
  }

  // JCT, queue wait and tardiness are never negative, so a negative
  // threshold would flag every completion; the message names the objective.
  for (const char* negative :
       {"jct<=-1@0.1", "queue_wait<=-0.5@0.2", "jct<=1@0.1,tardiness<=-2@0"}) {
    SCOPED_TRACE(negative);
    err.clear();
    EXPECT_FALSE(parse_slo_spec(negative, &err).has_value());
    EXPECT_NE(err.find("negative threshold"), std::string::npos) << err;
  }
  err.clear();
  EXPECT_FALSE(parse_slo_spec("tardiness<=-2@0", &err).has_value());
  EXPECT_NE(err.find("'tardiness<=-2@0'"), std::string::npos) << err;
  const auto zero = parse_slo_spec("queue_wait<=0@0.1", &err);
  ASSERT_TRUE(zero.has_value()) << err;
  EXPECT_BITEQ((*zero)[0].threshold, 0.0);
}

TEST(Slo, BurnRateArithmetic) {
  SloConfig cfg;
  cfg.window = 10.0;
  cfg.objectives = {SloObjective{SloKind::kJct, 1.0, 0.25}};
  SloTracker tracker(cfg);

  // 4 completions, 1 violation -> rate 0.25 == budget -> burn rate 1.
  const double good[service::kSloKindCount] = {0.5, 0.0, 0.0};
  const double bad[service::kSloKindCount] = {2.0, 0.0, 0.0};
  tracker.on_completion(0.0, good);
  tracker.on_completion(1.0, good);
  tracker.on_completion(2.0, good);
  tracker.on_completion(3.0, bad);
  tracker.on_boundary(4.0, nullptr);
  const SloGauges g = tracker.gauges(0);
  EXPECT_EQ(g.total, 4u);
  EXPECT_EQ(g.violations, 1u);
  EXPECT_BITEQ(g.burn_rate, 1.0);
  EXPECT_BITEQ(g.error_budget, 0.0);
}

TEST(Slo, WindowExpiryDropsOldSamples) {
  SloConfig cfg;
  cfg.window = 1.0;
  cfg.objectives = {SloObjective{SloKind::kJct, 1.0, 0.5}};
  SloTracker tracker(cfg);
  const double bad[service::kSloKindCount] = {2.0, 0.0, 0.0};
  const double good[service::kSloKindCount] = {0.1, 0.0, 0.0};
  tracker.on_completion(0.0, bad);
  tracker.on_completion(1.5, good);
  tracker.on_boundary(1.6, nullptr);  // the t=0 violation fell out
  const SloGauges g = tracker.gauges(0);
  EXPECT_EQ(g.total, 1u);
  EXPECT_EQ(g.violations, 0u);
  EXPECT_BITEQ(g.burn_rate, 0.0);
  EXPECT_BITEQ(g.error_budget, 1.0);
  EXPECT_EQ(tracker.total_samples(), 2u);  // cumulative, not windowed
}

TEST(Slo, ZeroBudgetBurnsHardOnAnyViolation) {
  SloConfig cfg;
  cfg.objectives = {SloObjective{SloKind::kTardiness, 0.0, 0.0}};
  SloTracker tracker(cfg);
  const double bad[service::kSloKindCount] = {0.0, 0.0, 1.0};
  tracker.on_completion(0.0, bad);
  tracker.on_boundary(0.1, nullptr);
  const SloGauges g = tracker.gauges(0);
  EXPECT_EQ(g.violations, 1u);
  EXPECT_BITEQ(g.burn_rate, 1e9);
  EXPECT_BITEQ(g.error_budget, 0.0);
}

TEST(Slo, EmptyWindowReportsFullBudget) {
  SloConfig cfg;
  cfg.objectives = {SloObjective{SloKind::kJct, 1.0, 0.1}};
  SloTracker tracker(cfg);
  tracker.on_boundary(5.0, nullptr);
  const SloGauges g = tracker.gauges(0);
  EXPECT_EQ(g.total, 0u);
  EXPECT_BITEQ(g.error_budget, 1.0);
  EXPECT_BITEQ(g.burn_rate, 0.0);
}

TEST(Slo, DeadlineAtRiskLatchesOnSlowJobs) {
  const auto trace = small_arrivals(37);
  TelSpec spec;
  spec.telemetry.metrics_every = 0.02;
  spec.telemetry.slo.objectives = {
      SloObjective{SloKind::kJct, 1e-6, 0.5}};  // everything is at risk
  auto loop = make_loop(spec, trace);
  loop->drain();
  const ServiceResult r = loop->result();
  // Risk is evaluated at flush boundaries and only latches on jobs still
  // in flight, so jobs completing between two flushes escape the flag; with
  // a 1e-6 threshold anything alive across a boundary must be caught.
  EXPECT_GE(r.deadline_at_risk, 1u);
  EXPECT_LE(r.deadline_at_risk, r.launched);
  std::uint64_t flagged = 0;
  for (const auto& j : r.jobs) flagged += j.deadline_at_risk ? 1 : 0;
  EXPECT_EQ(flagged, r.deadline_at_risk);
}

// With objectives set, a window that is not a finite positive number would
// expire every sample at once and pin the burn-rate gauges at 0, so the
// constructor refuses it. Without objectives the window is never read.
TEST(Slo, NonPositiveWindowIsRejected) {
  TelSpec spec;
  spec.telemetry.slo.objectives = {SloObjective{SloKind::kJct, 1.0, 0.1}};
  for (const double window : {0.0, -1.0, std::nan(""), kTimeInfinity}) {
    spec.telemetry.slo.window = window;
    EXPECT_THROW(ServiceLoop{make_config(spec)}, std::invalid_argument)
        << "window " << window;
  }
  spec.telemetry.slo.window = 0.5;
  EXPECT_NO_THROW(ServiceLoop{make_config(spec)});
  spec.telemetry.slo.objectives.clear();
  spec.telemetry.slo.window = -1.0;
  EXPECT_NO_THROW(ServiceLoop{make_config(spec)});
}

// ---------------------------------------------------------------------------
// 5. Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpParseRoundTrip) {
  obs::FlightRecorder rec(8);
  rec.record(obs::FlightKind::kAdmit, 0.0, 0, 0);
  rec.record(obs::FlightKind::kLaunch, 0x1.fffffffffffffp-2, 0, 1);
  rec.record(obs::FlightKind::kError, 1.0 / 3.0, 7, 9,
             "note with several spaces");
  const std::string text = rec.dump_string();

  std::istringstream in(text);
  const obs::ParsedFlightDump parsed = obs::parse_flight_dump(in);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.capacity, 8u);
  EXPECT_EQ(parsed.recorded, 3u);
  const std::vector<obs::FlightEvent> events = rec.events();
  ASSERT_EQ(parsed.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.events[i], events[i]) << "event " << i;
  }
  for (int k = 0; k < obs::kFlightKindCount; ++k) {
    EXPECT_EQ(parsed.counts[k],
              rec.count(static_cast<obs::FlightKind>(k)))
        << "kind " << k;
  }
}

TEST(FlightRecorder, OverflowKeepsNewestAndExactCounts) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(obs::FlightKind::kAdmit, static_cast<double>(i),
               static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.count(obs::FlightKind::kAdmit), 10u);
  const std::vector<obs::FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);
  EXPECT_EQ(events.back().a, 9u);
}

TEST(FlightRecorder, RestoreReproducesDigest) {
  obs::FlightRecorder rec(6);
  for (int i = 0; i < 9; ++i) {
    rec.record(obs::FlightKind::kFlush, 0.1 * i, static_cast<std::uint64_t>(i),
               0, i % 2 == 0 ? "even" : "");
  }
  std::vector<std::uint64_t> counts;
  for (int k = 0; k < obs::kFlightKindCount; ++k) {
    counts.push_back(rec.count(static_cast<obs::FlightKind>(k)));
  }
  obs::FlightRecorder copy(6);
  copy.restore(rec.recorded(), counts, rec.events());
  EXPECT_EQ(copy.ring_digest(), rec.ring_digest());
  EXPECT_EQ(copy.events(), rec.events());

  obs::FlightRecorder small(2);
  EXPECT_THROW(small.restore(rec.recorded(), counts, rec.events()),
               std::invalid_argument);
}

TEST(FlightRecorder, ParserRejectsMalformedDumps) {
  for (const char* bad :
       {"", "ECHFLIGHT 2\n", "ECHFLIGHT 1\ncapacity x\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=1\n"
        "E admit 0 0 0\n",  // missing END
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts bogus=1\nEND\n",
        "ECHFLIGHT 1\ncapacity 1\nrecorded 2\ncounts admit=2\n"
        "E admit 0 0 0\nE admit 1 1 0\nEND\n",  // over capacity
        // Malformed numbers: trailing junk, a sign that would wrap an
        // unsigned field, an empty count and a non-finite time.
        "ECHFLIGHT 1\ncapacity 4x\nrecorded 1\ncounts admit=1\nEND\n",
        "ECHFLIGHT 1\ncapacity -1\nrecorded 1\ncounts admit=1\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1z\ncounts admit=1\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=1q\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=1\n"
        "E admit 0.5x 0 0\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=1\n"
        "E admit nan 0 0\nEND\n",
        "ECHFLIGHT 1\ncapacity 4\nrecorded 1\ncounts admit=1\n"
        "E admit 0 -1 0\nEND\n"}) {
    SCOPED_TRACE(bad);
    std::istringstream in(bad);
    const obs::ParsedFlightDump parsed = obs::parse_flight_dump(in);
    EXPECT_FALSE(parsed.ok);
    EXPECT_FALSE(parsed.error.empty());
  }
}

// Errors inside step() land in the ring and the post-mortem file.
TEST(FlightRecorder, ServiceErrorPathDumpsPostMortem) {
  const auto trace = small_arrivals(41);
  TelSpec spec;
  spec.telemetry.flightrec_capacity = 32;
  auto loop = make_loop(spec, trace);
  const std::string path = ::testing::TempDir() + "/tel_flight_err.txt";
  loop->attach_telemetry_outputs(
      {.prom = nullptr, .chunk = nullptr, .flightrec_path = path});
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(loop->step());
  loop->note_error("synthetic failure for the post-mortem path");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const obs::ParsedFlightDump parsed = obs::parse_flight_dump(in);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_FALSE(parsed.events.empty());
  EXPECT_EQ(parsed.events.back().kind, obs::FlightKind::kError);
  EXPECT_EQ(parsed.events.back().note,
            "synthetic failure for the post-mortem path");
}

// ---------------------------------------------------------------------------
// 6. Seeded SLO/cut fuzz (ECHELON_SLO_SEEDS budget knob)
// ---------------------------------------------------------------------------

TEST(TelemetryFuzz, SeededSloConfigsSurviveSnapshotCuts) {
  const int budget = eqh::env_seed_budget("ECHELON_SLO_SEEDS", 24);
  for (int seed = 0; seed < budget; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const auto trace = small_arrivals(3000 + static_cast<std::uint64_t>(seed));
    TelSpec spec;
    spec.telemetry.metrics_every = 0.01 * (1 + seed % 7);
    spec.telemetry.flightrec_capacity =
        static_cast<std::size_t>(4 << (seed % 4));
    spec.telemetry.slo.window = 0.1 * (1 + seed % 10);
    spec.telemetry.slo.objectives = {
        SloObjective{static_cast<SloKind>(seed % service::kSloKindCount),
                     0.05 * (1 + seed % 5), 0.1 * (seed % 10) / 10.0},
    };

    auto whole = make_loop(spec, trace);
    whole->drain();
    const ServiceResult reference = whole->result();
    const std::string ref_prom = whole->prom_exposition();

    const std::uint64_t cut = 1 + static_cast<std::uint64_t>(seed) * 7 % 50;
    auto prefix = make_loop(spec, trace);
    for (std::uint64_t k = 0; k < cut; ++k) {
      if (!prefix->step()) break;
    }
    const std::string bytes = save_snapshot(*prefix);
    prefix.reset();
    auto restored = restore_snapshot(bytes);
    restored->drain();
    expect_same_outcome(reference, restored->result());
    EXPECT_EQ(ref_prom, restored->prom_exposition());
    EXPECT_EQ(whole->telemetry_flushes(), restored->telemetry_flushes());
    ASSERT_NE(restored->flight(), nullptr);
    ASSERT_NE(whole->flight(), nullptr);
    EXPECT_EQ(whole->flight()->ring_digest(),
              restored->flight()->ring_digest());
  }
}

}  // namespace
}  // namespace echelon
