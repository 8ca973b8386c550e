// Observability-layer suite (DESIGN.md §9).
//
// Pins the four contracts the layer makes:
//   1. Recorder semantics: bounded ring with drop-oldest overflow, exact
//      cumulative per-kind counts, interned label directory.
//   2. No perturbation: an ExperimentResult produced with tracing at full
//      `flow` detail plus a metrics registry attached is *byte-identical*
//      to an untraced run -- across every scheduler x fabric cell, and
//      under fault injection. (The zero-allocation side of the contract --
//      sinks off costs nothing -- is enforced by the equivalence suites,
//      which run with observability compiled in.)
//   3. Perfetto round-trip: the emitted trace_event JSON parses back and
//      its slice/instant/counter populations match the recorder's counts
//      exactly.
//   4. Deterministic capture: cluster::run_sweep's per-point metric
//      snapshots and their merge are identical for any thread count.
//
// Single translation unit: equivalence_harness.hpp defines the global
// operator-new replacement and must not be included twice in one binary.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/sweep.hpp"
#include "equivalence_harness.hpp"
#include "faultsim/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"

namespace {

using namespace echelon;
using cluster::FabricKind;
using cluster::SchedulerKind;
using obs::TraceDetail;
using obs::TraceEvent;
using obs::TraceKind;

// ============================================================================
// 1. Recorder semantics
// ============================================================================

TEST(TraceDetailTest, ParsesAllLevels) {
  TraceDetail d = TraceDetail::kOff;
  EXPECT_TRUE(obs::trace_detail_from_string("off", &d));
  EXPECT_EQ(d, TraceDetail::kOff);
  EXPECT_TRUE(obs::trace_detail_from_string("coarse", &d));
  EXPECT_EQ(d, TraceDetail::kCoarse);
  EXPECT_TRUE(obs::trace_detail_from_string("flow", &d));
  EXPECT_EQ(d, TraceDetail::kFlow);
  EXPECT_FALSE(obs::trace_detail_from_string("verbose", &d));
  EXPECT_FALSE(obs::trace_detail_from_string("", &d));
  // Round-trip through to_string.
  for (const TraceDetail level :
       {TraceDetail::kOff, TraceDetail::kCoarse, TraceDetail::kFlow}) {
    TraceDetail back = TraceDetail::kOff;
    ASSERT_TRUE(obs::trace_detail_from_string(obs::to_string(level), &back));
    EXPECT_EQ(back, level);
  }
}

TEST(TraceRecorderTest, RingDropsOldestKeepsCumulativeCounts) {
  obs::TraceRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(TraceEvent{.kind = i % 2 == 0 ? TraceKind::kControlPass
                                             : TraceKind::kAllocPass,
                          .t = static_cast<double>(i),
                          .id = i});
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  // Cumulative counts include dropped events.
  EXPECT_EQ(rec.count(TraceKind::kControlPass), 10u);
  EXPECT_EQ(rec.count(TraceKind::kAllocPass), 10u);
  // Retained window is the newest 8, oldest first.
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].id, 12u + k);
    EXPECT_EQ(events[k].t, static_cast<double>(12 + k));
  }

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.count(TraceKind::kControlPass), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorderTest, LabelDirectoryInternsFirstSeen) {
  obs::TraceRecorder rec;
  rec.record(TraceEvent{.kind = TraceKind::kFlowSubmit, .id = 7, .job = 1},
             "grad.bucket3");
  rec.record(TraceEvent{.kind = TraceKind::kTaskStart, .id = 7, .job = 1},
             "fwd.s0.m2");
  rec.record(TraceEvent{.kind = TraceKind::kFlowFinish, .id = 7, .job = 1});
  EXPECT_EQ(rec.flow_label(7), "grad.bucket3");
  EXPECT_EQ(rec.task_label(7), "fwd.s0.m2");  // id spaces are disjoint
  EXPECT_EQ(rec.flow_label(8), "");
  EXPECT_EQ(rec.task_label(99), "");
}

// ============================================================================
// 2. No perturbation: traced runs are byte-identical
// ============================================================================

cluster::ExperimentResult run_traced(const std::vector<cluster::JobSpec>& jobs,
                                     eqh::RunSpec spec, obs::TraceSink* sink,
                                     TraceDetail detail,
                                     obs::MetricsRegistry* metrics) {
  spec.trace_sink = sink;
  spec.trace_detail = detail;
  spec.metrics = metrics;
  return eqh::run_cluster(jobs, spec);
}

using ObsEquivalence = eqh::SchedFabricTest;

TEST_P(ObsEquivalence, FlowDetailTracingIsByteIdentical) {
  const auto [scheduler, fabric] = GetParam();
  const auto jobs = eqh::small_trace(/*seed=*/21, /*jitter=*/0.1);
  eqh::RunSpec spec;
  spec.scheduler = scheduler;
  spec.fabric = fabric;

  const auto baseline = eqh::run_cluster(jobs, spec);
  obs::TraceRecorder rec;
  obs::MetricsRegistry metrics;
  const auto traced =
      run_traced(jobs, spec, &rec, TraceDetail::kFlow, &metrics);

  eqh::expect_same_result(baseline, traced);
  EXPECT_GT(rec.recorded(), 0u);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_FALSE(snap.empty());
  // The registry releases every group during the run; the tardiness
  // histogram observed each one in creation order, the order in which
  // Registry::total_tardiness() adds them, so the two sums agree bit for bit.
  const obs::MetricsSnapshot::Hist* tard =
      snap.find_histogram("echelonflow.tardiness_s");
  ASSERT_NE(tard, nullptr);
  EXPECT_GT(tard->count, 0u);
  EXPECT_EQ(tard->sum, traced.total_tardiness);
}

TEST_P(ObsEquivalence, TracingUnderFaultsIsByteIdentical) {
  const auto [scheduler, fabric] = GetParam();
  const auto jobs = eqh::small_trace(/*seed=*/33);

  faultsim::ChaosProfile profile;
  profile.seed = 5;
  profile.horizon = 1.5;
  profile.link_faults = 3;
  profile.brownouts = 2;
  profile.stragglers = 2;
  const auto fabric_shape = eqh::run_cluster_fabric(fabric);
  std::size_t workers = 0;
  for (const auto& j : jobs) workers += static_cast<std::size_t>(j.ranks);
  const faultsim::FaultPlan plan =
      faultsim::from_chaos(profile, fabric_shape.topo, workers, jobs.size());

  eqh::RunSpec spec;
  spec.scheduler = scheduler;
  spec.fabric = fabric;
  spec.plan = &plan;

  const auto baseline = eqh::run_cluster(jobs, spec);
  obs::TraceRecorder rec;
  const auto traced =
      run_traced(jobs, spec, &rec, TraceDetail::kFlow, nullptr);

  eqh::expect_same_result(baseline, traced);
  // The fault plan's activity must show up on the trace.
  EXPECT_EQ(rec.count(TraceKind::kFaultFired), baseline.fault_events);
  EXPECT_EQ(rec.count(TraceKind::kFlowReroute), baseline.flow_reroutes);
  EXPECT_EQ(rec.count(TraceKind::kFlowPark), baseline.flow_parks);
  EXPECT_EQ(rec.count(TraceKind::kFlowRetry), baseline.flow_retries);
  EXPECT_EQ(rec.count(TraceKind::kFlowAbandon), baseline.flows_abandoned);
}

ECHELON_INSTANTIATE_SCHED_FABRIC(ObsEquivalence);

TEST(TraceCountsTest, MirrorSimulationTotals) {
  const auto jobs = eqh::small_trace(/*seed=*/11);
  eqh::RunSpec spec;  // echelonflow-madd on the big switch
  obs::TraceRecorder rec;
  const auto result =
      run_traced(jobs, spec, &rec, TraceDetail::kFlow, nullptr);

  EXPECT_EQ(rec.count(TraceKind::kControlPass), result.control_invocations);
  // Fault-free: every submitted flow starts and finishes, every task that
  // starts finishes.
  EXPECT_GT(rec.count(TraceKind::kFlowSubmit), 0u);
  EXPECT_EQ(rec.count(TraceKind::kFlowSubmit),
            rec.count(TraceKind::kFlowStart));
  EXPECT_EQ(rec.count(TraceKind::kFlowSubmit),
            rec.count(TraceKind::kFlowFinish));
  EXPECT_GT(rec.count(TraceKind::kTaskStart), 0u);
  EXPECT_EQ(rec.count(TraceKind::kTaskStart),
            rec.count(TraceKind::kTaskFinish));
  EXPECT_GT(rec.count(TraceKind::kAllocPass), 0u);
}

TEST(TraceCountsTest, CoarseDetailOmitsFlowAndTaskEvents) {
  const auto jobs = eqh::small_trace(/*seed=*/11);
  eqh::RunSpec spec;
  obs::TraceRecorder coarse;
  obs::TraceRecorder flow;
  const auto a = run_traced(jobs, spec, &coarse, TraceDetail::kCoarse, nullptr);
  const auto b = run_traced(jobs, spec, &flow, TraceDetail::kFlow, nullptr);
  eqh::expect_same_result(a, b);

  EXPECT_EQ(coarse.count(TraceKind::kFlowSubmit), 0u);
  EXPECT_EQ(coarse.count(TraceKind::kFlowStart), 0u);
  EXPECT_EQ(coarse.count(TraceKind::kFlowFinish), 0u);
  EXPECT_EQ(coarse.count(TraceKind::kTaskStart), 0u);
  EXPECT_EQ(coarse.count(TraceKind::kTaskFinish), 0u);
  // Control-plane events are a strict superset level: identical at both.
  EXPECT_EQ(coarse.count(TraceKind::kControlPass),
            flow.count(TraceKind::kControlPass));
  EXPECT_EQ(coarse.count(TraceKind::kAllocPass),
            flow.count(TraceKind::kAllocPass));
}

// ============================================================================
// 3. Perfetto round-trip
// ============================================================================

TEST(PerfettoTest, RoundTripCountsMatchRecorder) {
  const auto jobs = eqh::small_trace(/*seed=*/17);
  eqh::RunSpec spec;  // echelonflow-madd
  obs::TraceRecorder rec;
  obs::MetricsRegistry metrics;
  (void)run_traced(jobs, spec, &rec, TraceDetail::kFlow, &metrics);
  ASSERT_EQ(rec.dropped(), 0u) << "scenario must fit the default ring";

  const obs::MetricsSnapshot snap = metrics.snapshot();
  std::ostringstream os;
  const std::size_t emitted = obs::write_perfetto_trace(os, rec, &snap);

  std::istringstream is(os.str());
  const obs::ParsedTrace parsed = obs::parse_trace_event_json(is);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.events.size(), emitted);

  // Slices: one per finished flow + one per finished task; fault-free runs
  // leave nothing unfinished.
  EXPECT_EQ(parsed.count_ph("X"), rec.count(TraceKind::kFlowFinish) +
                                      rec.count(TraceKind::kTaskFinish));
  // Instants: submits plus the control plane (each reallocate emits one
  // control_pass and the allocator's alloc_pass).
  EXPECT_EQ(parsed.count_ph("i"), rec.count(TraceKind::kFlowSubmit) +
                                      rec.count(TraceKind::kControlPass) +
                                      rec.count(TraceKind::kAllocPass));
  // Counter samples: every series point lands as one "C" event.
  std::size_t series_points = 0;
  for (const auto& ser : snap.series) series_points += ser.points.size();
  EXPECT_GT(series_points, 0u);
  EXPECT_EQ(parsed.count_ph("C"), series_points);
  EXPECT_GT(parsed.count_ph("M"), 0u);  // process/thread metadata present

  // Ordering: instants are emitted in recorded (= simulation time) order.
  double prev = -1.0;
  for (const auto& ev : parsed.events) {
    if (ev.ph != "i") continue;
    EXPECT_GE(ev.ts, prev);
    prev = ev.ts;
  }
  // Durations are non-negative and every slice carries one.
  for (const auto& ev : parsed.events) {
    if (ev.ph != "X") continue;
    EXPECT_TRUE(ev.has_dur);
    EXPECT_GE(ev.dur, 0.0);
  }
}

TEST(PerfettoTest, UnfinishedSlicesAreClosedAtHorizon) {
  // Hand-built stream: one flow that never finishes, one that does.
  obs::TraceRecorder rec;
  rec.record(TraceEvent{.kind = TraceKind::kFlowSubmit, .t = 0.0, .id = 0,
                        .job = 0, .ctx = 0, .value = 100.0},
             "stuck");
  rec.record(TraceEvent{.kind = TraceKind::kFlowStart, .t = 0.0, .id = 0,
                        .job = 0, .ctx = 0, .value = 100.0});
  rec.record(TraceEvent{.kind = TraceKind::kFlowSubmit, .t = 0.5, .id = 1,
                        .job = 0, .ctx = 0, .value = 50.0},
             "done");
  rec.record(TraceEvent{.kind = TraceKind::kFlowStart, .t = 0.5, .id = 1,
                        .job = 0, .ctx = 0, .value = 50.0});
  rec.record(TraceEvent{.kind = TraceKind::kFlowFinish, .t = 2.0, .id = 1,
                        .job = 0, .ctx = 0, .value = 0.0});

  std::ostringstream os;
  (void)obs::write_perfetto_trace(os, rec);
  std::istringstream is(os.str());
  const obs::ParsedTrace parsed = obs::parse_trace_event_json(is);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  // Both flows produce a slice: "done" at its finish, "stuck" force-closed
  // at the horizon (t = 2.0, the latest event).
  EXPECT_EQ(parsed.count_ph("X"), 2u);
  EXPECT_EQ(parsed.count_name("stuck"), 1u);
  EXPECT_EQ(parsed.count_name("done"), 1u);
  for (const auto& ev : parsed.events) {
    if (ev.name != "stuck") continue;
    EXPECT_EQ(ev.ts, 0.0);
    ASSERT_TRUE(ev.has_dur);
    EXPECT_EQ(ev.dur, 2.0 * 1e6);  // default scale: seconds -> microseconds
  }
}

TEST(PerfettoTest, ParserRejectsMalformedInput) {
  {
    std::istringstream is("not json at all");
    EXPECT_FALSE(obs::parse_trace_event_json(is).ok);
  }
  {
    std::istringstream is(R"({"foo": 1})");
    EXPECT_FALSE(obs::parse_trace_event_json(is).ok);
  }
  {
    std::istringstream is(R"({"traceEvents": [{"name": "x", "ph": "i")");
    EXPECT_FALSE(obs::parse_trace_event_json(is).ok);
  }
}

// ============================================================================
// 4. Metrics registry + deterministic sweep capture
// ============================================================================

TEST(MetricsTest, InstrumentsAndSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("a.events").inc();
  reg.counter("a.events").inc(4);
  reg.gauge("b.level").set(2.5);
  auto& h = reg.histogram("c.latency", {1.0, 10.0, 100.0});
  for (const double x : {0.5, 5.0, 5.0, 50.0, 500.0}) h.observe(x);
  reg.series("d.util").sample(0.0, 0.1);
  reg.series("d.util").sample(1.0, 0.9);

  // Instrument references are stable: re-lookup hits the same object.
  EXPECT_EQ(&reg.counter("a.events"), &reg.counter("a.events"));
  EXPECT_EQ(reg.counter("a.events").value(), 5u);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a.events");
  EXPECT_EQ(snap.counters[0].second, 5u);
  const double* gauge = snap.find_gauge("b.level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(*gauge, 2.5);
  const auto* hist = snap.find_histogram("c.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_EQ(hist->sum, 560.5);
  EXPECT_EQ(hist->min, 0.5);
  EXPECT_EQ(hist->max, 500.0);
  ASSERT_EQ(hist->counts.size(), 4u);  // 3 bounds + inf tail
  EXPECT_EQ(hist->counts[0], 1u);
  EXPECT_EQ(hist->counts[1], 2u);
  EXPECT_EQ(hist->counts[2], 1u);
  EXPECT_EQ(hist->counts[3], 1u);
  // Bucket-resolution quantiles: p50 falls in the (1, 10] bucket.
  EXPECT_EQ(hist->quantile(0.5), 10.0);
  EXPECT_EQ(hist->quantile(1.0), 500.0);
  const auto* ser = snap.find_series("d.util");
  ASSERT_NE(ser, nullptr);
  EXPECT_EQ(ser->points.size(), 2u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
}

TEST(MetricsTest, MergeSumsCountersAveragesGaugesAddsHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("n").inc(3);
  b.counter("n").inc(5);
  a.gauge("g").set(1.0);
  b.gauge("g").set(3.0);
  a.gauge("only_a").set(7.0);
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  a.series("s").sample(0.0, 1.0);

  const std::vector<obs::MetricsSnapshot> snaps = {a.snapshot(), b.snapshot()};
  const obs::MetricsSnapshot merged = obs::merge_snapshots(snaps);

  const std::uint64_t* n = merged.find_counter("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(*n, 8u);
  const double* g = merged.find_gauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(*g, 2.0);  // mean over the snapshots defining it
  const double* only_a = merged.find_gauge("only_a");
  ASSERT_NE(only_a, nullptr);
  EXPECT_EQ(*only_a, 7.0);
  const auto* h = merged.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 2.0);
  EXPECT_EQ(h->min, 0.5);
  EXPECT_EQ(h->max, 1.5);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  // Series are point-local and dropped from merges by design.
  EXPECT_TRUE(merged.series.empty());
}

void expect_same_snapshot(const obs::MetricsSnapshot& a,
                          const obs::MetricsSnapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].first, b.counters[i].first);
    EXPECT_EQ(a.counters[i].second, b.counters[i].second);
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i].first, b.gauges[i].first);
    // run.wall_ms is host timing -- the one non-deterministic value in a
    // snapshot (same carve-out as eqh::expect_same_result).
    if (a.gauges[i].first == "run.wall_ms") continue;
    // Bitwise: the merge is deterministic, not merely close.
    EXPECT_BITEQ(a.gauges[i].second, b.gauges[i].second);
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].counts, b.histograms[i].counts);
    EXPECT_BITEQ(a.histograms[i].sum, b.histograms[i].sum);
  }
}

TEST(SweepCaptureTest, DeterministicAcrossThreadCounts) {
  const auto jobs = eqh::small_trace(/*seed=*/29);
  std::vector<cluster::SweepPoint> points;
  for (const auto kind :
       {SchedulerKind::kFairSharing, SchedulerKind::kCoflowMadd,
        SchedulerKind::kEchelonMadd}) {
    cluster::ExperimentConfig cfg;
    cfg.scheduler = kind;
    points.push_back({jobs, cfg});
  }

  cluster::SweepCapture serial;
  cluster::SweepCapture parallel;
  const auto r1 = cluster::run_sweep(points, {.threads = 1}, &serial);
  const auto r4 = cluster::run_sweep(points, {.threads = 4}, &parallel);

  ASSERT_EQ(r1.size(), points.size());
  ASSERT_EQ(r4.size(), points.size());
  ASSERT_EQ(serial.point_metrics.size(), points.size());
  ASSERT_EQ(parallel.point_metrics.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    eqh::expect_same_result(r1[i], r4[i]);
    expect_same_snapshot(serial.point_metrics[i], parallel.point_metrics[i]);
    EXPECT_FALSE(serial.point_metrics[i].empty());
  }
  expect_same_snapshot(serial.merged, parallel.merged);
  // wall_ms is host timing; everything else in the merge is deterministic,
  // including the run-level gauges run_experiment fills.
  EXPECT_NE(serial.merged.find_counter("sim.flows"), nullptr);
  EXPECT_NE(serial.merged.find_gauge("sim.makespan_s"), nullptr);
}

// `serve` and `cluster` publish one registry: a trace served through a
// ServiceLoop and published with publish_metrics() leaves the same
// counters, gauges and histograms, to the bit, as run_experiment on the same
// jobs. Only run_experiment's batch-only job.iteration_s and the host-time
// run.wall_ms (skipped by expect_same_snapshot) differ.
using PublishedRegistry = eqh::SchedFabricTest;

TEST_P(PublishedRegistry, ServeAndClusterPublishTheSameRegistry) {
  const auto [scheduler, fabric] = GetParam();
  const auto jobs = eqh::small_trace(/*seed=*/13);

  obs::MetricsRegistry served;
  {
    service::ServiceLoop loop(eqh::run_config(
        {.scheduler = scheduler, .fabric = fabric, .metrics = &served}));
    loop.seat_ahead(jobs);
    loop.set_generator(
        std::make_unique<service::ScheduleArrivalGenerator>(jobs));
    loop.drain();
    loop.publish_metrics();
  }
  obs::MetricsRegistry batch;
  (void)eqh::run_cluster(
      jobs, {.scheduler = scheduler, .fabric = fabric, .metrics = &batch});

  const obs::MetricsSnapshot serve_snap = served.snapshot();
  obs::MetricsSnapshot batch_snap = batch.snapshot();
  EXPECT_EQ(std::erase_if(batch_snap.histograms,
                          [](const obs::MetricsSnapshot::Hist& h) {
                            return h.name == "job.iteration_s";
                          }),
            1u);
  ASSERT_NE(serve_snap.find_counter("alloc.passes"), nullptr);
  ASSERT_NE(serve_snap.find_counter("sched.passes"), nullptr);
  ASSERT_NE(serve_snap.find_counter("routes.lookups"), nullptr);
  ASSERT_NE(serve_snap.find_histogram("echelonflow.tardiness_s"), nullptr);
  expect_same_snapshot(serve_snap, batch_snap);
}

ECHELON_INSTANTIATE_SCHED_FABRIC(PublishedRegistry);

TEST(ExportTest, MetricsCsvHasOneRowPerScalarAndBucket) {
  obs::MetricsRegistry reg;
  reg.counter("n").inc(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.series("s").sample(0.25, 4.0);
  const Csv csv = obs::metrics_to_csv(reg.snapshot());
  // counter 1 + gauge 1 + histogram (count/sum/mean/min/p50/p90/p99/max = 8
  // rows + 2 buckets) + series 1 point.
  EXPECT_EQ(csv.row_count(), 1u + 1u + 8u + 2u + 1u);
}

// ============================================================================
// Exporter edge cases (DESIGN.md §15)
// ============================================================================

TEST(ExportTest, EmptyRegistryProducesWellFormedOutputs) {
  obs::MetricsRegistry reg;
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(obs::metrics_to_csv(snap).row_count(), 0u);
  std::ostringstream summary;
  obs::print_metrics_summary(summary, snap);  // must not throw or crash
  EXPECT_EQ(obs::to_prom_text(snap), "");
}

TEST(ExportTest, HistogramBucketEdgeValuesAreLeInclusive) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("h", {1.0, 2.0});
  h.observe(1.0);                             // exactly on the first bound
  h.observe(2.0);                             // exactly on the second
  h.observe(std::nextafter(2.0, 3.0));        // one ulp past -> tail
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* hist = snap.find_histogram("h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->counts[0], 1u);
  EXPECT_EQ(hist->counts[1], 1u);
  EXPECT_EQ(hist->counts[2], 1u);
  // Prometheus buckets are cumulative `le` counts; the edge values must
  // be *inside* their own bound's bucket.
  const std::string text = obs::to_prom_text(snap);
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"2\"} 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("h_count 3\n"), std::string::npos) << text;
}

TEST(ExportTest, PromNameSplittingAndTypeLines) {
  std::string family;
  std::string labels;
  obs::prom_split_name("link.3.util", family, labels);
  EXPECT_EQ(family, "link_util");
  EXPECT_EQ(labels, "link=\"3\"");
  obs::prom_split_name("service.slo.2.burn_rate", family, labels);
  EXPECT_EQ(labels, "slo=\"2\"");

  obs::MetricsRegistry reg;
  reg.counter("service.admitted").inc(4);
  reg.gauge("link.3.util").set(0.5);
  reg.gauge("link.10.util").set(0.25);
  const std::string text = obs::to_prom_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE service_admitted_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("service_admitted_total 4\n"), std::string::npos);
  EXPECT_NE(text.find("link_util{link=\"10\"} 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("link_util{link=\"3\"} 0.5\n"), std::string::npos);
  // Byte-stable: rendering the same snapshot twice is identical.
  EXPECT_EQ(text, obs::to_prom_text(reg.snapshot()));
}

TEST(ExportTest, LabelInternerStaysStablePast256Ids) {
  obs::LabelInterner interner;
  obs::MetricsRegistry reg;
  for (int i = 0; i < 300; ++i) {
    reg.gauge("link." + std::to_string(i) + ".util")
        .set(static_cast<double>(i));
  }
  const std::string first = obs::to_prom_text(reg.snapshot(), &interner);
  EXPECT_GE(interner.size(), 300u);
  // Ids are first-seen stable: a second render interns nothing new and
  // produces identical bytes.
  const std::size_t after_first = interner.size();
  const std::string second = obs::to_prom_text(reg.snapshot(), &interner);
  EXPECT_EQ(interner.size(), after_first);
  EXPECT_EQ(first, second);
  for (std::uint32_t id = 0; id < 300u; ++id) {
    EXPECT_EQ(interner.intern(interner.label_at(id)), id);
  }
}

TEST(ExportTest, MixedInstrumentKindsOnOneFamilyThrow) {
  // Counters are disambiguated by their `_total` suffix, so the reachable
  // collision is a gauge and a histogram landing on the same family name.
  obs::MetricsRegistry reg;
  reg.gauge("x.1.n").set(1.0);
  reg.histogram("x.2.n", {1.0}).observe(0.5);  // family "x_n" again
  EXPECT_THROW((void)obs::to_prom_text(reg.snapshot()),
               std::invalid_argument);
}

TEST(PerfettoTest, ZeroEventTraceRoundTrips) {
  const obs::TraceRecorder empty;
  std::ostringstream os;
  obs::write_perfetto_trace(os, empty);
  std::istringstream in(os.str());
  const obs::ParsedTrace parsed = obs::parse_trace_event_json(in);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.count_ph("X"), 0u);
  EXPECT_EQ(parsed.count_ph("i"), 0u);
}

TEST(MetricsTest, SeriesBudgetDecimatesButAgreesOnKeptPoints) {
  obs::MetricsRegistry capped;
  capped.set_series_budget(16);
  obs::MetricsRegistry uncapped;
  for (int i = 0; i < 1000; ++i) {
    const double t = 0.001 * i;
    const double v = std::sin(0.01 * i);
    capped.series("s").sample(t, v);
    uncapped.series("s").sample(t, v);
  }
  const obs::MetricsSnapshot capped_snap = capped.snapshot();
  const obs::MetricsSnapshot uncapped_snap = uncapped.snapshot();
  const auto* cs = capped_snap.find_series("s");
  const auto* us = uncapped_snap.find_series("s");
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(us, nullptr);
  EXPECT_EQ(us->points.size(), 1000u);
  EXPECT_LE(cs->points.size(), 16u);
  EXPECT_GE(cs->points.size(), 2u);
  // Every kept point is an exact member of the uncapped sequence, and the
  // kept offsets are stride-regular.
  const std::size_t stride = capped.series("s").stride();
  EXPECT_GE(stride, 1000u / 16u);
  for (std::size_t i = 0; i < cs->points.size(); ++i) {
    const auto& kept = cs->points[i];
    const auto& orig = us->points[i * stride];
    EXPECT_EQ(kept.first, orig.first) << "point " << i;
    EXPECT_EQ(kept.second, orig.second) << "point " << i;
  }
}

// The exposition reads each series' latest sample only, so latest() -- which
// copies no series history -- renders byte for byte as the full snapshot.
TEST(ExportTest, LatestExposesLikeTheFullSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("service.steps").set(12);
  reg.gauge("service.admission_rate").set(0.75);
  reg.histogram("service.jct_s").observe(0.4);
  for (int i = 0; i < 5000; ++i) {
    reg.series("service.link.3.util").sample(0.01 * i, std::sin(0.1 * i));
  }
  reg.series("service.running").sample(1.0, 4.0);
  (void)reg.series("service.queue_depth");  // no samples: not exposed
  const obs::MetricsSnapshot latest = reg.latest();
  ASSERT_EQ(latest.series.size(), 3u);
  for (const obs::MetricsSnapshot::Ser& s : latest.series) {
    EXPECT_LE(s.points.size(), 1u) << s.name;
  }
  EXPECT_EQ(latest.find_series("service.link.3.util")->points.back(),
            reg.series("service.link.3.util").points().back());
  const std::string text = obs::to_prom_text(reg.snapshot());
  EXPECT_NE(text.find("service_link_util{link=\"3\"}"), std::string::npos);
  EXPECT_EQ(obs::to_prom_text(latest), text);
}

TEST(MetricsTest, MergeSnapshotsThrowsOnMismatchedHistogramBounds) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  b.histogram("h", {1.0, 2.0, 3.0}).observe(0.5);
  const std::vector<obs::MetricsSnapshot> snaps = {a.snapshot(),
                                                   b.snapshot()};
  try {
    (void)obs::merge_snapshots(snaps);
    FAIL() << "mismatched bucket layouts must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("h"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bucket"), std::string::npos);
  }
}

}  // namespace
