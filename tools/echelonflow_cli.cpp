// echelonflow_cli -- command-line driver for the EchelonFlow simulator.
//
// Subcommands:
//   fig2                         reproduce the paper's motivating example
//   single  [options]            one training job on a dedicated fabric
//   cluster [options]            a multi-job Poisson trace on a shared fabric
//   serve   [options]            online service mode: streaming arrivals,
//                                admission control, snapshot/restore
//                                (DESIGN.md §13)
//
// Every subcommand runs its jobs on a cluster::Stack (DESIGN.md §13), which
// owns the one scheduler table: --scheduler takes
//   fair|srpt|aalo|coflow|sincronia|echelonflow
// in `single`, `cluster` and `serve` alike. A job the Stack cannot place
// (too few ranks, iterations, micro-batches or layers, buckets outside the
// layers, more ranks than hosts) exits 2 naming the field.
//
// `single` options:
//   --paradigm dp|ps|pp|tp|fsdp|ep     (default pp)
//   --scheduler <name>  (default echelonflow)
//   --ranks N          (default 4)      --iterations N   (default 3)
//   --gbps G           (default 25)     --microbatches N (default 6)
//   --layers N         (default 8)      --hidden N       (default 2048)
//   --jitter X         (default 0)      --timeline       (render Gantt)
//
// `cluster` options:
//   --jobs N (default 12)  --hosts N (default 16)  --seed S (default 42)
//   --gbps G (default 25)  --iterations N (default 2)
//   --scheduler <name>|all (default all: fair, srpt, coflow, sincronia,
//                       echelonflow)  --csv PATH (write results CSV)
//   --threads N (default 0 = one per hardware thread; 1 = serial)
//     scheduler comparisons run through cluster::run_sweep, one scheduler
//     per thread; output is identical for any thread count.
//   --fault-plan PATH   replay a scripted fault plan (src/faultsim format;
//                       see DESIGN.md §8) against every scheduler
//   --chaos N           generate N link faults + N brownouts + N stragglers
//                       from a seeded profile instead of a plan file
//   --chaos-seed S (default 1)  --chaos-horizon T seconds (default 2;
//                       finite and > 0)
//     fault columns (reroutes/parks/abandoned/downtime) are reported and
//     written to the CSV whenever fault injection is active.
//
// `serve` options (DESIGN.md §13):
//   --scheduler <name>  (default echelonflow)
//   --fabric bigswitch|leafspine (default bigswitch)
//   --hosts N (default 16)  --gbps G (default 25)  --oversub X (default 2)
//   --arrivals PATH     replay a written arrival-trace file instead of the
//                       seeded Poisson source
//   --jobs N (default 12)  --rate R jobs/s (default 2)  --seed S (default 42)
//   --iterations N (default 2)  --burst-every N (default 0 = off; every Nth
//                       job arrives at the same instant as its predecessor)
//   --arrivals-out PATH capture the Poisson stream to a replayable trace file
//   --admission accept-all|queue-with-cap|tardiness-aware (default accept-all)
//   --max-running N (default 0 = unlimited)  --queue-cap N (default 16)
//   --tardiness-limit X seconds (default 1; tardiness-aware load shedding)
//   --chaos N --chaos-seed S --chaos-horizon T   seeded link faults +
//                       brownouts (stragglers stay 0: service workers are
//                       created at launch time, after the plan is armed)
//   --snapshot-out PATH write a versioned binary snapshot (at exit, and
//                       periodically with --snapshot-every)
//   --snapshot-every N  rewrite --snapshot-out every N service steps
//   --snapshot-in PATH  restore a snapshot and continue it to completion
//                       (scheduler/admission/arrival flags come from the
//                       snapshot; only observability flags apply)
//   `serve` prints one result row; its `end (s)` is the instant of the last
//   job completion (0 when none completed), not where the loop stopped.
//   The loop steps at every arrival and every 10 ms of simulated time
//   (service::kTickPeriod); steps change no result, so `serve` and
//   `cluster` give the same tardiness and control passes on one trace.
//
// `serve` telemetry options (DESIGN.md §15; deterministic in sim time, and
// results are bit-identical with all of these on or off):
//   --prom-out PATH     Prometheus text exposition, rewritten atomically at
//                       every flush boundary (tmp file + rename)
//   --prom-rotate N     keep N rotated copies (PATH.1 .. PATH.N)
//   --metrics-every T   flush period in *simulated* seconds (default 0 = off;
//                       defaults to 0.1 when --prom-out/--trace-chunk-out is
//                       given without it)
//   --slo SPEC          SLO objectives, e.g. "jct<=2.0@0.1,tardiness<=1@0.05"
//                       (kind<=threshold@error_budget, kinds jct|queue_wait|
//                       tardiness); publishes service.slo.* burn-rate gauges
//                       and latches per-job deadline-at-risk flags
//   --slo-window T      rolling SLO window in simulated seconds (default 10;
//                       finite and > 0 when --slo is set)
//   --flightrec N       keep a flight recorder ring of the last N service
//                       events (admit/launch/complete/fault/flush/...)
//   --flightrec-out PATH dump the ring on error and at exit (ECHFLIGHT text,
//                       round-trips through obs::parse_flight_dump)
//   --series-budget N   cap every time series at N points, --metrics-out
//                       ones included (decimation by stride doubling;
//                       oldest points thin out first)
//   --trace-chunk-out PATH  stream trace events as incremental ECHCHUNK
//                       chunks flushed at every telemetry boundary; memory
//                       stays O(chunk), and obs::merge_trace_chunks rebuilds
//                       a byte-identical Perfetto trace from the file
//   --profile           self-profile control-plane phases (wall-clock; kept
//                       out of the deterministic registries, exported as a
//                       "service control" Perfetto process with --trace-out)
//
// observability options (`single`, `cluster` and `serve`, DESIGN.md §9):
//   --trace-out PATH    write a Perfetto/Chrome trace_event JSON trace
//                       (open in https://ui.perfetto.dev). `cluster` writes
//                       one file per scheduler: PATH gains a .<scheduler>
//                       tag before its extension when the sweep has more
//                       than one point.
//   --trace-detail off|coarse|flow   how much the emitters record
//                       (default: flow when --trace-out is given, else off).
//                       coarse = control-plane + fault events only.
//   --metrics-out PATH  write the metrics-registry snapshot as CSV
//                       (merged across sweep points for `cluster`) and
//                       print a summary table to stdout. `cluster` and
//                       `serve` write the same run-level rows
//                       (service::ServiceLoop::publish_metrics: sim.*,
//                       alloc.*, sched.*, routes.*, fault.* under a fault
//                       plan, echelon.*, service.* and the
//                       echelonflow.tardiness_s histogram; run.wall_ms is
//                       the one host-time value); `cluster` adds the
//                       job.iteration_s histogram.
//     Observability is read-only: results are byte-identical with these
//     flags on or off (tests/test_obs.cpp pins this).
//
// Every flag is checked against its subcommand's list: an unknown flag, a
// stray positional argument, a flag missing its value, a numeric value with
// trailing junk ("--jobs 4x", "--rate abc") or a negative count
// ("--queue-cap -1") exits with status 2. So does a fabric that cannot be
// built: --hosts below 2, a leaf-spine --hosts that is not a multiple of 8,
// or a --gbps / --oversub that is not a finite number above 0.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "cluster/stack.hpp"
#include "cluster/sweep.hpp"
#include "faultsim/fault_plan.hpp"
#include "cluster/trace.hpp"
#include "common/csv.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "netsim/timeline.hpp"
#include "obs/export.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "service/slo.hpp"
#include "service/snapshot.hpp"
#include "topology/builders.hpp"
#include "workload/gpu.hpp"
#include "workload/model.hpp"

namespace {

using namespace echelon;

// The names cluster::scheduler_from_string takes, for error messages.
constexpr const char* kSchedulers =
    "fair|srpt|aalo|coflow|sincronia|echelonflow";

// What a flag takes: nothing (a switch), free text, or a number that must
// parse in full. A count is an integer that must also be >= 0.
enum class Value { kNone, kText, kInt, kCount, kReal };
using Flags = std::map<std::string, Value, std::less<>>;

// Parsed flags of one subcommand. Values were validated against the
// subcommand's Flags by parse(), so the numeric getters cannot fail.
struct Args {
  std::map<std::string, std::string, std::less<>> kv;

  [[nodiscard]] bool has(std::string_view key) const {
    return kv.find(key) != kv.end();
  }
  [[nodiscard]] std::string get(std::string_view key,
                                const std::string& def) const {
    const auto it = kv.find(key);
    return it != kv.end() ? it->second : def;
  }
  [[nodiscard]] int geti(std::string_view key, int def) const {
    const auto it = kv.find(key);
    return it != kv.end() ? *parse_number<int>(it->second) : def;
  }
  [[nodiscard]] double getd(std::string_view key, double def) const {
    const auto it = kv.find(key);
    return it != kv.end() ? *parse_number<double>(it->second) : def;
  }
};

// The flags each subcommand accepts; nullptr for an unknown subcommand.
[[nodiscard]] const Flags* flags_for(std::string_view cmd) {
  using enum Value;
  // Observability flags, shared by `single`, `cluster` and `serve`.
  const auto with_obs = [](Flags flags) {
    flags.insert({{"trace-out", kText},
                  {"trace-detail", kText},
                  {"metrics-out", kText}});
    return flags;
  };
  static const Flags kFig2;
  static const Flags kSingle = with_obs({
      {"paradigm", kText},   {"scheduler", kText},
      {"ranks", kCount},     {"iterations", kCount},
      {"gbps", kReal},       {"microbatches", kCount},
      {"layers", kCount},    {"hidden", kCount},
      {"jitter", kReal},     {"timeline", kNone}});
  static const Flags kCluster = with_obs({
      {"jobs", kCount},         {"hosts", kCount},
      {"seed", kInt},           {"gbps", kReal},
      {"iterations", kCount},   {"scheduler", kText},
      {"csv", kText},           {"threads", kCount},
      {"fault-plan", kText},    {"chaos", kCount},
      {"chaos-seed", kInt},     {"chaos-horizon", kReal}});
  static const Flags kServe = with_obs({
      {"scheduler", kText},       {"fabric", kText},
      {"hosts", kCount},          {"gbps", kReal},
      {"oversub", kReal},         {"arrivals", kText},
      {"jobs", kCount},           {"rate", kReal},
      {"seed", kInt},             {"iterations", kCount},
      {"burst-every", kCount},    {"arrivals-out", kText},
      {"admission", kText},       {"max-running", kCount},
      {"queue-cap", kCount},      {"tardiness-limit", kReal},
      {"chaos", kCount},          {"chaos-seed", kInt},
      {"chaos-horizon", kReal},   {"snapshot-out", kText},
      {"snapshot-every", kCount},
      {"snapshot-in", kText},     {"prom-out", kText},
      {"prom-rotate", kCount},    {"metrics-every", kReal},
      {"slo", kText},             {"slo-window", kReal},
      {"flightrec", kCount},      {"flightrec-out", kText},
      {"series-budget", kCount},  {"trace-chunk-out", kText},
      {"profile", kNone}});
  if (cmd == "fig2") return &kFig2;
  if (cmd == "single") return &kSingle;
  if (cmd == "cluster") return &kCluster;
  if (cmd == "serve") return &kServe;
  return nullptr;
}

[[nodiscard]] bool valid_value(Value kind, std::string_view value) {
  switch (kind) {
    case Value::kInt: return parse_number<int>(value).has_value();
    case Value::kCount: {
      const std::optional<int> n = parse_number<int>(value);
      return n && *n >= 0;
    }
    case Value::kReal: return parse_number<double>(value).has_value();
    case Value::kNone:
    case Value::kText: return true;
  }
  return true;
}

// Parses argv[from..] against `known`. Reports the first bad argument on
// stderr and returns false.
[[nodiscard]] bool parse(int argc, char** argv, int from, const Flags& known,
                         Args* out) {
  for (int i = from; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      std::cerr << "unexpected argument '" << arg << "'\n";
      return false;
    }
    const std::string key(arg.substr(2));
    const auto it = known.find(key);
    if (it == known.end()) {
      std::cerr << "unknown flag --" << key << "\n";
      return false;
    }
    if (it->second == Value::kNone) {
      out->kv[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag --" << key << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    if (!valid_value(it->second, value)) {
      std::cerr << "flag --" << key << " expects "
                << (it->second == Value::kInt     ? "an integer"
                    : it->second == Value::kCount ? "a non-negative integer"
                                                  : "a number")
                << ", got '" << value << "'\n";
      return false;
    }
    out->kv[key] = value;
  }
  return true;
}

// Observability flags shared by `single` and `cluster`. --trace-detail
// defaults to `flow` whenever a trace output was requested, so
// `--trace-out t.json` alone produces a useful trace.
struct ObsArgs {
  std::string trace_out;
  std::string metrics_out;
  obs::TraceDetail detail = obs::TraceDetail::kOff;

  [[nodiscard]] bool tracing() const noexcept {
    return detail != obs::TraceDetail::kOff;
  }
  [[nodiscard]] bool metrics() const noexcept { return !metrics_out.empty(); }
};

[[nodiscard]] bool parse_obs(const Args& args, ObsArgs* out) {
  out->trace_out = args.get("trace-out", "");
  out->metrics_out = args.get("metrics-out", "");
  const std::string detail =
      args.get("trace-detail", out->trace_out.empty() ? "off" : "flow");
  if (!obs::trace_detail_from_string(detail, &out->detail)) {
    std::cerr << "unknown --trace-detail '" << detail
              << "' (expected off|coarse|flow)\n";
    return false;
  }
  return true;
}

// "sweep.json" + "srpt" -> "sweep.srpt.json"; extensionless paths get the
// tag appended. Used by `cluster` to write one trace per sweep point.
[[nodiscard]] std::string tag_path(const std::string& path,
                                   const std::string& tag) {
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  if (dot == std::string::npos || dot == 0 ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

// Writes one Perfetto trace file and reports what landed in it.
[[nodiscard]] bool export_trace(const std::string& path,
                                const obs::TraceRecorder& recorder,
                                const obs::MetricsSnapshot* metrics,
                                const obs::PerfettoOptions& options) {
  if (!obs::write_perfetto_trace_file(path, recorder, metrics, options)) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << " (" << recorder.size() << " events";
  if (recorder.dropped() > 0) {
    std::cout << ", " << recorder.dropped() << " dropped";
  }
  std::cout << ")\n";
  return true;
}

// The fabric a run uses, built by the one shared builder; on a shape it
// rejects (too few hosts, a bad capacity or oversubscription) prints why and
// returns nullopt, for an exit status of 2.
[[nodiscard]] std::optional<topology::BuiltFabric> build_fabric_or_report(
    cluster::FabricKind kind, int hosts, BytesPerSec port_capacity,
    double oversubscription) {
  try {
    return cluster::build_fabric(kind, hosts, port_capacity,
                                 oversubscription);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return std::nullopt;
  }
}

// --scheduler's value; on a name the Stack does not know prints it and
// returns nullopt, for an exit status of 2.
[[nodiscard]] std::optional<cluster::SchedulerKind> scheduler_or_report(
    const std::string& name) {
  const std::optional<cluster::SchedulerKind> kind =
      cluster::scheduler_from_string(name);
  if (!kind) {
    std::cerr << "unknown scheduler '" << name << "' (expected " << kSchedulers
              << ")\n";
  }
  return kind;
}

// `single`'s --paradigm value; nullopt for an unknown name.
[[nodiscard]] std::optional<workload::Paradigm> paradigm_from_flag(
    std::string_view name) {
  using workload::Paradigm;
  static constexpr std::pair<std::string_view, Paradigm> kParadigms[] = {
      {"dp", Paradigm::kDpAllReduce}, {"ps", Paradigm::kDpPs},
      {"pp", Paradigm::kPipeline},    {"tp", Paradigm::kTensor},
      {"fsdp", Paradigm::kFsdp},      {"ep", Paradigm::kExpert}};
  for (const auto& [flag, paradigm] : kParadigms) {
    if (flag == name) return paradigm;
  }
  return std::nullopt;
}

int cmd_fig2() {
  // Defer to the canonical bench logic, inlined compactly: run the three
  // policies and print the comparison row.
  std::cout << "see bench_fig2_motivating for the full panel; summary:\n";
  Table t({"policy", "comp finish (s)"});
  workload::ModelSpec model;
  model.name = "fig2";
  for (int l = 0; l < 2; ++l) {
    model.layers.push_back(workload::LayerSpec{
        .name = "l", .params = 0, .activation_bytes = 2.0,
        .fwd_flops = 1.0, .bwd_flops = 0.0});
  }
  const cluster::JobSpec spec{
      .paradigm = workload::Paradigm::kPipeline,
      .model = model,
      .gpu = {.name = "slot", .peak_flops = 1.0, .efficiency = 1.0},
      .ranks = 2,
      .iterations = 1,
      .micro_batches = 3};
  for (const std::string which : {"fair", "coflow", "echelonflow"}) {
    cluster::Stack stack(*cluster::scheduler_from_string(which),
                         cluster::FabricKind::kBigSwitch, 2, 1.0, 1.0);
    cluster::BuiltJob job;
    stack.build(job, spec, stack.place(spec), JobId{0}, {});
    job.engine->launch(0.0);
    stack.sim().run();
    // Comp finish = last forward on stage 1; with zero-size grad flows and
    // zero-length bwd tasks the makespan matches Fig. 2's comp finish.
    double comp = 0.0;
    const netsim::Workflow& wf = job.generated.workflow;
    for (netsim::WfNodeId id = 0; id < wf.size(); ++id) {
      if (wf.node(id).kind == netsim::WfKind::kCompute &&
          wf.label(id).starts_with("it0.f.s1")) {
        comp = std::max(comp, job.engine->node_finish(id));
      }
    }
    t.add_row({which, Table::num(comp, 2)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_single(const Args& args) {
  const std::string paradigm_name = args.get("paradigm", "pp");
  const std::optional<workload::Paradigm> paradigm =
      paradigm_from_flag(paradigm_name);
  if (!paradigm) {
    std::cerr << "unknown paradigm '" << paradigm_name << "'\n";
    return 2;
  }
  const std::optional<cluster::SchedulerKind> kind =
      scheduler_or_report(args.get("scheduler", "echelonflow"));
  if (!kind) return 2;
  ObsArgs obs_args;
  if (!parse_obs(args, &obs_args)) return 2;

  cluster::JobSpec spec;
  spec.paradigm = *paradigm;
  spec.ranks = args.geti("ranks", 4);
  spec.iterations = args.geti("iterations", 3);
  spec.model = workload::make_transformer(
      std::max(args.geti("layers", 8), spec.ranks), args.geti("hidden", 2048),
      256, 16);
  spec.gpu = workload::a100();
  spec.buckets = 4;
  spec.micro_batches = args.geti("microbatches", 6);
  spec.compute_jitter = args.getd("jitter", 0.0);

  // A dedicated big switch: one host per rank, plus the DP-PS server's.
  const int hosts =
      spec.ranks + (spec.paradigm == workload::Paradigm::kDpPs ? 1 : 0);
  std::unique_ptr<cluster::Stack> stack;
  try {
    stack = std::make_unique<cluster::Stack>(
        *kind, cluster::FabricKind::kBigSwitch, hosts,
        gbps(args.getd("gbps", 25.0)), 1.0);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  netsim::TimelineRecorder timeline(stack->sim());

  // Observability: attach only when requested -- the default run carries a
  // null sink and pays nothing (DESIGN.md §9).
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  stack->observe(&recorder, obs_args.detail,
                 obs_args.metrics() ? &registry : nullptr);

  cluster::BuiltJob job;
  try {
    stack->build(job, spec, stack->place(spec), JobId{0}, {});
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  job.engine->launch(0.0);
  const SimTime makespan = stack->sim().run();

  std::cout << job.generated.description << "  under "
            << stack->scheduler().name() << "\n\n";
  Table t({"iteration", "finish (s)", "duration (s)"});
  SimTime prev = 0.0;
  for (std::size_t k = 0; k < job.generated.iteration_end.size(); ++k) {
    const SimTime f = job.engine->node_finish(job.generated.iteration_end[k]);
    t.add_row({std::to_string(k), Table::num(f, 4), Table::num(f - prev, 4)});
    prev = f;
  }
  t.print(std::cout);
  std::cout << "makespan " << Table::num(makespan, 4) << " s, sum tardiness "
            << Table::num(stack->registry().total_tardiness(), 4) << " s\n";
  if (args.has("timeline")) {
    std::cout << "\n"
              << timeline.render(makespan / 100.0, 100);
  }

  obs::MetricsSnapshot snapshot;
  if (obs_args.metrics()) snapshot = registry.snapshot();
  if (!obs_args.trace_out.empty()) {
    obs::PerfettoOptions popt;
    popt.topology = &stack->sim().topology();
    if (!export_trace(obs_args.trace_out, recorder,
                      obs_args.metrics() ? &snapshot : nullptr, popt)) {
      return 1;
    }
  }
  if (obs_args.metrics()) {
    if (!obs::write_metrics_csv(obs_args.metrics_out, snapshot)) {
      std::cerr << "cannot write " << obs_args.metrics_out << "\n";
      return 1;
    }
    std::cout << "wrote " << obs_args.metrics_out << "\n\n";
    obs::print_metrics_summary(std::cout, snapshot);
  }
  return 0;
}

int cmd_cluster(const Args& args) {
  ObsArgs obs_args;
  if (!parse_obs(args, &obs_args)) return 2;
  // The shape every sweep point builds; also the chaos target and the link
  // names of the trace files.
  const int hosts = args.geti("hosts", 16);
  const double cap_gbps = args.getd("gbps", 25.0);
  const std::optional<topology::BuiltFabric> fabric = build_fabric_or_report(
      cluster::FabricKind::kBigSwitch, hosts, gbps(cap_gbps), 1.0);
  if (!fabric) return 2;

  cluster::TraceConfig tcfg;
  tcfg.num_jobs = args.geti("jobs", 12);
  tcfg.seed = static_cast<std::uint64_t>(args.geti("seed", 42));
  tcfg.iterations = args.geti("iterations", 2);
  tcfg.arrival_rate = 2.0;
  const auto jobs = cluster::generate_trace(tcfg);

  std::vector<cluster::SchedulerKind> kinds;
  if (const std::string which = args.get("scheduler", "all"); which == "all") {
    kinds = {cluster::SchedulerKind::kFairSharing,
             cluster::SchedulerKind::kSrpt,
             cluster::SchedulerKind::kCoflowMadd,
             cluster::SchedulerKind::kSincronia,
             cluster::SchedulerKind::kEchelonMadd};
  } else if (const auto kind = scheduler_or_report(which)) {
    kinds = {*kind};
  } else {
    return 2;
  }

  // Optional fault injection: a scripted plan file, or a seeded chaos
  // profile drawn against the same fabric shape run_experiment will build.
  faultsim::FaultPlan plan;
  bool have_plan = false;
  if (const std::string path = args.get("fault-plan", ""); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot read fault plan " << path << "\n";
      return 2;
    }
    try {
      plan = faultsim::parse_fault_plan(in);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    have_plan = true;
  } else if (const int chaos = args.geti("chaos", 0); chaos > 0) {
    faultsim::ChaosProfile profile;
    profile.seed = static_cast<std::uint64_t>(args.geti("chaos-seed", 1));
    profile.horizon = args.getd("chaos-horizon", 2.0);
    profile.link_faults = chaos;
    profile.brownouts = chaos;
    profile.stragglers = chaos;
    std::size_t workers = 0;
    for (const auto& j : jobs) workers += static_cast<std::size_t>(j.ranks);
    try {
      plan = faultsim::from_chaos(profile, fabric->topo, workers, jobs.size());
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    have_plan = true;
  }

  // One sweep point per scheduler, run in parallel (deterministic: results
  // come back in point order regardless of --threads; the plan is read-only
  // and shared across threads).
  std::vector<cluster::SweepPoint> points;
  points.reserve(kinds.size());
  // Per-point trace recorders: each one is written exclusively by the worker
  // thread that runs its point (recorders are thread-confined, like the
  // sweep's per-point metrics registries). unique_ptr keeps addresses stable
  // across the vector build.
  std::vector<std::unique_ptr<obs::TraceRecorder>> recorders;
  for (const auto kind : kinds) {
    cluster::ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.hosts = hosts;
    cfg.port_capacity = gbps(cap_gbps);
    if (have_plan) cfg.fault_plan = &plan;
    if (obs_args.tracing() && !obs_args.trace_out.empty()) {
      recorders.push_back(std::make_unique<obs::TraceRecorder>());
      cfg.trace_sink = recorders.back().get();
      cfg.trace_detail = obs_args.detail;
    }
    points.push_back({jobs, cfg});
  }
  cluster::SweepOptions opts;
  opts.threads = static_cast<unsigned>(args.geti("threads", 0));
  const bool want_capture = obs_args.metrics() || !recorders.empty();
  cluster::SweepCapture capture;
  std::vector<cluster::ExperimentResult> results;
  try {
    results =
        cluster::run_sweep(points, opts, want_capture ? &capture : nullptr);
  } catch (const std::invalid_argument& e) {
    // A job wider than the fabric, or a fault-plan event naming a link,
    // node or worker the run lacks.
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<std::string> headers = {"scheduler", "mean iter (s)",
                                      "p99 iter (s)", "mean JCT (s)",
                                      "sum tardiness (s)"};
  if (have_plan) {
    headers.insert(headers.end(),
                   {"reroutes", "parks", "abandoned", "downtime (s)"});
  }
  Table t(headers);
  Csv csv({"scheduler", "mean_iter_s", "p99_iter_s", "mean_jct_s",
           "sum_tardiness_s", "makespan_s", "fault_events", "flow_reroutes",
           "flow_parks", "flow_retries", "flows_abandoned",
           "flow_downtime_s"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto kind = kinds[i];
    const auto& r = results[i];
    const auto iters = r.iteration_samples();
    std::vector<std::string> row = {std::string(cluster::to_string(kind)),
                                    Table::num(iters.mean(), 4),
                                    Table::num(iters.p99(), 4),
                                    Table::num(r.jct_samples().mean(), 4),
                                    Table::num(r.total_tardiness, 3)};
    if (have_plan) {
      row.push_back(std::to_string(r.flow_reroutes));
      row.push_back(std::to_string(r.flow_parks));
      row.push_back(std::to_string(r.flows_abandoned));
      row.push_back(Table::num(r.flow_downtime, 4));
    }
    t.add_row(row);
    csv.add_row({std::string(cluster::to_string(kind)), Csv::num(iters.mean()),
                 Csv::num(iters.p99()), Csv::num(r.jct_samples().mean()),
                 Csv::num(r.total_tardiness), Csv::num(r.makespan),
                 std::to_string(r.fault_events),
                 std::to_string(r.flow_reroutes),
                 std::to_string(r.flow_parks), std::to_string(r.flow_retries),
                 std::to_string(r.flows_abandoned),
                 Csv::num(r.flow_downtime)});
  }
  t.print(std::cout);
  if (const std::string path = args.get("csv", ""); !path.empty()) {
    if (!csv.write_file(path)) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }

  if (!recorders.empty()) {
    // One trace file per sweep point; name the link counter tracks with the
    // same fabric shape run_experiment built.
    obs::PerfettoOptions popt;
    popt.topology = &fabric->topo;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const std::string path =
          kinds.size() == 1
              ? obs_args.trace_out
              : tag_path(obs_args.trace_out,
                         std::string(cluster::to_string(kinds[i])));
      const obs::MetricsSnapshot* snap =
          i < capture.point_metrics.size() ? &capture.point_metrics[i]
                                           : nullptr;
      if (!export_trace(path, *recorders[i], snap, popt)) return 1;
    }
  }
  if (obs_args.metrics()) {
    if (!obs::write_metrics_csv(obs_args.metrics_out, capture.merged)) {
      std::cerr << "cannot write " << obs_args.metrics_out << "\n";
      return 1;
    }
    std::cout << "wrote " << obs_args.metrics_out
              << " (merged across schedulers)\n\n";
    obs::print_metrics_summary(std::cout, capture.merged);
  }
  return 0;
}

int cmd_serve(const Args& args) {
  service::ServiceConfig cfg;
  const std::optional<cluster::SchedulerKind> kind =
      scheduler_or_report(args.get("scheduler", "echelonflow"));
  if (!kind) return 2;
  cfg.scheduler = *kind;
  const std::string fabric_name = args.get("fabric", "bigswitch");
  if (fabric_name == "bigswitch") {
    cfg.fabric = cluster::FabricKind::kBigSwitch;
  } else if (fabric_name == "leafspine") {
    cfg.fabric = cluster::FabricKind::kLeafSpine;
  } else {
    std::cerr << "unknown fabric '" << fabric_name << "'\n";
    return 2;
  }
  cfg.hosts = args.geti("hosts", 16);
  cfg.port_capacity = gbps(args.getd("gbps", 25.0));
  cfg.oversubscription = args.getd("oversub", 2.0);
  // A restored run takes its fabric from the snapshot; a fresh one is
  // checked here (exit 2) and the same shape is the chaos target below.
  std::optional<topology::BuiltFabric> fabric;
  if (!args.has("snapshot-in")) {
    fabric = build_fabric_or_report(cfg.fabric, cfg.hosts, cfg.port_capacity,
                                    cfg.oversubscription);
    if (!fabric) return 2;
  }
  // Nothing here prints per-flow finish times, so keep none.
  cfg.record_flow_finish = false;
  try {
    cfg.admission.policy = service::admission_policy_from_string(
        args.get("admission", "accept-all"));
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (expected accept-all|queue-with-cap|"
                             "tardiness-aware)\n";
    return 2;
  }
  cfg.admission.max_running =
      static_cast<std::uint64_t>(args.geti("max-running", 0));
  cfg.admission.queue_cap =
      static_cast<std::uint64_t>(args.geti("queue-cap", 16));
  cfg.admission.tardiness_limit = args.getd("tardiness-limit", 1.0);

  ObsArgs obs_args;
  if (!parse_obs(args, &obs_args)) return 2;
  obs::TraceRecorder recorder(1u << 20);
  obs::MetricsRegistry metrics;
  if (obs_args.tracing()) {
    cfg.trace_sink = &recorder;
    cfg.trace_detail = obs_args.detail;
  }
  if (obs_args.metrics()) cfg.metrics = &metrics;

  // Telemetry (DESIGN.md §15). All of it is derived from simulated time and
  // journaled state, so any combination of these flags leaves the service
  // results bit-identical (tests/test_service_telemetry.cpp pins this).
  const std::string prom_out = args.get("prom-out", "");
  const std::string chunk_out = args.get("trace-chunk-out", "");
  const std::string flightrec_out = args.get("flightrec-out", "");
  cfg.telemetry.metrics_every = args.getd("metrics-every", 0.0);
  cfg.telemetry.series_budget =
      static_cast<std::size_t>(args.geti("series-budget", 0));
  cfg.telemetry.flightrec_capacity =
      static_cast<std::size_t>(args.geti("flightrec", 0));
  cfg.telemetry.profile = args.has("profile");
  cfg.telemetry.slo.window = args.getd("slo-window", 10.0);
  if (const std::string spec = args.get("slo", ""); !spec.empty()) {
    std::string err;
    auto objectives = service::parse_slo_spec(spec, &err);
    if (!objectives) {
      std::cerr << "bad --slo spec: " << err << "\n";
      return 2;
    }
    cfg.telemetry.slo.objectives = std::move(*objectives);
  }
  if (!flightrec_out.empty() && cfg.telemetry.flightrec_capacity == 0) {
    cfg.telemetry.flightrec_capacity = 256;
  }
  if ((!prom_out.empty() || !chunk_out.empty()) &&
      cfg.telemetry.metrics_every <= 0.0) {
    cfg.telemetry.metrics_every = 0.1;
  }

  std::optional<obs::PromWriter> prom;
  if (!prom_out.empty()) {
    prom.emplace(prom_out,
                 static_cast<std::size_t>(args.geti("prom-rotate", 0)));
  }
  std::ofstream chunk_stream;
  std::optional<obs::TraceChunkWriter> chunk;
  if (!chunk_out.empty()) {
    chunk_stream.open(chunk_out, std::ios::trunc);
    if (!chunk_stream) {
      std::cerr << "cannot write " << chunk_out << "\n";
      return 1;
    }
    chunk.emplace(chunk_stream);
    // The chunk writer *is* the trace sink: events stream to disk at every
    // flush boundary instead of accumulating in the in-memory recorder.
    cfg.trace_sink = &*chunk;
    if (cfg.trace_detail == obs::TraceDetail::kOff) {
      cfg.trace_detail = obs::TraceDetail::kFlow;
    }
  }
  service::TelemetryOutputs touts;
  touts.prom = prom.has_value() ? &*prom : nullptr;
  touts.chunk = chunk.has_value() ? &*chunk : nullptr;
  touts.flightrec_path = flightrec_out;

  const std::string snapshot_in = args.get("snapshot-in", "");
  const std::string snapshot_out = args.get("snapshot-out", "");
  const std::uint64_t snapshot_every =
      static_cast<std::uint64_t>(args.geti("snapshot-every", 0));

  std::unique_ptr<service::ServiceLoop> loop;
  faultsim::FaultPlan chaos_plan;
  try {
    if (!snapshot_in.empty()) {
      // Configuration (scheduler, fabric, admission, chaos, the arrival
      // source: Poisson parameters or the --arrivals file, which must be
      // unchanged) comes from the snapshot; only observability flags apply.
      service::RestoreOptions ro;
      ro.trace_sink = cfg.trace_sink;
      ro.trace_detail = cfg.trace_detail;
      ro.metrics = cfg.metrics;
      ro.telemetry = touts;
      loop = service::restore_snapshot_file(snapshot_in, ro);
      std::cout << "restored " << snapshot_in << " at step "
                << loop->steps_executed() << " (t=" << loop->sim().now()
                << ", " << loop->journal().size() << " arrivals consumed)\n";
    } else {
      const int chaos = args.geti("chaos", 0);
      if (chaos > 0) {
        // Same fabric shape ServiceLoop builds internally. Stragglers stay
        // zero: service-mode workers are created at job-launch time, after
        // the plan is armed.
        faultsim::ChaosProfile profile;
        profile.seed = static_cast<std::uint64_t>(args.geti("chaos-seed", 1));
        profile.horizon = args.getd("chaos-horizon", 2.0);
        profile.link_faults = chaos;
        profile.brownouts = chaos;
        profile.stragglers = 0;
        chaos_plan = faultsim::from_chaos(profile, fabric->topo,
                                          /*worker_count=*/0,
                                          /*job_count=*/args.geti("jobs", 12));
        cfg.fault_plan = &chaos_plan;
      }
      loop = std::make_unique<service::ServiceLoop>(cfg);
      loop->attach_telemetry_outputs(touts);

      const std::string arrivals_path = args.get("arrivals", "");
      if (!arrivals_path.empty()) {
        std::unique_ptr<service::TraceFileArrivalReader> reader;
        try {
          reader =
              std::make_unique<service::TraceFileArrivalReader>(arrivals_path);
        } catch (const std::invalid_argument& e) {
          std::cerr << e.what() << "\n";  // names the malformed line
          return 2;
        }
        loop->set_generator(std::move(reader));
      } else {
        cluster::TraceConfig tc;
        tc.num_jobs = args.geti("jobs", 12);
        tc.arrival_rate = args.getd("rate", 2.0);
        tc.seed = static_cast<std::uint64_t>(args.geti("seed", 42));
        tc.iterations = args.geti("iterations", 2);
        const int burst = args.geti("burst-every", 0);
        const std::string arrivals_out = args.get("arrivals-out", "");
        if (!arrivals_out.empty()) {
          // Capture the exact stream the loop will consume: drain a twin
          // generator (same seed, same draw sequence) to a replayable file.
          service::PoissonArrivalGenerator twin(tc, burst);
          std::ofstream out(arrivals_out);
          if (!out) {
            std::cerr << "cannot write " << arrivals_out << "\n";
            return 1;
          }
          service::write_arrival_trace(out, service::drain(twin));
          std::cout << "wrote " << arrivals_out << "\n";
        }
        loop->set_generator(
            std::make_unique<service::PoissonArrivalGenerator>(tc, burst));
      }
    }

    // --series-budget caps the Simulator's --metrics-out series as well as
    // the service telemetry ones. A restored run keeps its snapshot's budget
    // unless the flag is given again.
    const std::size_t budget = args.has("series-budget")
                                   ? cfg.telemetry.series_budget
                                   : loop->config().telemetry.series_budget;
    if (budget > 0) metrics.set_series_budget(budget);

    // Snapshots are only valid at step boundaries (drain's final run() to
    // quiescence executes past the last boundary), so the terminal snapshot
    // is written after the step loop exhausts and *before* drain.
    while (loop->step()) {
      if (!snapshot_out.empty() && snapshot_every > 0 &&
          loop->steps_executed() % snapshot_every == 0) {
        const ScopedTimer st;
        service::save_snapshot_file(*loop, snapshot_out);
        loop->record_phase_ms("snapshot_save", st.elapsed_ms());
        // After the save, so the image matches an uninterrupted run.
        loop->note_snapshot();
      }
    }
    if (!snapshot_out.empty()) {
      const ScopedTimer st;
      service::save_snapshot_file(*loop, snapshot_out);
      loop->record_phase_ms("snapshot_save", st.elapsed_ms());
      loop->note_snapshot();
      std::cout << "wrote " << snapshot_out << "\n";
    }
    loop->drain();
    // Terminal flush so the last exposition/chunk reflects end-of-run state
    // (drain runs past the final step boundary).
    loop->flush_now();
  } catch (const service::SnapshotError& e) {
    if (loop != nullptr) loop->note_error(e.what());
    std::cerr << "snapshot error: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    // Input the run cannot take: a bad chaos horizon or SLO window, a job
    // wider than the fabric, a fault target outside it.
    if (loop != nullptr) loop->note_error(e.what());
    std::cerr << "serve failed: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    if (loop != nullptr) loop->note_error(e.what());
    std::cerr << "serve failed: " << e.what() << "\n";
    return 1;
  }

  loop->publish_metrics();
  const service::ServiceResult r = loop->result();
  Table t({"scheduler", "arrivals", "admitted", "queued", "rejected",
           "launched", "completed", "end (s)", "tardiness", "ctl passes"});
  t.add_row({r.scheduler_name, std::to_string(r.arrivals),
             std::to_string(r.admitted), std::to_string(r.queued),
             std::to_string(r.rejected), std::to_string(r.launched),
             std::to_string(r.completed), Table::num(r.end, 3),
             Table::num(r.total_tardiness, 3),
             std::to_string(r.control_invocations)});
  t.print(std::cout);
  if (loop->config().telemetry.enabled()) {
    std::cout << "telemetry: " << r.telemetry_flushes << " flushes";
    if (loop->slo() != nullptr) {
      std::cout << ", " << r.deadline_at_risk << " jobs deadline-at-risk";
    }
    std::cout << "\n";
  }

  if (prom.has_value()) {
    std::cout << "wrote " << prom_out << " (" << prom->writes()
              << " exposition writes)\n";
  }
  if (chunk.has_value()) {
    chunk_stream.flush();
    std::cout << "wrote " << chunk_out << " (" << chunk->chunks()
              << " chunks, " << chunk->total_events() << " events)\n";
  }
  if (!flightrec_out.empty() && loop->flight() != nullptr) {
    std::ofstream out(flightrec_out, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write " << flightrec_out << "\n";
      return 1;
    }
    loop->dump_flight(out);
    std::cout << "wrote " << flightrec_out << " ("
              << loop->flight()->recorded() << " events recorded)\n";
  }

  if (obs_args.tracing() && !obs_args.trace_out.empty()) {
    obs::PerfettoOptions popt;
    obs::MetricsSnapshot snap = metrics.snapshot();
    if (loop->config().telemetry.profile) {
      // Wall-clock self-profiling series ride into the trace as the
      // dedicated "service control" counter process (obs::kServicePid).
      // They stay out of `metrics` itself so the deterministic registries
      // never see wall time.
      const obs::MetricsSnapshot prof = loop->profile_snapshot();
      snap.series.insert(snap.series.end(), prof.series.begin(),
                         prof.series.end());
      snap.histograms.insert(snap.histograms.end(), prof.histograms.begin(),
                             prof.histograms.end());
    }
    const bool have_snap = obs_args.metrics() || !snap.empty();
    const obs::TraceRecorder* source = &recorder;
    obs::TraceRecorder merged(1u << 20);
    if (chunk.has_value()) {
      // Chunked streaming replaced the in-memory recorder; rebuild the
      // trace from the chunk file (byte-identical to an unchunked run).
      chunk_stream.close();
      std::ifstream in(chunk_out);
      try {
        obs::merge_trace_chunks(in, merged);
      } catch (const std::exception& e) {
        std::cerr << "cannot merge " << chunk_out << ": " << e.what() << "\n";
        return 1;
      }
      source = &merged;
    }
    if (!export_trace(obs_args.trace_out, *source,
                      have_snap ? &snap : nullptr, popt)) {
      return 1;
    }
  }
  if (obs_args.metrics()) {
    const obs::MetricsSnapshot snap = metrics.snapshot();
    if (!obs::write_metrics_csv(obs_args.metrics_out, snap)) {
      std::cerr << "cannot write " << obs_args.metrics_out << "\n";
      return 1;
    }
    std::cout << "wrote " << obs_args.metrics_out << "\n\n";
    obs::print_metrics_summary(std::cout, snap);
  }
  return 0;
}

void usage() {
  std::cout << "usage: echelonflow_cli <fig2|single|cluster|serve> "
               "[--key value]...\n"
               "see the header of tools/echelonflow_cli.cpp for options.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags* known = flags_for(cmd);
  if (known == nullptr) {
    usage();
    return 2;
  }
  Args args;
  if (!parse(argc, argv, 2, *known, &args)) {
    std::cerr << "see the header of tools/echelonflow_cli.cpp for the "
              << cmd << " options\n";
    return 2;
  }
  if (cmd == "fig2") return cmd_fig2();
  if (cmd == "single") return cmd_single(args);
  if (cmd == "cluster") return cmd_cluster(args);
  return cmd_serve(args);
}
