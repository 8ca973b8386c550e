#!/usr/bin/env python3
"""Perf-smoke regression gate for the hot-path benchmarks.

Compares fresh google-benchmark JSON output (bench_allocator,
bench_coordinator_scale, bench_simloop, bench_parallel_alloc,
bench_route_class, bench_service, bench_telemetry) against the
checked-in baselines in BENCH_hotpath.json and fails if any benchmark
regressed by more than the tolerance. Run from CI after the perf-smoke leg;
deliberately NOT a ctest -- it needs the baseline file and a calibrated
machine-speed correction, both of which live outside the test binaries.

CI machines are not the machine the baseline was recorded on, so raw
nanosecond comparisons are meaningless there. Instead the check is
*relative*: every fresh run is first normalized by the median
fresh/baseline ratio across all benchmarks (the machine-speed calibration
factor), and only benchmarks whose normalized ratio still exceeds
1 + tolerance are flagged. A uniform slowdown (slower CI box) cancels out;
a *skewed* slowdown -- e.g. an observability branch creeping into one hot
loop while the others stay put -- does not. Use --no-normalize for
same-machine comparisons against the recorded absolute numbers.

Thread-scaling family (throughput_vs_threads, EXPERIMENTS.md EXT-P):
benchmarks whose name carries a "threads:" argument scale with the machine
*shape*, not just its speed -- an 8-thread fill on a 2-core box is a
different experiment from the same fill on a 32-core box, and a uniform
calibration factor cannot correct for that. Two rules therefore apply:

  1. thread-family benchmarks never contribute to the machine-speed
     calibration median (their ratios would skew it on differently-shaped
     hosts), and
  2. they are gated only when the fresh run's echelon_hardware_concurrency
     context matches the baseline run's; on a shape mismatch they are
     reported but skipped, with a note.

A baseline run may additionally carry a "single_core_host" context marker
(stamped when the recording machine had 1 CPU): thread-scaling numbers from
such a run are degenerate -- every width timeshares one core -- so its
thread-family benchmarks are always reported as SKIPPED, even against a
fresh 1-CPU run.

Route-structure family (bench_route_class, EXPERIMENTS.md EXT-Q):
benchmarks whose name carries a "routes:" argument sweep the route-sharing
*structure* of the flow population. Like the thread family they are
excluded from the machine-speed calibration median (the class-vs-per-flow
ratios span nearly two orders of magnitude and would swamp it); unlike the
thread family they do not depend on machine shape and are gated normally.

Online-service family (bench_service, EXPERIMENTS.md EXT-S): benchmarks
whose name carries a "svc:" argument run the streaming service loop end to
end (admission + incremental launch + control ticks) or its snapshot
save/restore paths. Their cost tracks the service-mode control-plane
tiers, not raw machine speed, so they follow the route rule:
calibration-excluded, gated normally.

Telemetry family (bench_telemetry, EXPERIMENTS.md EXT-T): benchmarks whose
name carries a "tel:" argument exercise the service-plane telemetry path
(DESIGN.md §15) -- flush rendering, flight-recorder appends, and the
telemetry-on/off service-loop pair. Calibration-excluded, gated normally,
plus one extra *same-run* gate: any fresh benchmark exporting a
"telemetry_overhead_ratio" counter (BM_TelemetryOverheadPair interleaves a
telemetry-off and a telemetry-on drain of the same job stream inside each
iteration, so machine drift cancels) must stay within
--overhead-tolerance (default 2%). The ratio is measured on one machine
inside one process, so no baseline or calibration is involved -- this is
the "telemetry costs <= 2 percent" acceptance gate.

Usage:
  bench_allocator         --benchmark_out=alloc.json --benchmark_out_format=json
  bench_coordinator_scale --benchmark_out=coord.json --benchmark_out_format=json
  bench_simloop           --benchmark_out=simloop.json --benchmark_out_format=json
  bench_parallel_alloc    --benchmark_out=par.json --benchmark_out_format=json
  tools/check_bench_regression.py --baseline BENCH_hotpath.json \
      --tolerance 2.0 alloc.json coord.json simloop.json par.json

A benchmark recorded with --benchmark_repetitions contributes the median of
its repetitions, on the baseline side and on the fresh side alike.

Exit status: 0 = all within tolerance, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import statistics
import sys

# Benchmark names carrying this argument tag belong to the thread-scaling
# family (see module docstring).
THREAD_FAMILY_TAG = "threads:"

# Benchmark names carrying this argument tag belong to the route-structure
# family: calibration-excluded but gated normally (see module docstring).
ROUTE_FAMILY_TAG = "routes:"

# Benchmark names carrying this argument tag belong to the online-service
# family: calibration-excluded but gated normally (see module docstring).
SERVICE_FAMILY_TAG = "svc:"

# Benchmark names carrying this argument tag belong to the telemetry
# family: calibration-excluded, gated normally. Benchmarks exporting this
# counter are additionally subject to the same-run telemetry-on/off
# overhead gate (see module docstring).
TEL_FAMILY_TAG = "tel:"
TEL_OVERHEAD_COUNTER = "telemetry_overhead_ratio"

# Baseline-run context marker: the recording host had a single CPU, so its
# thread-scaling numbers are degenerate and never gated.
SINGLE_CORE_MARKER = "single_core_host"


def is_thread_family(name):
    return THREAD_FAMILY_TAG in name


def is_route_family(name):
    return ROUTE_FAMILY_TAG in name


def is_service_family(name):
    return SERVICE_FAMILY_TAG in name


def is_tel_family(name):
    return TEL_FAMILY_TAG in name


def check_telemetry_overhead(overhead_ratios, tolerance_pct):
    """Same-run telemetry-on/off ratios exceeding the overhead tolerance.

    `overhead_ratios` maps benchmark name -> list of exported
    telemetry_overhead_ratio counters, one per repetition (on/off
    wall-clock, interleaved inside one process). The gate applies to the
    per-name median so --benchmark_repetitions runs are robust to a single
    noisy repetition. Returns a list of (name, median ratio) failures; runs
    without the counter degrade to no-op rather than error.
    """
    limit = 1.0 + tolerance_pct / 100.0
    failures = []
    for name, ratios in sorted(overhead_ratios.items()):
        ratio = statistics.median(ratios)
        status = "ok"
        if ratio > limit:
            status = f"OVER BUDGET {100.0 * (ratio - 1.0):+.2f}%"
            failures.append((name, ratio))
        print(f"  telemetry overhead {name:<40} on/off x{ratio:.4f} "
              f"(median of {len(ratios)})  {status}")
    return failures


def load_baseline(path):
    """(name -> baseline median real_time ns, name -> run hardware concurrency,
    set of names recorded on a single_core_host-marked run) from
    BENCH_hotpath.json's runs blob."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    hw = {}
    single_core = set()
    for run in doc.get("runs", {}).values():
        context = run.get("context", {})
        run_hw = context.get("echelon_hardware_concurrency")
        run_single_core = str(context.get(SINGLE_CORE_MARKER, "")) == "true"
        for b in run.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            times.setdefault(b["name"], []).append(float(b["real_time"]))
            if run_hw is not None:
                hw[b["name"]] = str(run_hw)
            if run_single_core:
                single_core.add(b["name"])
    if not times:
        raise ValueError(f"{path}: no benchmark baselines found under 'runs'")
    return median_times(times), hw, single_core


def load_fresh(paths, require_metrics_context):
    """(name -> fresh median real_time ns, name -> run hardware concurrency,
    name -> per-repetition telemetry_overhead_ratio counters) across all
    given benchmark JSON files."""
    times = {}
    hw = {}
    overhead = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        context = doc.get("context", {})
        if require_metrics_context and "echelon_metrics" not in context:
            raise ValueError(
                f"{path}: context is missing the echelon_metrics snapshot "
                "(bench_util.hpp should attach it)"
            )
        run_hw = context.get("echelon_hardware_concurrency")
        for b in doc.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            times.setdefault(b["name"], []).append(float(b["real_time"]))
            if run_hw is not None:
                hw[b["name"]] = str(run_hw)
            if TEL_OVERHEAD_COUNTER in b:
                overhead.setdefault(b["name"], []).append(
                    float(b[TEL_OVERHEAD_COUNTER]))
    return median_times(times), hw, overhead


def median_times(times):
    """name -> median real_time over that name's repetitions."""
    return {name: statistics.median(ts) for name, ts in times.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="+", help="google-benchmark JSON outputs")
    ap.add_argument("--baseline", default="BENCH_hotpath.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="max allowed regression in percent after calibration (default 2)",
    )
    ap.add_argument(
        "--no-normalize",
        action="store_true",
        help="compare raw times (same machine as the baseline recording)",
    )
    ap.add_argument(
        "--require-metrics-context",
        action="store_true",
        help="fail if a fresh run lacks the echelon_metrics context blob",
    )
    ap.add_argument(
        "--overhead-tolerance",
        type=float,
        default=2.0,
        help="max telemetry-on vs telemetry-off overhead in percent, gated "
        "within the fresh run on same-run tel:1/tel:0 pairs (default 2)",
    )
    args = ap.parse_args()

    try:
        baseline, baseline_hw, baseline_single_core = load_baseline(
            args.baseline)
        fresh, fresh_hw, fresh_overhead = load_fresh(
            args.fresh, args.require_metrics_context)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    common = sorted(set(baseline) & set(fresh))
    if not common:
        print("error: no benchmark names in common with the baseline",
              file=sys.stderr)
        return 2

    ratios = {name: fresh[name] / baseline[name] for name in common}
    # Machine-speed calibration from the shape- and structure-insensitive
    # benchmarks only (falling back to everything if nothing else ran).
    calib_pool = [r for n, r in ratios.items()
                  if not is_thread_family(n) and not is_route_family(n)
                  and not is_service_family(n)
                  and not is_tel_family(n)]
    if not calib_pool:
        calib_pool = list(ratios.values())
    calibration = 1.0 if args.no_normalize else statistics.median(calib_pool)
    limit = 1.0 + args.tolerance / 100.0

    print(f"baseline: {args.baseline} ({len(common)} comparable benchmarks)")
    calib_kind = ("raw" if args.no_normalize
                  else "median fresh/baseline, thread/route/service/"
                  "telemetry families excluded")
    print(f"machine-speed calibration: x{calibration:.3f} ({calib_kind})")
    failures = []
    shape_skipped = []
    for name in common:
        norm = ratios[name] / calibration
        if is_thread_family(name) and name in baseline_single_core:
            shape_skipped.append(name)
            print(f"  {name:<40} base {baseline[name]:>12.0f} ns  "
                  f"fresh {fresh[name]:>12.0f} ns  norm x{norm:.3f}  "
                  f"SKIPPED (baseline recorded on a single_core_host)")
            continue
        if is_thread_family(name) and baseline_hw.get(name) != fresh_hw.get(
            name
        ):
            shape_skipped.append(name)
            print(f"  {name:<40} base {baseline[name]:>12.0f} ns  "
                  f"fresh {fresh[name]:>12.0f} ns  norm x{norm:.3f}  "
                  f"SKIPPED (hw {baseline_hw.get(name)} -> "
                  f"{fresh_hw.get(name)})")
            continue
        status = "ok"
        if norm > limit:
            status = f"REGRESSED {100.0 * (norm - 1.0):+.2f}%"
            failures.append(name)
        print(f"  {name:<40} base {baseline[name]:>12.0f} ns  "
              f"fresh {fresh[name]:>12.0f} ns  norm x{norm:.3f}  {status}")

    overhead_failures = check_telemetry_overhead(
        fresh_overhead, args.overhead_tolerance)

    missing = sorted(set(baseline) - set(fresh))
    if missing:
        print(f"note: {len(missing)} baseline benchmarks not in this run "
              f"(e.g. {missing[0]})")
    if shape_skipped:
        print(f"note: {len(shape_skipped)} thread-scaling benchmark(s) "
              "skipped: single-core baseline recording or machine shape "
              "differs from the baseline's")

    if overhead_failures:
        print(f"\nFAIL: {len(overhead_failures)} telemetry pair(s) over the "
              f"{args.overhead_tolerance}% on/off overhead budget:",
              file=sys.stderr)
        for name, ratio in overhead_failures:
            print(f"  {name}: x{ratio:.4f}", file=sys.stderr)
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.tolerance}% with observability disabled:",
              file=sys.stderr)
        for name in failures:
            print(f"  {name}", file=sys.stderr)
    if failures or overhead_failures:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.tolerance}% and "
          "every telemetry pair stayed within the overhead budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
