#!/usr/bin/env python3
"""End-to-end benchmark runner for the EchelonFlow simulator.

Full set (the default):

    python3 bench/e2e/run.py [--seed N]

builds the `bench_e2e` driver out of tree in Release (build-e2e/), runs every
workload 5 times in fresh processes in round-robin order plus one traced
repetition each, checks the outputs, prints every end-to-end metric as
`workload metric median unit q1 q3` followed by the per-layer ledger, writes a
results JSON under build-e2e/ and compares it with bench/e2e/baseline.json.

Single measurement run (the interface BENCHMARK.json declares):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in about S/5 fresh processes, each on its own arrival
process derived from N, and prints, as the last stdout line, a JSON verdict
carrying the medians of the end-to-end metrics (--trace 0) or, from
untraced/traced pairs on the same inputs, of the per-layer metrics
(--trace 1).

Seed 42 is the development seed; seed 7 is held out for claims.
"""

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
DRIVER = BUILD / "bench_e2e"
BASELINE = HERE / "baseline.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("serve-leafspine", "serve-threads2", "serve-queued-slo",
             "cluster-sweep")
SET_REPS = 5
# Nominal length of one driver process; a run of S seconds uses
# round(S / PROCESS_SECONDS) processes, each on its own arrival process, and
# reports their median. Cross-seed spread falls with the number of arrival
# processes a run averages over.
PROCESS_SECONDS = 5
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

# End-to-end metrics: unit and direction. Their regression bounds live in
# BENCHMARK.json; ABS_FLOORS adds an absolute slack for metrics whose
# relative noise is large because the value is small.
E2E_UNITS = {
    "jobs_per_s": "1/s",
    "wall_s": "s",
    "step_p50_us": "us",
    "step_p999_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
ABS_FLOORS = {"setup_s": 0.02}

# Per-layer metrics common to every workload (bench/e2e/README.md has the
# map from each one to the end-to-end metric it moves).
LAYER_UNITS = {
    "total_s": "s",
    "service_s": "s",
    "ctlplane_s": "s",
    "other_s": "s",
    "trace_overhead_ratio": "ratio",
    "sched.passes": "count",
    "sched.full_passes": "count",
    "sched.scoped_passes": "count",
    "alloc.passes": "count",
    "alloc.components_filled": "count",
    "alloc.cache_hit_ratio": "ratio",
    "alloc.flows_per_class": "ratio",
    "route.lookups": "count",
    "route.bfs": "count",
    "route.hit_ratio": "ratio",
    "sim.flows": "count",
    "registry.echelonflows": "count",
}

MIN_TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


# --- statistics --------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        raise BenchError(f"quartiles need two samples, got {len(values)}")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n - 1e-9)


def require_tail(n, q, what):
    """Rejects a percentile with fewer than MIN_TAIL_SAMPLES beyond it."""
    beyond = samples_beyond(n, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise BenchError(f"{what}: p{q * 100:g} of {n} samples has only "
                         f"{beyond} beyond it (need {MIN_TAIL_SAMPLES})")


def arrival_seed(seed, index):
    """The driver seed of the index-th arrival process of run seed `seed`."""
    return ((seed << 8) | index) & (2**64 - 1)


def regressed(better, bound, floor, base, new):
    """True when `new` is worse than `base` by more than the bound allows:
    bound * |base|, but never less than the absolute floor."""
    allowed = max(bound * abs(base), floor)
    worse_by = new - base if better == "lower" else base - new
    return worse_by > allowed


# --- build and spawn ---------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"repository sources not found under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}") from e
        if rc != 0:
            raise BenchError(f"build step failed ({rc}): {' '.join(cmd)}")


def run_once(workload, seed, traced):
    """Runs the driver once; returns its record plus wall_s, peak_rss_mb and
    a spawn-relative setup_s."""
    args = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    spawned = time.monotonic()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    wall_s = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload}: driver exited {proc.returncode} "
                         f"without a result") from e
    rec["exit_code"] = proc.returncode
    rec["wall_s"] = wall_s
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    # The driver times setup from its own main(); add process start-up.
    rec["setup_s"] += rec["main_mono_s"] - spawned
    if rec.get("build_type") != "Release":
        raise BenchError(f"driver built as {rec.get('build_type')!r}, not "
                         f"Release; refusing to measure")
    print(f"  {workload} seed={seed}{' traced' if traced else ''}: "
          f"wall {wall_s:.2f} s, loop {rec.get('loop_s', 0):.2f} s, "
          f"digest {rec.get('digest')}", file=sys.stderr)
    return rec


# --- correctness -------------------------------------------------------------

def verify(workload, records):
    """Errors (each naming the workload) for failed runs, broken job
    accounting, or result digests that differ between repetitions of the
    same input (same driver seed)."""
    errors = []
    for rec in records:
        if not rec.get("ok") or rec.get("exit_code", 0) != 0:
            errors.append(f"{workload}: run failed: {rec.get('error')}")
        elif rec["completed"] != rec["attempted"] - rec["rejected"]:
            errors.append(f"{workload}: completed {rec['completed']} != "
                          f"arrivals {rec['attempted']} - rejected "
                          f"{rec['rejected']}")
        if rec.get("step_tail") == "p99.9":
            try:
                require_tail(rec["steps"], 0.999, f"{workload} step latency")
            except BenchError as e:
                errors.append(str(e))
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.get("seed"), set()).add(rec.get("digest"))
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            errors.append(f"{workload}: result digest differs between "
                          f"repetitions of seed {seed} "
                          f"({', '.join(sorted(map(str, digests)))})")
    return errors


# --- metrics -----------------------------------------------------------------

def layer_values(rec):
    """The common per-layer metrics of one traced record."""
    layers, counts = rec["layers"], rec["counts"]
    if "service.step_s" in layers:
        service = (layers["service.admission_s"] + layers["service.launch_s"]
                   + layers["service.flush_s"])
        ctlplane = layers["sched.control_s"] + layers["alloc.allocate_s"]
        total = layers["service.step_s"]
        other = layers["netsim.other_s"]
    else:
        service = layers["cluster.launch_s"]
        ctlplane = layers["cluster.ctlplane_s"]
        total = layers["cluster.run_s"] + service
        other = layers["cluster.other_s"]
    values = {"total_s": total, "service_s": service, "ctlplane_s": ctlplane,
              "other_s": other}
    for name in LAYER_UNITS:
        if name in counts:
            values[name] = counts[name]
    return values


def median_of(records, key):
    return statistics.median(rec[key] for rec in records)


def e2e_metrics(plain):
    return {name: median_of(plain, name) for name in E2E_UNITS}


def layer_metrics(plain, traced):
    per_rec = [layer_values(rec) for rec in traced]
    # Counts report an observed value, not the mean of the middle two.
    out = {name: (statistics.median_low if LAYER_UNITS[name] == "count"
                  else statistics.median)(v[name] for v in per_rec)
           for name in per_rec[0]}
    out["trace_overhead_ratio"] = (median_of(traced, "loop_s")
                                   / median_of(plain, "loop_s"))
    return out


def verdict(workload, plain, traced, trace):
    records = plain + traced
    errors = verify(workload, records)
    if trace:
        values, units = layer_metrics(plain, traced), LAYER_UNITS
    else:
        values, units = e2e_metrics(plain), E2E_UNITS
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["attempted"] - rec["completed"] for rec in records)
    return errors, {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def measure(workload, seed, seconds, trace):
    """One process per arrival process; with tracing, an untraced and a
    traced process per arrival process, on half as many."""
    processes = max(1, round(seconds / PROCESS_SECONDS))
    plain, traced = [], []
    if not trace:
        for i in range(processes):
            plain.append(run_once(workload, arrival_seed(seed, i), False))
        return plain, traced
    for i in range(max(1, processes // 2)):
        plain.append(run_once(workload, arrival_seed(seed, i), False))
        traced.append(run_once(workload, arrival_seed(seed, i), True))
    return plain, traced


# --- full set ----------------------------------------------------------------

def git_state():
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if commit.returncode != 0:
        return "unknown", None
    return commit.stdout.strip(), bool(status.stdout.strip())


def summarize(plain, traced):
    metrics = {}
    for name, unit in E2E_UNITS.items():
        q1, med, q3 = quartiles(rec[name] for rec in plain)
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
    return {
        "digest": plain[0]["digest"],
        "steps": plain[0]["steps"],
        "step_tail": plain[0]["step_tail"],
        "metrics": metrics,
        "layers": traced["layers"],
        "counts": traced["counts"],
        "trace_overhead_ratio": traced["loop_s"] / median_of(plain, "loop_s"),
    }


def ledger_errors(workload, layers):
    residual = layers.get("netsim.other_s", layers.get("cluster.other_s"))
    if residual < 0:
        return [f"{workload}: ledger terms exceed the measured total "
                f"(residual {residual:.4f} s)"]
    return []


def print_summary(results):
    print(f"{'workload':18} {'metric':14} {'median':>12} {'unit':5} "
          f"{'q1':>12} {'q3':>12}")
    for workload, summary in results.items():
        for name, m in summary["metrics"].items():
            print(f"{workload:18} {name:14} {m['median']:12.6g} "
                  f"{m['unit']:5} {m['q1']:12.6g} {m['q3']:12.6g}")
        print(f"{workload:18} {'steps':14} {summary['steps']:12d} count "
              f"(step_p999_us is the {summary['step_tail']})")
    print()
    print("per-layer ledger (one traced run per workload)")
    for workload, summary in results.items():
        rows = {**summary["layers"], **summary["counts"],
                "trace_overhead_ratio": summary["trace_overhead_ratio"]}
        for name, value in rows.items():
            spec = "14d" if isinstance(value, int) else "14.6g"
            print(f"{workload:18} {name:32} {value:{spec}}")


def compare_with_baseline(results, bounds):
    if not BASELINE.is_file():
        return
    base = json.loads(BASELINE.read_text())
    print()
    print(f"against {BASELINE.relative_to(ROOT)} (commit "
          f"{base['provenance']['commit']}, nproc "
          f"{base['provenance']['nproc']}):")
    for workload, summary in results.items():
        base_w = base["workloads"].get(workload)
        if base_w is None:
            continue
        if base_w["digest"] != summary["digest"]:
            print(f"{workload:18} result digest changed "
                  f"({base_w['digest']} -> {summary['digest']})")
        for name, m in summary["metrics"].items():
            if name not in bounds or name not in base_w["metrics"]:
                continue
            better, bound = bounds[name]
            old = base_w["metrics"][name]["median"]
            worse = regressed(better, bound, ABS_FLOORS.get(name, 0.0), old,
                              m["median"])
            print(f"{workload:18} {name:14} {old:12.6g} -> "
                  f"{m['median']:12.6g} {'WORSE' if worse else 'ok'}")


def load_bounds():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_set(seed):
    build()
    driver_seed = arrival_seed(seed, 0)
    plain = {w: [] for w in WORKLOADS}
    traced = {}
    for rep in range(SET_REPS):
        for workload in WORKLOADS:
            plain[workload].append(run_once(workload, driver_seed, False))
        # Mid-set, so host-speed drift biases the overhead ratio least.
        if rep == SET_REPS // 2:
            traced = {w: run_once(w, driver_seed, True) for w in WORKLOADS}

    errors = []
    results = {}
    for workload in WORKLOADS:
        errors += verify(workload, plain[workload] + [traced[workload]])
        errors += ledger_errors(workload, traced[workload]["layers"])
        results[workload] = summarize(plain[workload], traced[workload])
    print_summary(results)
    compare_with_baseline(results, load_bounds())
    if errors:
        for e in errors:
            print(f"ERROR {e}", file=sys.stderr)
        return 1

    commit, dirty = git_state()
    doc = {
        "provenance": {
            "commit": commit,
            "dirty": dirty,
            "build_type": traced[WORKLOADS[0]]["build_type"],
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "machine": platform.machine(),
            "recorded_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
        },
        "seed": seed,
        "reps": SET_REPS,
        "workloads": results,
        "runs": {w: plain[w] + [traced[w]] for w in WORKLOADS},
    }
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = BUILD / f"results-seed{seed}-{stamp}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload is None:
            return run_set(args.seed)
        if args.seconds is None or args.seconds <= 0:
            ap.error("--workload needs a positive --seconds")
        build()
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                args.trace == 1)
        errors, result = verdict(args.workload, plain, traced,
                                 args.trace == 1)
    except BenchError as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
