#!/usr/bin/env python3
"""Line-coverage ratchet for the service, netsim, obs, cluster and runtime
subsystems.

Walks a --coverage (gcc/gcov) build tree for .gcda counter files, runs gcov
on each object's counters, aggregates "Lines executed" per tracked source
prefix, and fails if any tracked subsystem drops below its ratchet floor.
The floors are deliberately below the currently-measured numbers (they gate
*erosion*, not noise): raise them when new tests land, never lower them to
make a regression pass.

Usage (after building with CMAKE_CXX_FLAGS=--coverage and running ctest):
  python3 tools/check_coverage.py --build-dir build-coverage \
      --summary-out coverage_summary.txt

Exit status: 0 = all tracked prefixes at/above their floor, 1 = a floor was
broken (or a tracked prefix has no coverage data at all), 2 = usage/IO
error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# Tracked source prefixes (repo-relative) and their line-coverage ratchet
# floors, in percent. src/service is the subject of the online-service PR
# (tests/test_service.cpp drives every layer of it); src/netsim is the
# simulator core underneath it.
# Measured on the CI test set at floor-setting time: src/service 87.1%,
# src/netsim 89.2% -- floors sit a few points below to absorb noise.
FLOORS = {
    "src/service": 82.0,
    "src/netsim": 80.0,
    # Telemetry/exporter layer (DESIGN.md §15): driven by test_obs and
    # tests/test_service_telemetry.cpp.
    "src/obs": 80.0,
    # The cluster Stack shared by run_experiment and the service, plus
    # run_experiment and run_sweep (DESIGN.md §13): driven by test_cluster
    # and test_service.
    # Measured on the CI test set at floor-setting time: 95.3%
    # (385/404 lines, Debug --coverage, gcc 12).
    "src/cluster": 92.0,
    # The Coordinator (interval churn rule, signature reuse), agents and the
    # priority-queue enforcer: driven by test_runtime, test_edge_cases and
    # test_cluster. Measured on the CI test set at floor-setting time:
    # 87.3% (158/181 lines, Debug --coverage, gcc 12).
    "src/runtime": 84.0,
}

FILE_RE = re.compile(r"^File '(?P<path>[^']+)'")
LINES_RE = re.compile(
    r"^Lines executed:(?P<pct>[0-9.]+)% of (?P<count>\d+)")


def find_gcda(build_dir):
    out = []
    # Absolute paths: gcov runs from a scratch cwd (it litters *.gcov files
    # otherwise), so relative .gcda paths would not resolve from there.
    for root, _dirs, files in os.walk(os.path.abspath(build_dir)):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    return out


def normalize(path, repo_root):
    """gcov reports paths as written into the .gcno (absolute or
    build-relative); map them back to repo-relative."""
    p = os.path.normpath(path)
    if not os.path.isabs(p):
        return p.lstrip("./")
    try:
        return os.path.relpath(p, repo_root)
    except ValueError:
        return p


def collect(build_dir, repo_root):
    """(repo-relative source path -> (covered_lines, total_lines)), taking
    the best-covered record when a header shows up in many objects."""
    per_file = {}
    gcdas = find_gcda(build_dir)
    if not gcdas:
        print(f"error: no .gcda files under {build_dir} -- build with "
              "--coverage and run the tests first", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as scratch:
        for gcda in gcdas:
            proc = subprocess.run(
                ["gcov", "-n", gcda],
                cwd=scratch, capture_output=True, text=True, check=False)
            current = None
            for line in proc.stdout.splitlines():
                m = FILE_RE.match(line)
                if m:
                    current = normalize(m.group("path"), repo_root)
                    continue
                m = LINES_RE.match(line)
                if m and current is not None:
                    total = int(m.group("count"))
                    covered = round(float(m.group("pct")) / 100.0 * total)
                    old = per_file.get(current)
                    # The same header/template instantiates differently per
                    # TU; keep the most-covered view (the union is what the
                    # whole test run achieved, this is its lower bound).
                    if old is None or covered > old[0]:
                        per_file[current] = (covered, total)
                    current = None
    return per_file


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--repo-root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--summary-out", default="",
                    help="also write the per-file table to this path")
    args = ap.parse_args()

    per_file = collect(args.build_dir, args.repo_root)

    lines = []
    failures = []
    for prefix, floor in sorted(FLOORS.items()):
        tracked = {p: v for p, v in per_file.items()
                   if p.startswith(prefix + "/")}
        covered = sum(c for c, _ in tracked.values())
        total = sum(t for _, t in tracked.values())
        if total == 0:
            failures.append(f"{prefix}: no coverage data recorded")
            lines.append(f"{prefix}: NO DATA (floor {floor:.0f}%)")
            continue
        pct = 100.0 * covered / total
        status = "ok" if pct >= floor else "BELOW FLOOR"
        if pct < floor:
            failures.append(
                f"{prefix}: {pct:.2f}% < floor {floor:.0f}%")
        lines.append(f"{prefix}: {pct:.2f}% line coverage "
                     f"({covered}/{total} lines, floor {floor:.0f}%) {status}")
        for path in sorted(tracked):
            c, t = tracked[path]
            lines.append(f"  {path:<44} {100.0 * c / max(t, 1):6.2f}%  "
                         f"({c}/{t})")

    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.summary_out:
        with open(args.summary_out, "w") as f:
            f.write(report)

    if failures:
        print("\nFAIL: coverage ratchet broken:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: all tracked subsystems at or above their ratchet floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
