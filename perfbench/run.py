"""Certificate benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration is a fresh interpreter
running the treepoly CLI on the workload's cell (closed loop, one client, one
process), and every iteration's output is checked against expected.json.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over the run's iterations, times relative to reference.py
run between them); with --trace 1 it holds the per-layer metrics of traced
iterations, which alternate with untraced ones so that the tracing overhead
can be reported.  Lines before it give each metric's spread and sample
count, the raw times in seconds among them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS, check, load_expected  # noqa: E402

SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
REFERENCE = os.path.join(HERE, "reference.py")
# Share of the iterations' time spent on reference runs between them.
REFERENCE_SHARE = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_rel": "ref",
    "cpu_rel": "ref",
    "items_rel": "1/ref",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics, not part of the result line.
RAW_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "reference_s": "s",
}

PER_LAYER_UNITS = {
    "proofcheck.enumerate_s": "s",
    "proofcheck.negatives": "count",
    "proofcheck.analyze_s": "s",
    "proofcheck.analyze_calls": "count",
    "proofcheck.classify_s": "s",
    "proofcheck.partner_s": "s",
    "proofcheck.partner_calls": "count",
    "proofcheck.partner_errors": "count",
    "proofcheck.pairsum_s": "s",
    "proofcheck.pairing_s": "s",
    "proofcheck.coverage_s": "s",
    "proofcheck.coverage_cases": "count",
    "proofcheck.coverage_exhaustive": "count",
    "proofcheck.locality_s": "s",
    "proofcheck.path_append_s": "s",
    "proofcheck.diagonal_s": "s",
    "shadow.expansion_calls": "count",
    "shadow.expansion_s": "s",
    "shadow.signature_cache_entries": "count",
    "shadow.signature_cache_hit_ratio": "ratio",
    "alphamaps.admissible_yielded": "count",
    "alphamaps.admissible_s": "s",
    "alphamaps.sample_calls": "count",
    "alphamaps.sample_s": "s",
    "intpoly.indpoly_tree_calls": "count",
    "intpoly.indpoly_tree_s": "s",
    "intpoly.analyze_s": "s",
    "intpoly.scan_row_p50_ms": "ms",
    "intpoly.scan_row_p99_ms": "ms",
    "graphs.build_s": "s",
    "symfunc.schur_expand_calls": "count",
    "symfunc.schur_expand_s": "s",
    "reports.violations_recorded": "count",
    "reports.violations_kept": "count",
    "cli.render_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
}

# Report lemmas whose public `elapsed` is a proofcheck phase time.  The six
# pairing reports share one elapsed value, and so do the two locality ones.
PHASE_LEMMAS = {
    "proofcheck.pairing_s": ("class-partition", "star-class-partition"),
    "proofcheck.coverage_s": ("negative-coverage",),
    "proofcheck.locality_s": ("partner-preserves-foot13",),
    "proofcheck.path_append_s": ("path-append-identities",),
    "proofcheck.diagonal_s": ("y-diagonal-nonnegative",),
}
BATTERIES = ("proofcheck.verify_base", "proofcheck.verify_star")
CLASSIFIERS = (
    "proofcheck.negative_class_matches",
    "proofcheck.positive_class_matches",
    "proofcheck.star_class_matches",
)
PARTNERS = ("proofcheck.partner", "proofcheck.partner_star")


@dataclass
class Iteration:
    wall: float
    cpu: float
    rss_mb: float
    setup: float
    exit: int
    sidecar: dict
    items: int = 0


@dataclass
class RunTotals:
    checks: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    sha256: set[str] = field(default_factory=set)


def run_child(cmd: list[str], stdout, deadline: float):
    """Run cmd to completion; (start, wall, exit code, rusage), or None when
    it overran the deadline and was killed."""
    killed = []

    def kill(signum, frame):
        killed.append(True)
        proc.kill()

    # Block in wait4 so that the exit is seen at once (Popen.wait with a
    # timeout polls, which rounds times up by as much as 50 ms) and this
    # process stays idle while the child runs; an interval timer kills a
    # child that overruns the deadline.
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT)
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return None if killed else (t0, wall, proc.returncode, usage)


def spawn(argv: list[str], trace: bool, run: int, work: str, deadline: float) -> Optional[Iteration]:
    """Run one child to completion; None when it overran the deadline or
    left no sidecar."""
    sidecar = os.path.join(work, f"sidecar-{os.getpid()}.json")
    stdout = os.path.join(work, f"stdout-{os.getpid()}.txt")
    if os.path.exists(sidecar):
        os.remove(sidecar)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), sidecar, "1" if trace else "0", str(run), *argv]
    with open(stdout, "wb") as out:
        done = run_child(cmd, out, deadline)
    if done is None:
        return None
    t0, wall, code, usage = done
    try:
        with open(sidecar) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    data["stdout_path"] = stdout
    return Iteration(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=data["peak_rss_kb"] / 1024.0,
        setup=data["ready"] - t0,
        exit=code,
        sidecar=data,
    )


def probe_setups(count: int, work: str, deadline: float) -> Optional[list[float]]:
    """Set-up times of count import-only children; None if one failed."""
    setups = []
    for _ in range(count):
        probe = spawn([], False, 0, work, deadline)
        if probe is None:
            return None
        setups.append(probe.setup)
    return setups


def time_reference(deadline: float) -> Optional[float]:
    """Wall time of one run of reference.py; None if it failed or overran."""
    done = run_child([sys.executable, REFERENCE], subprocess.DEVNULL, deadline)
    if done is None or done[2] != 0:
        return None
    return done[1]


def read_report(workload: str, it: Iteration, report_path: str) -> Optional[str]:
    path = report_path if WORKLOADS[workload].verify else it.sidecar["stdout_path"]
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _sum(spans: list[Span], names, attr: str = "duration", keep=None) -> float:
    """Sum one field over the spans with one of names (and, when keep is
    given, whose parent's name passes keep)."""
    by_id = {s.id: s for s in spans}
    return sum(
        getattr(s, attr)
        for s in spans
        if s.name in names
        and (keep is None or keep(by_id[s.parent].name if s.parent is not None else None))
    )


def layer_metrics(sidecar: dict, traced_wall: float, setup: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans, the
    elapsed times of its returned reports, and the wrapper counters."""
    spans = [Span.from_list(row) for row in sidecar.get("spans", [])]
    own = self_times(spans)
    reports = sidecar.get("reports", [])
    m: dict[str, float] = {}

    def self_of(name: str) -> float:
        return sum(own[s.id] for s in spans if s.name == name)

    def lemma(names, index: int) -> float:
        for row in reports:
            if row[0] in names:
                return row[index]
        return 0

    m["proofcheck.enumerate_s"] = self_of("proofcheck.negative_members")
    m["proofcheck.negatives"] = _sum(
        spans, ("proofcheck.negative_members",), "yields", lambda parent: parent in BATTERIES
    )
    m["proofcheck.analyze_s"] = _sum(spans, ("proofcheck.analyze_map",))
    m["proofcheck.analyze_calls"] = _sum(spans, ("proofcheck.analyze_map",), "calls")
    m["proofcheck.classify_s"] = _sum(spans, CLASSIFIERS)
    # partner_star calls partner; count each injection once, at its top.
    def outer(parent):
        return parent != "proofcheck.partner_star"

    m["proofcheck.partner_s"] = _sum(spans, PARTNERS, "duration", outer)
    m["proofcheck.partner_calls"] = _sum(spans, PARTNERS, "calls", outer)
    m["proofcheck.partner_errors"] = _sum(spans, PARTNERS, "errors", outer)
    m["proofcheck.pairsum_s"] = _sum(spans, ("shadow.add_expansions",))
    for name, lemmas in PHASE_LEMMAS.items():
        m[name] = lemma(lemmas, 2)
    m["proofcheck.coverage_cases"] = lemma(("negative-coverage",), 1)
    m["proofcheck.coverage_exhaustive"] = int(
        m["proofcheck.coverage_cases"] > 0
        and m["proofcheck.coverage_cases"] in sidecar.get("admissible_counts", [])
    )
    m["shadow.expansion_calls"] = _sum(spans, ("shadow.expansion",), "calls")
    m["shadow.expansion_s"] = _sum(spans, ("shadow.expansion",))
    lookups = _sum(spans, ("shadow.expansion_from_signature",), "calls")
    entries = sidecar.get("signatures", 0)
    m["shadow.signature_cache_entries"] = entries
    m["shadow.signature_cache_hit_ratio"] = (lookups - entries) / lookups if lookups else 0.0
    m["alphamaps.admissible_yielded"] = _sum(spans, ("alphamaps.admissible_maps",), "yields")
    m["alphamaps.admissible_s"] = _sum(spans, ("alphamaps.admissible_maps",))
    m["alphamaps.sample_calls"] = _sum(spans, ("alphamaps.sample_admissible",), "calls")
    m["alphamaps.sample_s"] = _sum(spans, ("alphamaps.sample_admissible",))
    m["intpoly.indpoly_tree_calls"] = _sum(spans, ("intpoly.indpoly_tree",), "calls")
    m["intpoly.indpoly_tree_s"] = _sum(spans, ("intpoly.indpoly_tree",))
    m["intpoly.analyze_s"] = _sum(spans, ("intpoly.analyze",))
    rows = sidecar.get("durations", {}).get("intpoly.scan_row", [])
    m["intpoly.scan_row_p50_ms"] = percentile(rows, 50) * 1000
    m["intpoly.scan_row_p99_ms"] = percentile(rows, 99) * 1000
    m["graphs.build_s"] = _sum(spans, ("intpoly.family_graph",))
    m["symfunc.schur_expand_calls"] = _sum(spans, ("symfunc.schur_expand",), "calls")
    m["symfunc.schur_expand_s"] = _sum(spans, ("symfunc.schur_expand",))
    m["reports.violations_recorded"] = _sum(spans, ("reports.record",), "calls")
    m["reports.violations_kept"] = sum(row[3] for row in reports)
    m["cli.render_s"] = self_of("cli.main")
    m["trace.wall_s"] = traced_wall
    phases = sum(m[name] for name in PHASE_LEMMAS) + _sum(spans, ("intpoly.scan_row",))
    m["trace.unaccounted_s"] = traced_wall - setup - phases - m["cli.render_s"]
    return m


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (f"{name:36s} median {med:.6g} {unit}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "treepoly", "cli.py")):
        sys.stderr.write("error: run from a treepoly checkout; src/treepoly is missing\n")
        return 2
    expected = load_expected()
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    report_path = os.path.join(work, f"report-{os.getpid()}.json")
    workload = args.workload
    cli_argv = WORKLOADS[workload].argv(args.seed, report_path)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    # The first probe compiles bytecode and warms the file cache.  The rest
    # give set-up samples beside the ones every iteration yields, half before
    # and half after the iterations: the host's speed drifts over seconds,
    # and samples from both ends of the run follow it better.
    if probe_setups(1, work, deadline) is None:
        sys.stderr.write("error: the set-up probe did not complete\n")
        return 2
    setups = probe_setups(SETUP_PROBES, work, deadline) or []

    totals = RunTotals()
    plain: list[Iteration] = []
    layers: list[dict[str, float]] = []
    spans_out: list[list] = []
    walls: list[float] = []
    references: list[float] = []
    run = 0
    while True:
        # Start no iteration that would likely end past --seconds, so that
        # a run lasts about --seconds however long one iteration takes.
        ends = time.monotonic() - started + (statistics.median(walls) if walls else 0.0)
        traced = bool(args.trace) and run % 2 == 1
        if ends > args.seconds and plain and (not args.trace or layers):
            break
        # Reference runs interleave with the iterations so that they see the
        # same host speed; they are timed within --seconds.
        while not args.trace and sum(references) <= REFERENCE_SHARE * sum(walls):
            ref = time_reference(deadline)
            if ref is None:
                sys.stderr.write("error: reference.py failed or ran out of time\n")
                return 2
            references.append(ref)
        if os.path.exists(report_path):
            os.remove(report_path)
        it = spawn(cli_argv, traced, run, work, deadline)
        if it is None:
            totals.checks += 1
            totals.failed += 1
            totals.problems.append(f"iteration {run} crashed or ran out of time")
            break
        walls.append(it.wall)
        outcome = check(workload, expected, it.exit, read_report(workload, it, report_path))
        totals.checks += outcome.total
        totals.failed += outcome.failed
        totals.problems.extend(outcome.problems)
        totals.sha256.add(outcome.sha256)
        if traced:
            layers.append(layer_metrics(it.sidecar, it.wall, it.setup))
            spans_out.extend(it.sidecar.get("spans", []))
            for name in it.sidecar.get("missing", []):
                totals.problems.append(f"not traced, name is gone: {name}")
        else:
            it.items = outcome.items
            plain.append(it)
            setups.append(it.setup)
        run += 1

    setups.extend(probe_setups(SETUP_PROBES, work, deadline) or [])
    for path in (report_path, os.path.join(work, f"sidecar-{os.getpid()}.json"),
                 os.path.join(work, f"stdout-{os.getpid()}.txt")):
        if os.path.exists(path):
            os.remove(path)

    print(f"workload {workload}  seed {args.seed}  command: treepoly {' '.join(WORKLOADS[workload].args)}")
    print(f"checks_total {totals.checks}  checks_failed {totals.failed}")
    for problem in sorted(set(totals.problems)):
        print(f"  check: {problem}")
    for digest in sorted(totals.sha256):
        print(f"report sha256 {digest}")

    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        ref = statistics.median(references)
        raw = {
            "wall_s": [it.wall for it in plain],
            "cpu_s": [it.cpu for it in plain],
            "items_per_s": [it.items / it.wall for it in plain],
            "reference_s": references,
        }
        for name, unit in RAW_UNITS.items():
            print(describe(name, raw[name], unit))
        series = {
            "setup_s": setups,
            "wall_rel": [wall / ref for wall in raw["wall_s"]],
            "cpu_rel": [cpu / ref for cpu in raw["cpu_s"]],
            "items_rel": [rate * ref for rate in raw["items_per_s"]],
            "peak_rss_mb": [it.rss_mb for it in plain],
        }
        for name, unit in END_TO_END_UNITS.items():
            print(describe(name, series[name], unit))
            metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
    elif plain and layers:
        untraced = statistics.median(it.wall for it in plain)
        for row in layers:
            row["trace.overhead_ratio"] = row["trace.wall_s"] / untraced
        for name, unit in PER_LAYER_UNITS.items():
            values = [row[name] for row in layers]
            print(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        with open(os.path.join(work, f"spans-{workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "run",
                                  "calls", "errors", "yields"], "spans": spans_out}, fh)

    correct = totals.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": totals.checks,
        "failed": totals.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
