"""Tests of the benchmark's own code: span arithmetic, the tracer, the
output checks, the per-layer metric definitions and the reference program.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import subprocess
import sys
import time

from run import END_TO_END_UNITS, PER_LAYER_UNITS, REFERENCE, ROOT, layer_metrics, percentile
from spans import Span, Tracer, self_times
from workloads import check, coefficient_digest, load_expected


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 5.0, 9.0, 0, 0),
        Span(3, "c", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_tracer_merges_calls_and_times_generators_per_resume():
    tracer = Tracer(run=7)
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def items(n):
        for i in range(n):
            yield inner(i)

    gen = tracer.wrap(items, "gen")

    def outer():
        total = 0
        for value in gen(3):
            time.sleep(0.01)  # consumer work must not count as generator time
            total += value
        return total + inner(0)

    assert tracer.wrap(outer, "outer")() == 7
    spans = {s.name: s for s in tracer.spans()}
    assert spans["outer"].parent is None and spans["outer"].calls == 1
    assert spans["gen"].parent == spans["outer"].id
    assert spans["gen"].yields == 3 and spans["gen"].calls == 4
    assert spans["gen"].duration < 0.01
    assert spans["outer"].duration >= 0.03
    assert {s.run for s in spans.values()} == {7}
    # inner runs under gen three times and under outer once: two spans.
    inners = [s for s in tracer.spans() if s.name == "inner"]
    assert sorted(s.calls for s in inners) == [1, 3]
    assert all(t >= 0 for t in self_times(tracer.spans()).values())


def test_tracer_counts_errors_and_reraises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap(fail, "fail")
    for _ in range(2):
        try:
            wrapped()
        except ValueError:
            pass
    (span,) = tracer.spans()
    assert span.calls == 2 and span.errors == 2


def _verify_report(spec: dict) -> str:
    reports = [
        {"lemma": s["lemma"], "cases": s.get("cases", 1),
         "violations": [] if s["ok"] else [{"alpha": None, "reason": "x"}]}
        for s in spec["lemmas"]
    ]
    return json.dumps({"reports": reports})


def test_expected_verify_output_passes_and_tampering_fails():
    expected = load_expected()
    for workload in ("base-sweep", "base-pairing", "star-pairing"):
        spec = expected[workload]
        text = _verify_report(spec)
        outcome = check(workload, expected, spec["exit"], text)
        assert outcome.failed == 0, outcome.problems
        assert outcome.total == len(spec["lemmas"]) + 1

        tampered = copy.deepcopy(expected)
        tampered[workload]["lemmas"][0]["cases"] += 1
        assert check(workload, tampered, spec["exit"], text).failed == 1

        tampered = copy.deepcopy(expected)
        tampered[workload]["lemmas"][-1]["ok"] = not spec["lemmas"][-1]["ok"]
        assert check(workload, tampered, spec["exit"], text).failed == 1

        assert check(workload, expected, 2, text).failed == 1
        assert check(workload, expected, spec["exit"], None).failed == len(spec["lemmas"])


def test_star_failures_are_expected():
    spec = load_expected()["star-pairing"]
    failing = {s["lemma"] for s in spec["lemmas"] if not s["ok"]}
    assert failing == {"star-pairing-positivity", "partner-monotone-head13"}
    assert spec["exit"] == 1


def test_scan_digest_and_rows_are_checked():
    expected = copy.deepcopy(load_expected())
    spec = expected["scan-grid"]
    spec.update(families=["t3mn"], m_max=1, n_max=2)
    rows = [{"family": "t3mn", "m": 1, "n": n, "coeffs": ["1", str(n)], "unimodal": True}
            for n in (1, 2)]
    spec["digest"] = coefficient_digest(rows)
    text = json.dumps(rows)
    assert check("scan-grid", expected, 0, text).failed == 0

    spec["digest"] = coefficient_digest(rows[:1])
    assert check("scan-grid", expected, 0, text).failed == 1

    spec["digest"] = coefficient_digest(rows)
    rows[1]["unimodal"] = False
    assert check("scan-grid", expected, 0, json.dumps(rows)).failed == 2


def test_layer_metrics_from_spans():
    rows = [
        Span(0, "cli.main", 0.0, 5.0, None, 0),
        Span(1, "proofcheck.verify_star", 0.5, 4.5, 0, 0),
        Span(2, "proofcheck.negative_members", 0.6, 1.6, 1, 0, calls=11, yields=10),
        Span(3, "shadow.expansion_from_signature", 0.7, 1.0, 2, 0, calls=40),
        Span(4, "proofcheck.partner_star", 2.0, 3.0, 1, 0, calls=10, errors=1),
        Span(5, "proofcheck.partner", 2.1, 2.6, 4, 0, calls=9),
        Span(6, "proofcheck._repair_locality_reports", 3.0, 3.5, 1, 0),
        Span(7, "proofcheck.negative_members", 3.0, 3.2, 6, 0, calls=5, yields=4),
        Span(8, "proofcheck.partner", 3.2, 3.3, 6, 0, calls=4),
        Span(9, "reports.record", 3.3, 3.31, 1, 0, calls=3),
    ]
    sidecar = {
        "spans": [s.to_list() for s in rows],
        "signatures": 4,
        "admissible_counts": [20000],
        "reports": [["star-class-partition", 10, 2.5, 0],
                    ["negative-coverage", 20000, 1.0, 0],
                    ["partner-preserves-foot13", 4, 0.5, 0],
                    ["partner-monotone-head13", 4, 0.5, 2]],
    }
    m = layer_metrics(sidecar, traced_wall=5.2, setup=0.1)
    assert m["proofcheck.negatives"] == 10
    assert abs(m["proofcheck.enumerate_s"] - (1.0 - 0.3 + 0.2)) < 1e-9
    assert m["proofcheck.partner_calls"] == 14
    assert m["proofcheck.partner_errors"] == 1
    assert abs(m["proofcheck.partner_s"] - 1.1) < 1e-9
    assert m["shadow.signature_cache_hit_ratio"] == 0.9
    assert m["proofcheck.coverage_exhaustive"] == 1
    assert m["reports.violations_recorded"] == 3
    assert m["reports.violations_kept"] == 2
    assert abs(m["cli.render_s"] - 1.0) < 1e-9
    assert abs(m["trace.unaccounted_s"] - (5.2 - 0.1 - 4.0 - 1.0)) < 1e-9


def test_percentile_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(list(range(1, 101)), 99) == 99


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS


def test_reference_runs_without_treepoly():
    # The host-relative metrics divide by the reference's time, so no change
    # to the program under test may reach it.
    code = (
        "import runpy, sys\n"
        f"try:\n    runpy.run_path({REFERENCE!r}, run_name='__main__')\n"
        "except SystemExit as stop:\n    assert stop.code == 0\n"
        "assert not any(name.split('.')[0] == 'treepoly' for name in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
