"""Acceptance battery: one test per exit criterion, each printing a pass or
fail line with its elapsed time and asserting its stated budget.

Criterion 9 runs the published extended-family injections verbatim; the
class-19 corner falsifies its pairing bound, so that test fails by design
and the failure message points at the analysis (see notes in the repository
root README and the repaired mode exercised in test_proofcheck).
"""

import json
import random
import time

from treepoly.alphamaps import admissible_maps, spider_suite
from treepoly.graphs import t3mn, t3mn_star
from treepoly.intpoly import (
    IntPoly,
    analyze,
    family_graph,
    indpoly_bruteforce,
    indpoly_tree,
    scan_row,
)
from treepoly.proofcheck import verify_base, verify_star
from treepoly.reports import all_ok
from treepoly.shadow import ForestShadow
from treepoly.symfunc import SymPoly2, f_p_2var, schur_expand, y_g_2var

from conftest import random_forest, random_tree
from oracles import shadow_poly


class Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {verdict} "
            f"({elapsed:6.2f}s / budget {self.budget:.0f}s) {self.label}"
        )
        assert ok, f"criterion {self.number} failed: {self.label}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget"
        )


NON_LOG_CONCAVE_CELLS = {
    "t3mn": [(k + 1, k + 1) for k in range(3, 7)]
    + [(k, k + 1) for k in range(4, 7)]
    + [(k, k + 2) for k in range(4, 7)],
    "t3mn_star": [(k, k + 1) for k in range(3, 7)]
    + [(k - 1, k + 1) for k in range(4, 7)]
    + [(k, k + 3) for k in range(4, 7)]
    + [(k, k) for k in range(4, 7)],
}


def _suite_1_to_3_graphs():
    """Every tree whose polynomial is computed in criteria 1 through 3."""
    rng = random.Random(101)
    graphs = [random_forest(rng, rng.randint(1, 20)) for _ in range(200)]
    graphs += [
        family_graph(fam, m, n)
        for fam in ("t3mn", "t3mn_star")
        for m in range(0, 4)
        for n in range(0, 4)
    ]
    for fam, cells in NON_LOG_CONCAVE_CELLS.items():
        graphs += [family_graph(fam, m, n) for m, n in cells]
    graphs += [
        family_graph(fam, m, n)
        for fam in ("t3mn", "t3mn_star")
        for m in range(1, 13)
        for n in range(1, 13)
    ]
    return graphs


def test_criterion_01_oracle_equivalence():
    crit = Criterion(1, "tree DP equals pruned enumeration", 10.0)
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        f = random_forest(rng, rng.randint(1, 20))
        ok = ok and indpoly_tree(f) == indpoly_bruteforce(f)
    for m in range(0, 4):
        for n in range(0, 4):
            ok = ok and indpoly_tree(t3mn(m, n)) == indpoly_bruteforce(t3mn(m, n))
            ok = ok and indpoly_tree(t3mn_star(m, n)) == indpoly_bruteforce(
                t3mn_star(m, n)
            )
    crit.finish(ok)


def test_criterion_02_unimodality_grid():
    crit = Criterion(2, "unimodal on the full 1..12 grid, both families", 60.0)
    ok = True
    for fam in ("t3mn", "t3mn_star"):
        for m in range(1, 13):
            for n in range(1, 13):
                ok = ok and scan_row(fam, m, n).report.unimodal
    crit.finish(ok)


def test_criterion_03_non_log_concave_cells():
    crit = Criterion(3, "published non-log-concave cells break", 30.0)
    ok = True
    for fam, cells in NON_LOG_CONCAVE_CELLS.items():
        for m, n in cells:
            report = analyze(indpoly_tree(family_graph(fam, m, n)))
            ok = ok and not report.log_concave
    crit.finish(ok)


def test_criterion_04_diagonal_coefficient_law():
    crit = Criterion(4, "diagonal Schur coefficients equal defects", 5.0)
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        deg = rng.randint(1, 12)
        p = IntPoly([1] + [rng.randint(1, 40) for _ in range(deg)])
        exp = schur_expand(f_p_2var(p))
        for k in range(1, deg + 1):
            ok = ok and exp.diagonal(k) == p[k] * p[k] - p[k - 1] * p[k + 1]
    crit.finish(ok)


def test_criterion_05_weight_sum_identity():
    crit = Criterion(5, "admissible weight sum equals the polynomial product", 60.0)
    rng = random.Random(303)
    ok = True
    for _ in range(50):
        t = random_tree(rng, rng.randint(1, 12))
        ctx = ForestShadow(t)
        total: dict = {}
        for w in admissible_maps(t):
            for key, c in shadow_poly(ctx, w).items():
                val = total.get(key, 0) + c
                if val:
                    total[key] = val
                else:
                    del total[key]
        ok = ok and SymPoly2(total) == y_g_2var(t)
    crit.finish(ok)


def test_criterion_06_defect_bridge_on_families():
    crit = Criterion(6, "family diagonal coefficients equal defects", 30.0)
    ok = True
    for fam in ("t3mn", "t3mn_star"):
        for m in range(0, 4):
            for n in range(0, 4):
                g = family_graph(fam, m, n)
                poly = indpoly_tree(g)
                exp = schur_expand(y_g_2var(g))
                for k in range(1, poly.degree + 1):
                    ok = ok and exp.diagonal(k) == poly[k] ** 2 - poly[k - 1] * poly[k + 1]
    crit.finish(ok)


def test_criterion_07_spider_suite():
    crit = Criterion(7, "spider bijection and pairing battery", 120.0)
    reports = spider_suite(max_legs=4)
    crit.finish(all_ok(reports))


def test_criterion_08_base_family_suite():
    crit = Criterion(8, "base-family certificate on the 2x2 grid", 600.0)
    ok = True
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        reports = verify_base(m, n)
        if not all_ok(reports):
            ok = False
            for r in reports:
                for v in r.violations[:3]:
                    print(f"  base({m},{n}) {r.lemma}: {v.reason}")
    crit.finish(ok)


def test_criterion_09_star_family_suite():
    crit = Criterion(
        9, "extended-family certificate, published injections verbatim", 600.0
    )
    ok = True
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        reports = verify_star(m, n)
        if not all_ok(reports):
            ok = False
            bad = {r.lemma: r.violation_count for r in reports if not r.ok}
            print(
                f"  star({m},{n}) violations {bad}: the published class-19 "
                "injection marks the third head of branch 1 when the two bare "
                "legs are legs 2 and 3 (or 1 and 3), so the kept foot makes the "
                "partner inadmissible and the pairing bound fails; the repaired "
                "position-1 marking passes (see test_proofcheck and the README)."
            )
    crit.finish(ok)


def test_criterion_10_tail_bound_everywhere():
    crit = Criterion(10, "decreasing tail on every computed tree polynomial", 120.0)
    ok = True
    for g in _suite_1_to_3_graphs():
        ok = ok and analyze(indpoly_tree(g)).tail_ok
    crit.finish(ok)


def test_criterion_11_deterministic_reports():
    crit = Criterion(11, "byte-identical reports under a fixed seed", 120.0)
    runs = []
    for _ in range(2):
        reports = verify_base(1, 2)
        runs.append(
            json.dumps([r.to_json_dict() for r in reports], sort_keys=True).encode()
        )
    star_runs = []
    for _ in range(2):
        reports = verify_star(1, 1)
        star_runs.append(
            json.dumps([r.to_json_dict() for r in reports], sort_keys=True).encode()
        )
    crit.finish(runs[0] == runs[1] and star_runs[0] == star_runs[1])
