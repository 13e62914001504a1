"""The benchmark's workloads and the checks on their outputs.

Each workload is one `treepoly` CLI call, run in a fresh interpreter per
iteration, the way a user checks one cell.  Expected results live in
expected.json next to this file; they were recorded from the program and
every iteration is compared against them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]

    @property
    def verify(self) -> bool:
        """verify writes its JSON report to a file; scan prints it."""
        return self.args[0] == "verify"

    def argv(self, seed: int, report_path: str) -> list[str]:
        if self.verify:
            return [*self.args, "--seed", str(seed), "-o", report_path]
        return list(self.args)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("base-sweep", ("verify", "--suite", "section4", "-m", "1", "-n", "1")),
        # --audit-limit 0 makes the coverage audit sample, so pairing dominates.
        Workload("base-pairing",
                 ("verify", "--suite", "section4", "-m", "2", "-n", "2", "--audit-limit", "0")),
        Workload("star-pairing",
                 ("verify", "--suite", "section5", "-m", "1", "-n", "2", "--audit-limit", "0")),
        Workload(
            "scan-grid",
            ("scan", "--family", "both", "-m", "1..30", "-n", "1..30",
             "--assert", "unimodal", "--format", "json"),
        ),
    )
}


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def coefficient_digest(rows: list) -> str:
    """sha256 over every row's family, cell and coefficient list."""
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row['family']},{row['m']},{row['n']}:{';'.join(row['coeffs'])}\n".encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """Result of checking one iteration: checks run, checks failed, the
    number of items the iteration processed and the report's sha256."""

    total: int
    failed: int
    items: int
    sha256: str
    problems: list[str]


def check_verify(expected: dict, exit_code: int, report_text: Optional[str]) -> Outcome:
    """One check per expected lemma report plus one for the exit code.

    A lemma passes when it is present in order, its ok state matches, and
    its case count matches wherever the expectation records one.
    """
    problems = []
    lemmas = expected["lemmas"]
    reports = []
    if report_text is not None:
        try:
            reports = json.loads(report_text)["reports"]
        except (ValueError, KeyError, TypeError):
            problems.append("report is not a verify JSON report")
    failed = 0
    for i, spec in enumerate(lemmas):
        got = reports[i] if i < len(reports) else None
        if got is None or got.get("lemma") != spec["lemma"]:
            problems.append(f"lemma {spec['lemma']} missing or out of order")
            failed += 1
            continue
        ok = not got.get("violations")
        if ok != spec["ok"]:
            problems.append(f"lemma {spec['lemma']}: ok={ok}, expected {spec['ok']}")
            failed += 1
        elif "cases" in spec and got.get("cases") != spec["cases"]:
            problems.append(f"lemma {spec['lemma']}: cases={got.get('cases')}, expected {spec['cases']}")
            failed += 1
    extra = max(0, len(reports) - len(lemmas))
    if extra:
        problems.append(f"{extra} unexpected reports")
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
        failed += 1
    return Outcome(
        total=len(lemmas) + 1 + extra,
        failed=failed + extra,
        items=reports[0].get("cases", 0) if reports else 0,
        sha256=_sha256(report_text),
        problems=problems,
    )


def check_scan(expected: dict, exit_code: int, report_text: Optional[str]) -> Outcome:
    """One check per expected row (cell order and unimodality), one for the
    coefficient digest over all rows, and one for the exit code."""
    problems = []
    rows = []
    if report_text is not None:
        try:
            rows = json.loads(report_text)
        except ValueError:
            problems.append("scan output is not JSON")
    cells = [(fam, m, n) for fam in expected["families"]
             for m in range(1, expected["m_max"] + 1)
             for n in range(1, expected["n_max"] + 1)]
    failed = 0
    for i, cell in enumerate(cells):
        row = rows[i] if i < len(rows) else None
        if row is None or (row.get("family"), row.get("m"), row.get("n")) != cell or row.get("unimodal") is not True:
            failed += 1
    if failed:
        problems.append(f"{failed} rows missing, out of order or not unimodal")
    extra = max(0, len(rows) - len(cells))
    if extra:
        problems.append(f"{extra} unexpected rows")
    digest_ok = not failed and not extra and coefficient_digest(rows) == expected["digest"]
    if not digest_ok:
        problems.append("coefficient digest differs from the reference")
    exit_ok = exit_code == expected["exit"]
    if not exit_ok:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    return Outcome(
        total=len(cells) + 2 + extra,
        failed=failed + extra + (not digest_ok) + (not exit_ok),
        items=len(rows),
        sha256=_sha256(report_text),
        problems=problems,
    )


def check(workload: str, expected: dict, exit_code: int, report_text: Optional[str]) -> Outcome:
    spec = expected[workload]
    if WORKLOADS[workload].verify:
        return check_verify(spec, exit_code, report_text)
    return check_scan(spec, exit_code, report_text)


def _sha256(text: Optional[str]) -> str:
    return hashlib.sha256(text.encode()).hexdigest() if text is not None else ""
