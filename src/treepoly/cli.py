"""Command line front end: polynomials, grid scans, verification suites, and
plot data extraction.

Exit codes: 0 success and all assertions hold, 1 an assertion or a
verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from typing import Optional, Sequence

from .alphamaps import EnumerationGuardError, spider_suite
from .graphs import spider2, spider12
from .intpoly import GuardLimitError, analyze, family_graph, indpoly_tree, scan_row
from .proofcheck import verify_base, verify_star
from .reports import all_ok

FAMILY_ALIASES = {
    "t3mn": "t3mn",
    "t3mn-star": "t3mn_star",
    "t3mn_star": "t3mn_star",
}

ASSERT_CHOICES = ("unimodal", "log-concave", "non-log-concave")


def _parse_range(text: str) -> list[int]:
    """Accept "4" or "1..10" (inclusive)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


_DIAG_TERM = re.compile(r"^k([+-]\d+)?$")


def _parse_diag(text: str) -> tuple[int, int]:
    """Accept "k,k+1" style diagonal specs, returning the two offsets."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"diagonal spec {text!r} needs two terms")
    offsets = []
    for part in parts:
        m = _DIAG_TERM.match(part.strip())
        if not m:
            raise ValueError(f"bad diagonal term {part!r}")
        offsets.append(int(m.group(1) or 0))
    return offsets[0], offsets[1]


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output_path(path: Optional[str]) -> None:
    """Fail with the same error _write_output gives, before a long run: open
    the file for appending, and remove it again if it did not exist."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _poly_for(args) -> tuple[str, Optional[int], Optional[int], "object"]:
    family = args.family
    if family == "spider2":
        if args.n is None:
            raise SystemExit2("spider2 needs -n")
        g = spider2(args.n)
        return "spider2", None, args.n, g
    if family == "spider12":
        if args.k is None or args.r is None:
            raise SystemExit2("spider12 needs -k and -r")
        g = spider12(args.k, args.r)
        return "spider12", args.k, args.r, g
    fam = FAMILY_ALIASES[family]
    if args.m is None or args.n is None:
        raise SystemExit2(f"{family} needs -m and -n")
    return fam, args.m, args.n, family_graph(fam, args.m, args.n)


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(2)


def cmd_poly(args) -> int:
    fam, m, n, g = _poly_for(args)
    _check_output_path(args.output)
    poly = indpoly_tree(g)
    report = analyze(poly)
    row = {
        "family": fam,
        "m": m,
        "n": n,
        "coeffs": [str(c) for c in poly.coeffs],
        "unimodal": report.unimodal,
        "log_concave": report.log_concave,
        "breaks": list(report.breaks),
        "tail_ok": report.tail_ok,
    }
    if args.format == "json":
        _write_output(json.dumps(row, sort_keys=True), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "m", "n", "coeffs", "unimodal", "log_concave", "breaks", "tail_ok"])
        writer.writerow(_row_csv_fields(row))
        _write_output(buf.getvalue(), args.output)
    else:
        lines = [f"family {fam}  m={m} n={n}  degree {poly.degree}"]
        for k, c in enumerate(poly.coeffs):
            lines.append(f"  {k:3d}  {c}")
        lines.append(
            f"unimodal={report.unimodal} log_concave={report.log_concave} "
            f"breaks={list(report.breaks)} tail_ok={report.tail_ok}"
        )
        _write_output("\n".join(lines), args.output)
    return 0


def _row_csv_fields(row: dict) -> list:
    return [
        row["family"],
        row["m"],
        row["n"],
        ";".join(str(c) for c in row["coeffs"]),
        row["unimodal"],
        row["log_concave"],
        ";".join(str(b) for b in row["breaks"]),
        row["tail_ok"],
    ]


def _scan_cells(args) -> list[tuple[int, int]]:
    if args.diag is not None:
        if args.k is None:
            raise SystemExit2("--diag needs -k RANGE")
        if args.m is not None or args.n is not None:
            raise SystemExit2("--diag takes -k RANGE, not -m/-n")
        off_m, off_n = _parse_diag(args.diag)
        return [(k + off_m, k + off_n) for k in _parse_range(args.k)]
    if args.m is None or args.n is None:
        raise SystemExit2("scan needs -m and -n ranges (or --diag with -k)")
    return [(m, n) for m in _parse_range(args.m) for n in _parse_range(args.n)]


def cmd_scan(args) -> int:
    families = (
        ["t3mn", "t3mn_star"]
        if args.family == "both"
        else [FAMILY_ALIASES[args.family]]
    )
    cells = _scan_cells(args)
    work = [(fam, m, n) for fam in families for m, n in cells]
    if args.jobs < 0:
        raise SystemExit2("--jobs must be 0 or more")
    _check_output_path(args.output)
    jobs = min(args.jobs, len(work), os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            rows = pool.starmap(scan_row, work)
    else:
        rows = [scan_row(*item) for item in work]
    failures = []
    if args.assert_prop:
        for r in rows:
            if args.assert_prop == "unimodal" and not r.report.unimodal:
                failures.append(r)
            elif args.assert_prop == "log-concave" and not r.report.log_concave:
                failures.append(r)
            elif args.assert_prop == "non-log-concave" and r.report.log_concave:
                failures.append(r)
    if args.format == "json":
        _write_output(
            json.dumps([r.to_json_dict() for r in rows], sort_keys=True), args.output
        )
    elif args.format == "table":
        lines = [
            f"{r.family:10s} m={r.m:<3d} n={r.n:<3d} unimodal={r.report.unimodal} "
            f"log_concave={r.report.log_concave} breaks={list(r.report.breaks)} "
            f"tail_ok={r.report.tail_ok}"
            for r in rows
        ]
        _write_output("\n".join(lines), args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "m", "n", "unimodal", "log_concave", "breaks", "tail_ok"])
        for r in rows:
            writer.writerow(
                [
                    r.family,
                    r.m,
                    r.n,
                    r.report.unimodal,
                    r.report.log_concave,
                    ";".join(str(b) for b in r.report.breaks),
                    r.report.tail_ok,
                ]
            )
        _write_output(buf.getvalue(), args.output)
    if failures:
        for r in failures:
            sys.stderr.write(
                f"assertion {args.assert_prop!r} fails at {r.family}({r.m},{r.n})\n"
            )
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.suite == "prop3":
        legs = 4 if args.n is None else args.n
        if legs < 1:
            raise SystemExit2("prop3 needs -n of at least 1")
    elif args.m is None or args.n is None:
        raise SystemExit2(f"{args.suite} needs -m and -n")
    _check_output_path(args.output)
    if args.suite == "prop3":
        reports = spider_suite(max_legs=legs)
        meta = {"suite": "prop3", "n": legs}
    elif args.suite == "section4":
        reports = verify_base(args.m, args.n)
        meta = {"suite": "section4", "m": args.m, "n": args.n}
    else:
        reports = verify_star(args.m, args.n, repair_corner=args.repair_corner)
        meta = {
            "suite": "section5",
            "m": args.m,
            "n": args.n,
            "repair_corner": args.repair_corner,
        }
    payload = dict(meta)
    payload["reports"] = [r.to_json_dict() for r in reports]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        _write_output(text, args.output)
    for r in reports:
        mark = "ok  " if r.ok else "FAIL"
        sys.stdout.write(
            f"{mark} {r.lemma:34s} cases={r.cases:9d} violations={r.violation_count}\n"
        )
        for v in r.violations[:5]:
            sys.stdout.write(f"      {v.reason}: alpha={list(v.weights or ())}\n")
    ok = all_ok(reports)
    sys.stdout.write(("all checks passed\n" if ok else "violations found\n"))
    return 0 if ok else 1


def cmd_plotdata(args) -> int:
    fam, m, n, g = _poly_for(args)
    _check_output_path(args.output)
    poly = indpoly_tree(g)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "coefficient", "defect"])
    for k, c in enumerate(poly.coeffs):
        if 1 <= k <= poly.degree - 1:
            defect = poly[k] * poly[k] - poly[k - 1] * poly[k + 1]
        else:
            defect = ""
        writer.writerow([k, c, defect])
    _write_output(buf.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepoly",
        description=(
            "Exact independence polynomials of two tree families, their two-row "
            "Schur shadows, and the mechanical unimodality certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="print one independence polynomial row")
    poly.add_argument(
        "--family",
        required=True,
        choices=["t3mn", "t3mn-star", "t3mn_star", "spider2", "spider12"],
    )
    poly.add_argument("-m", "--m", type=int, dest="m")
    poly.add_argument("-n", "--n", type=int, dest="n")
    poly.add_argument("-k", "--k", type=int, dest="k")
    poly.add_argument("-r", "--r", type=int, dest="r")
    poly.add_argument("--format", choices=["json", "csv", "table"], default="table")
    poly.add_argument("-o", "--output")
    poly.set_defaults(func=cmd_poly)

    scan = sub.add_parser("scan", help="scan an (m, n) grid or diagonal")
    scan.add_argument(
        "--family", choices=["t3mn", "t3mn-star", "t3mn_star", "both"], default="both"
    )
    scan.add_argument("-m", "--m", dest="m", help="range like 1..10")
    scan.add_argument("-n", "--n", dest="n", help="range like 1..10")
    scan.add_argument("--diag", help="diagonal spec like k,k+1")
    scan.add_argument("-k", "--k", dest="k", help="range for the diagonal parameter")
    scan.add_argument(
        "--assert",
        dest="assert_prop",
        choices=list(ASSERT_CHOICES),
        help="exit 1 unless every row satisfies the property",
    )
    scan.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    scan.add_argument("-o", "--output")
    scan.add_argument("--jobs", type=int, default=0, help="parallel grid workers")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=["section4", "section5", "prop3"])
    verify.add_argument("-m", "--m", type=int, dest="m")
    verify.add_argument("-n", "--n", type=int, dest="n")
    # The coverage audit is an exact count with nothing to sample or limit;
    # these flags are still accepted, and ignored, so existing scripts that
    # pass them keep working.
    for flag in ("--seed", "--sample", "--audit-limit"):
        verify.add_argument(flag, type=int, help=argparse.SUPPRESS)
    verify.add_argument(
        "--repair-corner",
        action="store_true",
        help="use the repaired class-19 injection in the section5 suite",
    )
    verify.add_argument("-o", "--output", help="write the JSON report here")
    verify.set_defaults(func=cmd_verify)

    plotdata = sub.add_parser("plotdata", help="emit coefficient and defect columns")
    plotdata.add_argument(
        "--family",
        required=True,
        choices=["t3mn", "t3mn-star", "t3mn_star", "spider2", "spider12"],
    )
    plotdata.add_argument("-m", "--m", type=int, dest="m")
    plotdata.add_argument("-n", "--n", type=int, dest="n")
    plotdata.add_argument("-k", "--k", type=int, dest="k")
    plotdata.add_argument("-r", "--r", type=int, dest="r")
    plotdata.add_argument("-o", "--output")
    plotdata.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return exc.code
    except (ValueError, KeyError, EnumerationGuardError, GuardLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
