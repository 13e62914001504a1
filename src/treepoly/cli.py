"""Command line front end: polynomials, grid scans, verification suites, and
plot data extraction.

Exit codes: 0 success and all assertions hold, 1 an assertion or a
verification check failed, 2 usage error, 141 (128 + SIGPIPE) stdout closed
before the output was written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .graphs import family_layout
from .intpoly import IntPoly, ScanRow, analyze, family_poly, scan_row, spider_poly

FAMILY_ALIASES = {
    "t3mn": "t3mn",
    "t3mn-star": "t3mn_star",
    "t3mn_star": "t3mn_star",
}

# Each --assert choice and the test every scanned row's report must pass.
ASSERTIONS = {
    "unimodal": lambda report: report.unimodal,
    "log-concave": lambda report: report.log_concave,
    "non-log-concave": lambda report: not report.log_concave,
}


# The most (m, n) cells one scan takes, so that an oversized range is a usage
# error instead of an unbounded run.  Rows are written as they are computed; at
# the limit (100x100, both families) what stays is the cell and diagonal caches
# of intpoly: 89 MB peak and 3.6-3.8 s on a 2-CPU Xeon host.
MAX_SCAN_CELLS = 10_000

# The most vertices of one family tree or spider that poly, plotdata, scan and
# verify take, so that a huge cell is a usage error instead of an unbounded
# polynomial or graph.  Each printed polynomial is a few rows of the recurrence
# in intpoly._row: as `poly` (in process, 2-CPU Xeon host) t3mn(1245,1245),
# t3mn_star(1244,1244) and the largest spiders take 0.13-0.35 s and 24-34 MB,
# most of it printing, and a tree of 8,012 vertices 0.5 s.  A 100x100 grid's
# largest tree has 412.
MAX_FAMILY_VERTICES = 5_000


class UsageError(ValueError):
    """A command line the command cannot run; main reports it and exits 2."""


def _parse_range(text: str) -> range:
    """Accept "4" or "1..10" (inclusive)."""
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise UsageError(f"bad range {text!r}: expected N or LO..HI") from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _check_vertices(cell: str, size: int) -> None:
    """Usage error when the graph named cell has more than
    MAX_FAMILY_VERTICES vertices, decided from its size before it is built."""
    if size > MAX_FAMILY_VERTICES:
        raise UsageError(
            f"{cell} has {size} vertices, more than the limit of {MAX_FAMILY_VERTICES}"
        )


def _check_nonnegative(sizes: str, *values: int) -> None:
    """Usage error when one of the sizes is negative, with the text the
    graph builders give."""
    if min(values) < 0:
        raise UsageError(f"{sizes} must be nonnegative")


def _check_family_size(family: str, m: int, n: int) -> None:
    _check_nonnegative("m and n", m, n)
    _check_vertices(f"{family}({m},{n})", family_layout(family, m, n).size)


def _check_scan_size(*ranges: range) -> None:
    """Usage error when the ranges span more than MAX_SCAN_CELLS cells,
    decided from their bounds before any cell is listed."""
    cells = math.prod(r.stop - r.start for r in ranges)
    if cells > MAX_SCAN_CELLS:
        raise UsageError(f"scan of {cells} cells exceeds the limit of {MAX_SCAN_CELLS}")


_DIAG_TERM = re.compile(r"^k([+-]\d+)?$")


def _parse_diag(text: str) -> tuple[int, int]:
    """Accept "k,k+1" style diagonal specs, returning the two offsets."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"diagonal spec {text!r} needs two terms")
    offsets = []
    for part in parts:
        m = _DIAG_TERM.match(part.strip())
        if not m:
            raise UsageError(f"bad diagonal term {part!r}")
        offsets.append(int(m.group(1) or 0))
    return offsets[0], offsets[1]


class _Stdout:
    """sys.stdout, keeping the last nonempty piece of text written to it."""

    last = ""

    def write(self, text: str) -> None:
        sys.stdout.write(text)
        self.last = text or self.last


@contextlib.contextmanager
def _output(path: Optional[str], mode: str = "w"):
    """The stream a command writes its text to, piece by piece: stdout for
    None or "-", with a final newline unless the text ends in one, or else
    open(path, mode), exactly the text, an OSError as a usage error."""
    if path is None or path == "-":
        yield (out := _Stdout())
        if not out.last.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output_path(path: Optional[str]) -> None:
    """Fail with the same error _output gives, before a long run: open
    the file for appending, and remove it again if it did not exist."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    with _output(path, "a"):
        pass
    if not existed:
        os.remove(path)


# The size flags each family of poly and plotdata takes; a flag set for a
# family that would ignore it is a usage error.
_POLY_FLAGS = {"spider2": ("n",), "spider12": ("k", "r")}


def _poly_for(args) -> tuple[str, Optional[int], Optional[int], IntPoly]:
    """The family name and size columns of a poly or plotdata row, and its
    polynomial, computed once the cell and the output path are checked."""
    family = args.family
    takes = _POLY_FLAGS.get(family, ("m", "n"))
    flags = " and ".join("-" + f for f in takes)
    ignored = [f for f in "mnkr" if f not in takes and getattr(args, f) is not None]
    if ignored:
        raise UsageError(f"{family} takes {flags}, not {'/'.join('-' + f for f in ignored)}")
    if any(getattr(args, f) is None for f in takes):
        raise UsageError(f"{family} needs {flags}")
    if family == "spider2":
        _check_nonnegative("leg count", args.n)
        _check_vertices(f"spider2({args.n})", 2 * args.n + 1)
        fam, m, n, legs = "spider2", None, args.n, (0, args.n)
    elif family == "spider12":
        _check_nonnegative("leg counts", args.k, args.r)
        _check_vertices(f"spider12({args.k},{args.r})", args.k + 2 * args.r + 1)
        fam, m, n, legs = "spider12", args.k, args.r, (args.k, args.r)
    else:
        fam, m, n, legs = FAMILY_ALIASES[family], args.m, args.n, None
        _check_family_size(fam, m, n)
    _check_output_path(args.output)
    return fam, m, n, family_poly(fam, m, n) if legs is None else spider_poly(*legs)


def cmd_poly(args) -> int:
    fam, m, n, poly = _poly_for(args)
    row = ScanRow(fam, m, n, poly, analyze(poly))
    with _output(args.output) as out:
        if args.format == "json":
            out.write(json.dumps(row.to_json_dict(), sort_keys=True))
        elif args.format == "csv":
            header = ["family", "m", "n", "coeffs", "unimodal", "log_concave", "breaks", "tail_ok"]
            csv.writer(out).writerows([header, _csv_fields(row, ";".join(map(str, poly.coeffs)))])
        else:
            out.write(f"family {fam}  m={m} n={n}  degree {poly.degree}")
            out.write("".join(f"\n  {k:3d}  {c}" for k, c in enumerate(poly.coeffs)))
            out.write("\n" + _report_text(row.report))
    return 0


def _csv_fields(row: ScanRow, *coeffs: str) -> list:
    """A row's CSV fields; poly puts its coefficients after the cell."""
    rep = row.report
    breaks = ";".join(map(str, rep.breaks))
    return [row.family, row.m, row.n, *coeffs, rep.unimodal, rep.log_concave, breaks, rep.tail_ok]


def _scan_cells(args) -> list[tuple[int, int]]:
    if args.diag is not None:
        if args.k is None:
            raise UsageError("--diag needs -k RANGE")
        if args.m is not None or args.n is not None:
            raise UsageError("--diag takes -k RANGE, not -m/-n")
        off_m, off_n = _parse_diag(args.diag)
        ks = _parse_range(args.k)
        _check_scan_size(ks)
        return [(k + off_m, k + off_n) for k in ks]
    if args.m is None or args.n is None:
        raise UsageError("scan needs -m and -n ranges (or --diag with -k)")
    if args.k is not None:
        raise UsageError("-k sets the --diag parameter; without --diag use -m/-n")
    ms, ns = _parse_range(args.m), _parse_range(args.n)
    _check_scan_size(ms, ns)
    return [(m, n) for m in ms for n in ns]


def cmd_scan(args) -> int:
    families = ["t3mn", "t3mn_star"] if args.family == "both" else [FAMILY_ALIASES[args.family]]
    cells = _scan_cells(args)
    _check_nonnegative("m and n", min(map(min, cells)))
    top_m, top_n = max(m for m, _ in cells), max(n for _, n in cells)
    for fam in families:
        _check_family_size(fam, top_m, top_n)
    _check_output_path(args.output)
    holds = ASSERTIONS.get(args.assert_prop)
    failures = []

    def checked(r: ScanRow) -> ScanRow:
        if holds and not holds(r.report):
            failures.append((r.family, r.m, r.n))
        return r

    # Each row is checked and written before the next is computed, and no
    # row outlives the next (each loop rebinds r).  The first comes before the
    # output is opened, so that a scan failing there leaves no file.
    rows = (checked(scan_row(fam, m, n)) for fam in families for m, n in cells)
    r = next(rows)
    with _output(args.output) as out:
        if args.format == "json":
            encode = json.JSONEncoder(sort_keys=True).encode
            out.write("[" + encode(r.to_json_dict()))
            for r in rows:
                out.write(", " + encode(r.to_json_dict()))
            out.write("]")
        elif args.format == "table":
            out.write(_table_line(r))
            for r in rows:
                out.write("\n" + _table_line(r))
        else:
            writer = csv.writer(out)
            writer.writerow(["family", "m", "n", "unimodal", "log_concave", "breaks", "tail_ok"])
            writer.writerow(_csv_fields(r))
            for r in rows:
                writer.writerow(_csv_fields(r))
    for fam, m, n in failures:
        sys.stderr.write(f"assertion {args.assert_prop!r} fails at {fam}({m},{n})\n")
    return 1 if failures else 0


def _table_line(r: ScanRow) -> str:
    return f"{r.family:10s} m={r.m:<3d} n={r.n:<3d} {_report_text(r.report)}"


def _report_text(rep) -> str:
    return (f"unimodal={rep.unimodal} log_concave={rep.log_concave} "
            f"breaks={list(rep.breaks)} tail_ok={rep.tail_ok}")


def cmd_verify(args) -> int:
    if args.repair_corner and args.suite != "section5":
        raise UsageError("--repair-corner applies to the section5 suite only")
    if args.suite == "prop3":
        if args.m is not None:
            raise UsageError("prop3 takes -n (the leg count), not -m")
        legs = 4 if args.n is None else args.n
        if legs < 1:
            raise UsageError("prop3 needs -n of at least 1")
        _check_vertices(f"spider2({legs})", 2 * legs + 1)
    elif args.m is None or args.n is None:
        raise UsageError(f"{args.suite} needs -m and -n")
    else:
        _check_family_size("t3mn" if args.suite == "section4" else "t3mn_star", args.m, args.n)
    _check_output_path(args.output)
    # The certificate is compiled here, once the command line is accepted,
    # so that scan, poly and plotdata never load it.
    from .alphamaps import EnumerationGuardError, spider_suite
    from .proofcheck import verify_base, verify_star
    from .reports import all_ok

    try:
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
    except EnumerationGuardError as exc:
        raise UsageError(str(exc)) from exc
    payload = dict(meta)
    payload["reports"] = [r.to_json_dict() for r in reports]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with _output(args.output) as out:
            out.write(text)
    # with the JSON on stdout (-o -), the summary goes to stderr
    summary = sys.stderr if args.output == "-" else sys.stdout
    for r in reports:
        mark = "ok  " if r.ok else "FAIL"
        summary.write(
            f"{mark} {r.lemma:34s} cases={r.cases:9d} violations={r.violation_count}\n"
        )
        for v in r.violations[:5]:
            summary.write(f"      {v.reason}: alpha={list(v.weights or ())}\n")
    ok = all_ok(reports)
    summary.write(("all checks passed\n" if ok else "violations found\n"))
    return 0 if ok else 1


def cmd_plotdata(args) -> int:
    fam, m, n, poly = _poly_for(args)
    with _output(args.output) as out:
        writer = csv.writer(out)
        writer.writerow(["k", "coefficient", "defect"])
        for k, c in enumerate(poly.coeffs):
            defect = poly[k] * poly[k] - poly[k - 1] * poly[k + 1] if 1 <= k < poly.degree else ""
            writer.writerow([k, c, defect])
    return 0


def _add_cell_arguments(parser: argparse.ArgumentParser) -> None:
    """The cell of a poly or plotdata row: --family and its size flags."""
    parser.add_argument("--family", required=True, choices=[*FAMILY_ALIASES, *_POLY_FLAGS])
    for flag in "mnkr":
        parser.add_argument(f"-{flag}", f"--{flag}", type=int, dest=flag)


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
    _add_cell_arguments(poly)
    poly.add_argument("--format", choices=["json", "csv", "table"], default="table")
    poly.add_argument("-o", "--output")
    poly.set_defaults(func=cmd_poly)

    scan = sub.add_parser("scan", help="scan an (m, n) grid or diagonal")
    scan.add_argument("--family", choices=[*FAMILY_ALIASES, "both"], default="both")
    scan.add_argument("-m", "--m", dest="m", help="range like 1..10")
    scan.add_argument("-n", "--n", dest="n", help="range like 1..10")
    scan.add_argument("--diag", help="diagonal spec like k,k+1")
    scan.add_argument("-k", "--k", dest="k", help="range for the diagonal parameter")
    scan.add_argument(
        "--assert",
        dest="assert_prop",
        choices=list(ASSERTIONS),
        help="exit 1 unless every row satisfies the property",
    )
    scan.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    scan.add_argument("-o", "--output")
    scan.set_defaults(func=cmd_scan)
    # argparse reads a token that starts with "-" as an option unless its
    # _negative_number_matcher calls it a number, so "-m -1..2" would end in
    # "expected one argument".  In scan a dash and a digit is a range, and a
    # negative range reaches the size check.
    scan._negative_number_matcher = re.compile(r"^-\d")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=["section4", "section5", "prop3"])
    verify.add_argument("-m", "--m", type=int, dest="m")
    verify.add_argument("-n", "--n", type=int, dest="n")
    # The coverage audit is an exact count with nothing to seed or limit.
    # These two flags are accepted, and ignored, only because the benchmark's
    # command lines (perfbench/workloads.py) still pass them.
    for flag in ("--seed", "--audit-limit"):
        verify.add_argument(flag, type=int, help=argparse.SUPPRESS)
    verify.add_argument(
        "--repair-corner",
        action="store_true",
        help="use the repaired class-19 injection in the section5 suite",
    )
    verify.add_argument("-o", "--output", help="write the JSON report here")
    verify.set_defaults(func=cmd_verify)

    plotdata = sub.add_parser("plotdata", help="emit coefficient and defect columns")
    _add_cell_arguments(plotdata)
    plotdata.add_argument("-o", "--output")
    plotdata.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away: end quietly, as a command killed by SIGPIPE
        # would, and let the interpreter's exit flush go to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
