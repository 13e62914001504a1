import argparse
import ast
import csv
import functools
import hashlib
import importlib
import io
import json
import os
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import treepoly
from treepoly import alphamaps, cli, intpoly, proofcheck
from treepoly.cli import main

from conftest import clear_cell_cache, clear_slice_patterns


def patch_batteries(monkeypatch, battery) -> None:
    """Replace the three verify batteries where cmd_verify imports them."""
    for name in ("verify_base", "verify_star"):
        monkeypatch.setattr(proofcheck, name, battery)
    monkeypatch.setattr(alphamaps, "spider_suite", battery)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_json(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--family", "t3mn", "-m", "4", "-n", "4", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["family"] == "t3mn"
    assert len(row["coeffs"]) == 15
    assert row["unimodal"] is True and row["log_concave"] is False


def test_poly_star_alias(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--family", "t3mn-star", "-m", "0", "-n", "0", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["family"] == "t3mn_star"
    assert len(row["coeffs"]) == 8  # degree m + n + 7


def test_poly_spider(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--family", "spider2", "-n", "3", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["coeffs"] == ["1", "7", "15", "11", "1"]


@pytest.mark.parametrize(
    "command,choices",
    [
        ("poly", "'t3mn', 't3mn-star', 't3mn_star', 'spider2', 'spider12'"),
        ("scan", "'t3mn', 't3mn-star', 't3mn_star', 'both'"),
        ("plotdata", "'t3mn', 't3mn-star', 't3mn_star', 'spider2', 'spider12'"),
    ],
)
def test_family_choices_of_each_command(capsys, command, choices):
    # the choices come from FAMILY_ALIASES and _POLY_FLAGS, in this order
    with pytest.raises(SystemExit):
        main([command, "--family", "nope"])
    assert f"invalid choice: 'nope' (choose from {choices})\n" in capsys.readouterr().err


def test_poly_missing_args(capsys):
    code, _, err = run_cli(capsys, "poly", "--family", "t3mn", "-m", "1")
    assert code == 2
    assert "needs" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("poly", "--family", "spider2", "-m", "3", "-n", "2"), "error: spider2 takes -n, not -m"),
        (("plotdata", "--family", "spider2", "-n", "2", "-k", "1"), "error: spider2 takes -n, not -k"),
        (
            ("poly", "--family", "t3mn", "-m", "1", "-n", "1", "-k", "5", "-r", "2"),
            "error: t3mn takes -m and -n, not -k/-r",
        ),
        (
            ("plotdata", "--family", "spider12", "-k", "1", "-r", "2", "-m", "4", "-n", "9"),
            "error: spider12 takes -k and -r, not -m/-n",
        ),
        (
            ("plotdata", "--family", "t3mn-star", "-m", "1", "-n", "1", "-r", "2"),
            "error: t3mn-star takes -m and -n, not -r",
        ),
    ],
)
def test_poly_usage_error_for_an_ignored_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message)


def test_scan_grid_assert_unimodal(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "both",
        "-m",
        "1..3",
        "-n",
        "1..3",
        "--assert",
        "unimodal",
        "-o",
        str(out_path),
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 18
    assert {r["family"] for r in rows} == {"t3mn", "t3mn_star"}
    assert all(r["unimodal"] == "True" for r in rows)


def test_scan_diagonal_non_log_concave(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "t3mn",
        "--diag",
        "k+1,k+1",
        "-k",
        "3..6",
        "--assert",
        "non-log-concave",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["m"], r["n"]) for r in rows] == [(k + 1, k + 1) for k in range(3, 7)]
    assert all(not r["log_concave"] for r in rows)


def test_scan_assert_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--family",
        "t3mn",
        "-m",
        "4..4",
        "-n",
        "5..5",
        "--assert",
        "log-concave",
    )
    assert code == 1
    assert "fails" in err


def test_scan_single_cell_log_concave(capsys):
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "t3mn",
        "-m",
        "1..1",
        "-n",
        "1..1",
        "--assert",
        "log-concave",
    )
    assert code == 0


def test_scan_usage_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "t3mn", "--diag", "k,k+1")
    assert code == 2
    code, out, err = run_cli(capsys, "scan", "-m", "1", "-n", "1", "--diag", "k,k", "-k", "1")
    assert code == 2 and not out
    assert err.startswith("error: --diag")
    code, out, err = run_cli(capsys, "scan", "--family", "t3mn", "-m", "1", "-n", "1", "-k", "5")
    assert code == 2 and not out
    assert err.startswith("error: -k ")


@pytest.mark.parametrize(
    "argv,text",
    [
        (("-m", "a", "-n", "1"), "a"),
        (("-m", "1", "-n", "1..x"), "1..x"),
        (("--diag", "k,k", "-k", "2.."), "2.."),
    ],
)
def test_scan_range_that_is_not_an_integer_is_usage_error(capsys, argv, text):
    code, out, err = run_cli(capsys, "scan", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad range {text!r}: expected N or LO..HI\n"


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    # only usage errors become exit 2; a KeyError is a programming error
    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "scan_row", broken)
    with pytest.raises(KeyError, match="boom"):
        main(["scan", "-m", "1", "-n", "1"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--suite", "prop3", "-m", "2", "-n", "1"), "error: prop3 takes -n"),
        (("--suite", "prop3", "-n", "1", "--repair-corner"), "error: --repair-corner"),
        (("--suite", "section4", "-m", "1", "-n", "1", "--repair-corner"), "error: --repair-corner"),
    ],
)
def test_verify_usage_error_for_an_ignored_flag(capsys, monkeypatch, argv, message):
    def no_run(*args, **kwargs):
        raise AssertionError("battery ran despite a usage error")

    patch_batteries(monkeypatch, no_run)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith(message)


def _benchmark_module():
    """The namespace of perfbench/workloads.py, loaded from its file without
    importing the rest of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))


def _benchmark_workloads():
    return _benchmark_module()["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(_benchmark_workloads()))
def test_benchmark_command_lines_are_accepted(capsys, monkeypatch, tmp_path, name):
    # every benchmark workload's command line parses and runs to exit 0 with
    # the batteries and the scan replaced by cheap stand-ins, so a removed
    # flag or a new usage error cannot break a workload unnoticed
    row = cli.scan_row("t3mn", 1, 1)
    monkeypatch.setattr(proofcheck, "verify_base", lambda m, n: [])
    monkeypatch.setattr(proofcheck, "verify_star", lambda m, n, repair_corner=False: [])
    monkeypatch.setattr(cli, "scan_row", lambda family, m, n: row)
    argv = _benchmark_workloads()[name].argv(1, str(tmp_path / "report.json"))
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_hidden_verify_options_are_passed_by_the_benchmark(tmp_path):
    # verify accepts a hidden, ignored option only while some benchmark
    # command line passes it; the retired --sample is an unknown argument
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    hidden = {
        flag
        for action in sub.choices["verify"]._actions
        if action.help == argparse.SUPPRESS
        for flag in action.option_strings
    }
    passed = {
        arg
        for w in _benchmark_workloads().values()
        for arg in w.argv(1, str(tmp_path / "report.json"))
    }
    assert hidden <= passed
    done = subprocess.run(
        [sys.executable, "-m", "treepoly", "verify", "--suite", "section4",
         "-m", "1", "-n", "1", "--sample", "5"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: unrecognized arguments: --sample 5\n")
    assert "Traceback" not in done.stderr


# The names perfbench/child.py still wraps that the package no longer has; a
# traced run reports each as "not traced, name is gone".
_GONE_TRACED_NAMES = {
    ("treepoly.alphamaps", "sample_admissible"),
    ("treepoly.proofcheck", "positive_class_matches"),
}


def test_benchmark_traced_names_resolve():
    # perfbench/child.py's WRAPPED, read from its source without importing
    # it: a traced name that no longer resolves silently zeroes its
    # per-layer metric, so every name but the known-gone ones must resolve
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    missing = set()
    for module_name, attr in wrapped:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module_name))
        except AttributeError:
            missing.add((module_name, attr))
    assert missing <= _GONE_TRACED_NAMES


def test_benchmark_scan_check_passes_on_cold_and_warm_tables(capsys):
    # the benchmark's own scan-grid check, run in process on an emptied cell
    # cache and again on the cache the first run filled
    bench = _benchmark_module()
    argv = bench["WORKLOADS"]["scan-grid"].argv(1, "unused")
    expected = bench["load_expected"]()["scan-grid"]
    clear_cell_cache()
    outputs, cells, diagonals = [], [], []
    for cache in ("cold", "warm"):
        code, out, _ = run_cli(capsys, *argv)
        outcome = bench["check_scan"](expected, code, out)
        assert outcome.failed == 0, (cache, outcome.problems)
        outputs.append(out)
        cells.append(intpoly._cell_poly.cache_info().currsize)
        diagonals.append(intpoly._diagonal_poly.cache_info().currsize)
    assert outputs[0] == outputs[1]
    assert 0 < cells[0] == cells[1]  # the warm run added no entry
    assert 0 < diagonals[0] == diagonals[1]


def _child_env() -> dict:
    """The environment of a `python -m treepoly` child: this package first."""
    src = str(Path(treepoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_python_dash_m_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "treepoly", "verify", "--suite", "prop3", "-n", "1"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "all checks passed" in done.stdout


# The modules of the certificate, which only verify loads.
_CERTIFICATE = {"treepoly.alphamaps", "treepoly.proofcheck", "treepoly.reports", "treepoly.shadow"}


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "-m", "0..3", "-n", "0..3", "--format", "json"),
        ("poly", "--family", "t3mn-star", "-m", "2", "-n", "3"),
        ("plotdata", "--family", "spider12", "-k", "1", "-r", "2"),
        ("verify", "--suite", "prop3", "-n", "1"),
    ],
    ids=["scan", "poly", "plotdata", "verify"],
)
def test_only_verify_loads_the_certificate(argv):
    # a fresh interpreter runs one command, then names on its last stderr
    # line the treepoly modules it loaded
    script = (
        "import sys\n"
        "from treepoly.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "names = sorted(m for m in sys.modules if m.startswith('treepoly.'))\n"
        "sys.stderr.write('\\n' + ' '.join(names) + '\\n')\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.splitlines()[-1].split())
    if argv[0] == "verify":
        assert _CERTIFICATE <= loaded
    else:
        assert loaded == {"treepoly.cli", "treepoly.graphs", "treepoly.intpoly", "treepoly.symfunc"}


@pytest.mark.parametrize(
    "argv,message",
    [
        (("section4", "-m", "7", "-n", "1"),
         "t3mn(7,1): slice spider2(7) has more admissible maps than the pattern guard of 300,000 maps"),
        (("section4", "-m", "3", "-n", "4"),
         "t3mn(3,4) has 4,692,665 negative maps, more than the limit of 4,000,000"),
        (("prop3", "-n", "8"),
         "spider2(8) has 2,076,802 admissible maps, more than the enumeration guard of 2,000,000"),
    ],
    ids=["pattern-guard", "negative-count", "enumeration-guard"],
)
def test_certificate_refusals_exit_2_without_a_traceback(argv, message):
    # the certificate's own refusals, raised after cmd_verify loads it
    done = subprocess.run(
        [sys.executable, "-m", "treepoly", "verify", "--suite", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        # about 140 KB, more than a pipe buffer holds
        ("scan", "-m", "1..30", "-n", "1..30", "--format", "table"),
        ("verify", "--suite", "section4", "-m", "1", "-n", "1", "-o", "-"),
    ],
    ids=["scan-table", "verify-json"],
)
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the child writes, as with `| head -1`: the
    # command ends with 128 + SIGPIPE and no traceback
    child = subprocess.Popen(
        [sys.executable, "-m", "treepoly", *argv],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert child.returncode == 141, err
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_verify_prop3(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "prop3", "-n", "3", "-o", str(out_path)
    )
    assert code == 0
    assert "all checks passed" in out
    payload = json.loads(out_path.read_text())
    assert payload["suite"] == "prop3"
    assert all(not r["violations"] for r in payload["reports"])


def test_verify_json_to_stdout(capsys):
    # -o - puts the JSON report alone on stdout and the summary on stderr
    code, out, err = run_cli(capsys, "verify", "--suite", "prop3", "-n", "1", "-o", "-")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "prop3" and payload["n"] == 1
    assert "all checks passed" in err


def test_verify_section4(capsys, tmp_path):
    out_path = tmp_path / "s4.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "section4", "-m", "1", "-n", "1", "-o", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    lemmas = [r["lemma"] for r in payload["reports"]]
    assert "class-partition" in lemmas and "pairing-positivity" in lemmas


def test_verify_section5_faithful_vs_repaired(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "section5", "-m", "1", "-n", "1"
    )
    assert code == 1
    assert "violations found" in out
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "section5", "-m", "1", "-n", "1", "--repair-corner",
    )
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("suite", ["section4", "section5"])
def test_verify_runs_on_legless_branches(capsys, tmp_path, suite):
    # m = 0 leaves the first two branches without legs: one-vertex slices
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "-m", "0", "-n", "1", "-o", str(out_path)
    )
    assert code == 0
    assert "all checks passed" in out
    reports = json.loads(out_path.read_text())["reports"]
    assert reports and all(r["violation_count"] == 0 for r in reports)


def test_verify_reports_are_byte_identical(capsys, tmp_path):
    # --seed and --audit-limit are still accepted and change nothing
    flags = [(), (), ("--seed", "9", "--audit-limit", "0")]
    paths = [tmp_path / f"{i}.json" for i in range(len(flags))]
    for extra, path in zip(flags, paths):
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--suite", "section4", "-m", "1", "-n", "1",
            *extra,
            "-o", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert "seed" not in json.loads(paths[0].read_text())


def test_verify_prop3_rejects_legs_below_one(capsys):
    for legs in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "--suite", "prop3", "-n", legs)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "all checks passed" not in out


def test_verify_prop3_guard_overrun_fails_up_front(capsys, monkeypatch):
    def unguarded_walk(n):
        raise AssertionError("mark-case walk started before the guard check")

    monkeypatch.setattr(alphamaps, "check_marking_bijection", unguarded_walk)
    code, out, err = run_cli(capsys, "verify", "--suite", "prop3", "-n", "8")
    assert code == 2
    assert err == (
        "error: spider2(8) has 2,076,802 admissible maps,"
        " more than the enumeration guard of 2,000,000\n"
    )
    assert out == ""


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "r.json")
    for argv in (
        ("verify", "--suite", "section4", "-m", "1", "-n", "1"),
        ("poly", "--family", "t3mn", "-m", "1", "-n", "1", "--format", "json"),
    ):
        code, _, err = run_cli(capsys, *argv, "-o", path)
        assert code == 2
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--family", "both", "-m", "1..30", "-n", "1..30"),
        ("poly", "--family", "t3mn", "-m", "4", "-n", "4"),
        ("plotdata", "--family", "spider2", "-n", "3"),
    ],
)
def test_unwritable_output_fails_before_the_polynomials(capsys, monkeypatch, tmp_path, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("polynomials computed before the output path was checked")

    for name in ("scan_row", "spider_poly", "family_poly"):
        monkeypatch.setattr(cli, name, no_run)
    path = str(tmp_path / "missing" / "s.json")
    code, out, err = run_cli(capsys, *argv, "-o", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    probe = tmp_path / "s.json"
    with pytest.raises(AssertionError, match="polynomials computed"):
        main([*argv, "-o", str(probe)])
    assert not probe.exists()


@pytest.mark.parametrize(
    "suite,cells",
    [("section4", ("-m", "2", "-n", "2")), ("section5", ("-m", "1", "-n", "2")), ("prop3", ())],
)
def test_unwritable_output_fails_before_the_run(capsys, monkeypatch, tmp_path, suite, cells):
    def no_run(*args, **kwargs):
        raise AssertionError("battery ran before the output path was checked")

    patch_batteries(monkeypatch, no_run)
    path = str(tmp_path / "missing" / "r.json")
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *cells, "-o", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    # a writable path is probed without leaving a file behind
    probe = tmp_path / "r.json"
    with pytest.raises(AssertionError, match="battery ran"):
        main(["verify", "--suite", suite, *cells, "-o", str(probe)])
    assert not probe.exists()


def test_verify_prints_uncapped_violation_totals(capsys, monkeypatch):
    real = proofcheck._coverage_report

    def noisy(ctx, negatives):
        rep = real(ctx, negatives)
        for _ in range(60):
            rep.record(None, "injected")
        return rep

    monkeypatch.setattr(proofcheck, "_coverage_report", noisy)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "section4", "-m", "1", "-n", "1"
    )
    assert code == 1
    assert "violations=60\n" in out


def test_plotdata(capsys):
    code, out, _ = run_cli(capsys, "plotdata", "--family", "spider2", "-n", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "coefficient", "defect"]
    assert rows[1] == ["0", "1", ""]
    assert rows[2] == ["1", "1", ""]


def test_plotdata_defect_sign(capsys):
    code, out, _ = run_cli(
        capsys, "plotdata", "--family", "t3mn", "-m", "4", "-n", "4"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    defects = [int(r[2]) for r in rows if r[2] != ""]
    assert any(d < 0 for d in defects)
    # below the top index the defects stay nonnegative
    m = n = 4
    for r in rows:
        if r[2] != "" and int(r[0]) <= m + n + 4:
            assert int(r[2]) >= 0


def test_scan_takes_no_jobs_option():
    # scan is one serial stream; the retired --jobs is an unknown argument
    done = subprocess.run(
        [sys.executable, "-m", "treepoly", "scan", "--family", "t3mn",
         "-m", "1..2", "-n", "1..2", "--jobs", "2"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: treepoly [-h]")
    assert done.stderr.endswith("error: unrecognized arguments: --jobs 2\n")
    assert "Traceback" not in done.stderr


def test_verify_guard_overrun_is_usage_error(capsys, monkeypatch):
    clear_slice_patterns()  # a warm table would skip the lowered guard
    monkeypatch.setattr(proofcheck, "PATTERN_GUARD", 10)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "section4", "-m", "1", "-n", "1"
    )
    assert code == 2
    assert err.startswith("error: ") and "guard" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "t3mn", "-m", "1..1000000000000", "-n", "1"),
        ("--family", "both", "-m", "1..101", "-n", "1..100"),
        ("-m", "0..10" + "0" * 30, "-n", "0..10" + "0" * 30),
        ("--diag", "k,k+1", "-k", "1..1000000000000"),
    ],
)
def test_oversized_scan_is_usage_error(capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("scan started despite an oversized range")

    monkeypatch.setattr(cli, "scan_row", no_run)
    code, out, err = run_cli(capsys, "scan", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: scan of ")
    assert err.endswith(f"cells exceeds the limit of {cli.MAX_SCAN_CELLS}\n")


def test_scan_size_limit_admits_its_own_size(capsys, monkeypatch):
    row = cli.scan_row("t3mn", 1, 1)
    cells = []
    # 10,000 diagonal cells reach m = n = 10,000, past the vertex limit
    monkeypatch.setattr(cli, "MAX_FAMILY_VERTICES", 40_012)
    monkeypatch.setattr(cli, "scan_row", lambda family, m, n: cells.append((m, n)) or row)
    code, _, err = run_cli(capsys, "scan", "--family", "t3mn", "-m", "1..100", "-n", "1..100")
    assert code == 0, err
    assert len(cells) == cli.MAX_SCAN_CELLS == 100 * 100
    code, _, err = run_cli(capsys, "scan", "--family", "t3mn", "--diag", "k,k", "-k", "1..10000")
    assert code == 0, err
    assert len(cells) == 2 * cli.MAX_SCAN_CELLS


# Recorded before the tree DP shared work between isomorphic subtrees.
def test_scan_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "both", "-m", "1..12", "-n", "1..12", "--format", "json"
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3a8158c58c91dddfdc6999ce6b35c4d0a079fb474c89480fb0918d27450e6990"


_SCAN_GRID = ("scan", "--family", "both", "-m", "1..6", "-n", "1..6", "--assert", "log-concave")
# Recorded at the commit before the scan wrote each row as it computed it: the
# digest of stdout, or of the -o file, where a JSON or table scan has no final
# newline.  Every grid scan exits 1 and names the same 22 cells on stderr.
_PINNED_SCANS = {
    (*_SCAN_GRID, "--format", "json"):
        "ca00ebf84df90146f32a99564a58e79c6e52383d45ba4ef85a095a2a0af51933",
    (*_SCAN_GRID, "--format", "json", "-o", "FILE"):
        "8eeb22ac7f4aa5f274459f7a6f192baf193eee7bee6422413282364d7a040c69",
    (*_SCAN_GRID, "--format", "csv"):
        "d3e01c162c01bacc07fd63b3b843496e7d59d90acea67d41b43f5e1f747c81d9",
    (*_SCAN_GRID, "--format", "csv", "-o", "FILE"):
        "d3e01c162c01bacc07fd63b3b843496e7d59d90acea67d41b43f5e1f747c81d9",
    (*_SCAN_GRID, "--format", "table"):
        "ee836e8021ad0932b2ded13199d53ab03ec08c49f4c3e0c135a6b790c424676b",
    (*_SCAN_GRID, "--format", "table", "-o", "FILE"):
        "c47fa13ce175a622e6ac18ebcbddd9912b1b1c644c5cc05bbb83fbc43f6f467f",
    ("scan", "--family", "t3mn-star", "--diag", "k,k+1", "-k", "0..9", "--format", "json"):
        "1c4471f57e69758d2b40e9151c14e815c4521e03af8e1d6f9259c107ca9c2352",
}
_PINNED_SCAN_STDERR = "154dd98b9620174526d4143ab197daad7ca069963a3207273a3b058e40e22170"


@pytest.mark.parametrize("argv", list(_PINNED_SCANS))
def test_scan_output_bytes_are_pinned(capsys, tmp_path, argv):
    path = tmp_path / "rows"
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    if "FILE" in argv:
        assert out == ""
        data = path.read_bytes()
    else:
        data = out.encode()
    assert hashlib.sha256(data).hexdigest() == _PINNED_SCANS[argv]
    if "--assert" in argv:
        assert code == 1
        assert hashlib.sha256(err.encode()).hexdigest() == _PINNED_SCAN_STDERR
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_scan_writes_each_row_before_computing_the_next(capsys, monkeypatch, fmt):
    # when the cell of row k is computed, rows 1..k-1 are on stdout (each row
    # names its family once) and no row before k-1 is still alive
    written, rows, seen = [], [], []

    def scan_row(family, m, n):
        written.append(capsys.readouterr().out)
        alive = sum(ref() is not None for ref in rows)
        seen.append(("".join(written).count("t3mn"), alive <= 1))
        row = intpoly.scan_row(family, m, n)
        rows.append(weakref.ref(row))
        return row

    monkeypatch.setattr(cli, "scan_row", scan_row)
    code = main(["scan", "--family", "t3mn", "-m", "1..3", "-n", "1..4", "--format", fmt])
    written.append(capsys.readouterr().out)
    assert code == 0
    assert seen == [(k, True) for k in range(12)]
    assert "".join(written).count("t3mn") == 12


def test_interrupted_scan_leaves_the_rows_written_so_far(monkeypatch, tmp_path):
    class Interrupted(Exception):
        pass

    calls = []

    def scan_row(family, m, n):
        calls.append((m, n))
        if len(calls) == 3:
            raise Interrupted
        return intpoly.scan_row(family, m, n)

    monkeypatch.setattr(cli, "scan_row", scan_row)
    path = tmp_path / "rows.csv"
    with pytest.raises(Interrupted):
        main(["scan", "--family", "t3mn", "-m", "1..3", "-n", "1..3", "-o", str(path)])
    rows = list(csv.reader(path.open(newline="")))
    assert rows[0][:3] == ["family", "m", "n"]
    assert [row[:3] for row in rows[1:]] == [["t3mn", "1", "1"], ["t3mn", "1", "2"]]


# Deselected by default: `python -m pytest -m slow`.
@pytest.mark.slow
def test_scan_at_the_cell_limit_streams(tmp_path):
    # The largest admitted scan, 20,000 rows and 105 MB of JSON, in a child
    # process.  Peak memory is the child's VmHWM, read from its own
    # /proc/self/status at exit (ru_maxrss would carry this process's peak
    # over exec).  A scan that kept every row until the end peaked at 527 MB;
    # streamed, what stays is the cell cache.
    path = tmp_path / "rows.json"
    child = (
        "import sys\n"
        "from treepoly.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(*[line.split()[1] for line in fh if line.startswith('VmHWM:')])\n"
        "sys.exit(code)\n"
    )
    argv = ["scan", "--family", "both", "-m", "1..100", "-n", "1..100", "--format", "json"]
    done = subprocess.run(
        [sys.executable, "-c", child, *argv, "-o", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=600,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert int(done.stdout) < 200 * 1024  # kB
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    # recorded at the commit before the scan streamed
    assert digest.hexdigest() == "d80392a6f734db050b01dfa16337b98969bd05542074b0500a8a1b6120292e0e"


# Recorded at the commit before the coefficient recurrence, when spiders went
# through the tree DP and family cells through binomial-row products.
_PINNED_AT_THE_VERTEX_LIMIT = {
    ("poly", "--family", "t3mn", "-m", "1247", "-n", "1248", "--format", "json"):
        "9e7d41e90cc36b3e205423f203520495d35ca6d50e9d5bf8792f2560cc37e27d",
    ("poly", "--family", "t3mn_star", "-m", "1244", "-n", "1244", "--format", "json"):
        "2cca4eed675a80dd8a46470605875b86c3c4f7bee691f164df354d7a11da01ea",
    ("poly", "--family", "spider2", "-n", "2499", "--format", "json"):
        "2bbc2392ffffb88acfaea65f27dfccf4e936e45ee0aabf93733849b826279015",
    ("poly", "--family", "spider12", "-k", "1", "-r", "2499", "--format", "json"):
        "904c5cda4f9ffa86c2ce15dcb4d40f400f7b4be575ef30542cb2435efeec06e3",
    ("poly", "--family", "spider12", "-k", "4999", "-r", "0", "--format", "json"):
        "3743368a242950c7720b41521ebc28b56328e024baa5ac8fa183266ccfd492e5",
    ("plotdata", "--family", "t3mn", "-m", "2494", "-n", "1"):
        "43185d85f233caf11cb56f47d3605c2fffe5267f6fffc8403d37c1b344bfe54b",
}


@pytest.mark.parametrize("argv", list(_PINNED_AT_THE_VERTEX_LIMIT))
def test_vertex_limit_bytes_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_AT_THE_VERTEX_LIMIT[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--family", "spider2", "-n", "5", "--format", "json"),
        ("poly", "--family", "spider12", "-k", "3", "-r", "2", "--format", "csv"),
        ("plotdata", "--family", "spider12", "-k", "0", "-r", "4"),
        ("poly", "--family", "t3mn-star", "-m", "2", "-n", "3"),
        ("plotdata", "--family", "t3mn", "-m", "3", "-n", "1"),
        ("scan", "--family", "both", "-m", "0..4", "-n", "0..4", "--format", "json"),
    ],
)
def test_commands_build_no_graph_and_reach_no_tree_dp(capsys, monkeypatch, argv):
    # the printed polynomials come from the closed forms alone: with the
    # spider builders, the forest walk and the tree DP made to fail, every
    # command prints what it prints without them
    clear_cell_cache()
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("a command built a graph or reached the tree DP")

    names = ("spider2", "spider12", "rooted_forest", "indpoly_tree", "family_graph")
    assert not any(hasattr(cli, name) for name in names)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("treepoly."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    clear_cell_cache()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def no_polynomial(monkeypatch):
    """Make every way to a family or spider polynomial and every verify
    driver fail if it is reached."""

    def no_run(*args, **kwargs):
        raise AssertionError("cell built despite its size")

    for name in ("scan_row", "family_poly", "spider_poly"):
        monkeypatch.setattr(cli, name, no_run)
    patch_batteries(monkeypatch, no_run)
    for name in ("family_poly", "family_graph", "indpoly_tree"):
        monkeypatch.setattr(intpoly, name, no_run)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("poly", "--family", "t3mn", "-m", "1000000000000", "-n", "1"),
         "t3mn(1000000000000,1) has 2000000000012 vertices"),
        (("plotdata", "--family", "t3mn-star", "-m", "0", "-n", "2495"),
         "t3mn_star(0,2495) has 5002 vertices"),
        (("scan", "--family", "t3mn", "-m", "1000000000000", "-n", "1"),
         "t3mn(1000000000000,1) has 2000000000012 vertices"),
        (("scan", "--family", "both", "-m", "1..3", "-n", "2490..2492"),
         "t3mn_star(3,2492) has 5002 vertices"),
        (("scan", "--family", "t3mn", "--diag", "k+1,k-1", "-k", "1..1248"),
         "t3mn(1249,1247) has 5002 vertices"),
        (("poly", "--family", "spider2", "-n", "100000000"), "spider2(100000000) has 200000001 vertices"),
        (("plotdata", "--family", "spider12", "-k", "100000000", "-r", "1"),
         "spider12(100000000,1) has 100000003 vertices"),
        (("plotdata", "--family", "spider2", "-n", "2500"), "spider2(2500) has 5001 vertices"),
        (("poly", "--family", "spider12", "-k", "2", "-r", "2499"), "spider12(2,2499) has 5001 vertices"),
        (("poly", "--family", "spider12", "-k", "5000", "-r", "0"), "spider12(5000,0) has 5001 vertices"),
        (("verify", "--suite", "section4", "-m", "100000000", "-n", "1"),
         "t3mn(100000000,1) has 200000012 vertices"),
        (("verify", "--suite", "section5", "-m", "1", "-n", "100000000"),
         "t3mn_star(1,100000000) has 200000014 vertices"),
        (("verify", "--suite", "prop3", "-n", "100000000"), "spider2(100000000) has 200000001 vertices"),
        (("verify", "--suite", "section4", "-m", "2496", "-n", "0"), "t3mn(2496,0) has 5002 vertices"),
    ],
)
def test_oversized_family_cell_is_usage_error(capsys, monkeypatch, argv, message):
    no_polynomial(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}, more than the limit of {cli.MAX_FAMILY_VERTICES}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("poly", "--family", "t3mn", "-m", "-1", "-n", "0"), "m and n must be nonnegative"),
        (("plotdata", "--family", "t3mn-star", "-m", "-2", "-n", "-2"), "m and n must be nonnegative"),
        (("poly", "--family", "spider2", "-n", "-1"), "leg count must be nonnegative"),
        (("plotdata", "--family", "spider12", "-k", "1", "-r", "-1"), "leg counts must be nonnegative"),
        (("scan", "--family", "t3mn", "-m=-1..2", "-n", "1"), "m and n must be nonnegative"),
        (("scan", "--family", "both", "-m", "1", "-n=-3..-1"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "--diag", "k-1,k", "-k", "0..2"), "m and n must be nonnegative"),
        (("verify", "--suite", "section4", "-m", "-1", "-n", "0"), "m and n must be nonnegative"),
        (("verify", "--suite", "section5", "-m", "1", "-n", "-2"), "m and n must be nonnegative"),
        (("verify", "--suite", "prop3", "-n", "-1"), "prop3 needs -n of at least 1"),
        (("scan", "--family", "t3mn", "-m", "-1..2", "-n", "1"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "--m", "-1..2", "-n", "1"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "--m=-1..2", "-n", "1"), "m and n must be nonnegative"),
        (("scan", "--family", "both", "-m", "1", "-n", "-3..-1"), "m and n must be nonnegative"),
        (("scan", "--family", "both", "-m", "1", "--n", "-3..2"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "-m", "-1", "-n", "1"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "--diag", "k,k+1", "-k", "-1..2"), "m and n must be nonnegative"),
        (("scan", "--family", "t3mn", "--diag", "k,k+1", "--k", "-2..0"), "m and n must be nonnegative"),
    ],
)
def test_negative_size_is_usage_error(capsys, monkeypatch, argv, message):
    no_polynomial(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_negative_scan_cell_is_refused_before_the_output_path(capsys, monkeypatch, tmp_path):
    # no cell is computed, and the negative size is named before the
    # unwritable output
    no_polynomial(monkeypatch)
    unwritable = str(tmp_path / "missing" / "scan.json")
    code, out, err = run_cli(capsys, "scan", "--family", "t3mn", "-m=-1..2", "-n", "1", "-o", unwritable)
    assert code == 2 and out == ""
    assert err == "error: m and n must be nonnegative\n"


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only UsageError and EnumerationGuardError exit 2; any other error is
    # a fault of the program and propagates
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "scan_row", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["scan", "--family", "t3mn", "-m", "1", "-n", "1"])


def test_family_vertex_limit_admits_its_own_size(capsys, monkeypatch):
    no_polynomial(monkeypatch)
    cells = []
    row = intpoly.ScanRow("t3mn", 1, 1, intpoly.ONE, intpoly.analyze(intpoly.ONE))

    def record(family, m, n):
        cells.append((family, m, n))
        return row if family == "scan" else intpoly.ONE

    monkeypatch.setattr(cli, "family_poly", record)
    monkeypatch.setattr(cli, "scan_row", lambda family, m, n: record("scan", m, n))
    monkeypatch.setattr(cli, "spider_poly", lambda k, r: record("spider_poly", k, r))
    for argv in (
        ("poly", "--family", "t3mn", "-m", "2495", "-n", "0"),
        ("plotdata", "--family", "t3mn_star", "-m", "1247", "-n", "1247"),
        ("poly", "--family", "spider2", "-n", "2499"),
        ("plotdata", "--family", "spider12", "-k", "1", "-r", "2499"),
        ("poly", "--family", "spider12", "-k", "4999", "-r", "0"),
        ("scan", "--family", "both", "-m", "1..100", "-n", "1..100", "--format", "json"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert cells[:5] == [
        ("t3mn", 2495, 0), ("t3mn_star", 1247, 1247),
        ("spider_poly", 0, 2499), ("spider_poly", 1, 2499), ("spider_poly", 4999, 0),
    ]
    assert len(cells) == 5 + 2 * 100 * 100


def test_verify_at_the_vertex_limit_ends_at_the_pattern_guard(capsys):
    # t3mn(2495,0) has exactly MAX_FAMILY_VERTICES vertices, so it passes the
    # vertex guard; its branch 2, spider2(2495), is refused by the pattern
    # guard before any pattern is built
    code, out, err = run_cli(capsys, "verify", "--suite", "section4", "-m", "2495", "-n", "0")
    assert code == 2 and out == ""
    assert err == (
        "error: t3mn(2495,0): slice spider2(2495) has more admissible maps than the"
        f" pattern guard of {proofcheck.PATTERN_GUARD:,} maps\n"
    )


def test_verify_refuses_too_many_negatives_before_enumerating(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("negative maps enumerated despite the guard")

    monkeypatch.setattr(proofcheck, "negative_members", no_run)
    code, out, err = run_cli(capsys, "verify", "--suite", "section4", "-m", "4", "-n", "4")
    assert code == 2 and out == ""
    assert err == (
        "error: t3mn(4,4) has 33,044,455 negative maps, "
        f"more than the limit of {proofcheck.MAX_NEGATIVES:,}\n"
    )
    # section5 counts the star's own negatives, not its core's 2,897
    monkeypatch.setattr(proofcheck, "MAX_NEGATIVES", 12_810)
    code, out, err = run_cli(capsys, "verify", "--suite", "section5", "-m", "1", "-n", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: t3mn_star(1,2) has 12,811 negative maps, ")


def test_verify_refuses_star_3_4_from_its_count(capsys, monkeypatch):
    monkeypatch.setattr(proofcheck, "negative_members", lambda ctx: pytest.fail("enumerated"))
    code, out, err = run_cli(capsys, "verify", "--suite", "section5", "-m", "3", "-n", "4")
    assert code == 2 and out == ""
    assert err == (
        "error: t3mn_star(3,4) has 23,760,992 negative maps, "
        f"more than the limit of {proofcheck.MAX_NEGATIVES:,}\n"
    )
