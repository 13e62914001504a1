import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treepoly
from treepoly import cli, proofcheck
from treepoly.cli import main


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


def test_poly_missing_args(capsys):
    code, _, err = run_cli(capsys, "poly", "--family", "t3mn", "-m", "1")
    assert code == 2
    assert "needs" in err


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


def test_python_dash_m_entry_point():
    src = str(Path(treepoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "treepoly", "verify", "--suite", "prop3", "-n", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "all checks passed" in done.stdout


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
    # --seed, --audit-limit and --sample are still accepted and change nothing
    flags = [(), (), ("--seed", "9", "--audit-limit", "0", "--sample", "5")]
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
    from treepoly import alphamaps

    def unguarded_walk(n):
        raise AssertionError("mark-case walk started before the guard check")

    monkeypatch.setattr(alphamaps, "check_marking_bijection", unguarded_walk)
    code, out, err = run_cli(capsys, "verify", "--suite", "prop3", "-n", "8")
    assert code == 2
    assert err.startswith("error: ") and "guard" in err
    assert "Traceback" not in err and out == ""


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

    for name in ("scan_row", "indpoly_tree"):
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

    for name in ("verify_base", "verify_star", "spider_suite"):
        monkeypatch.setattr(cli, name, no_run)
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


def test_scan_parallel_matches_serial(capsys):
    code, serial, _ = run_cli(
        capsys, "scan", "--family", "t3mn", "-m", "1..2", "-n", "1..2"
    )
    assert code == 0
    code, parallel, _ = run_cli(
        capsys, "scan", "--family", "t3mn", "-m", "1..2", "-n", "1..2", "--jobs", "2"
    )
    assert code == 0
    assert serial == parallel


def test_verify_guard_overrun_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(proofcheck, "PATTERN_GUARD", 10)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "section4", "-m", "1", "-n", "1"
    )
    assert code == 2
    assert err.startswith("error: ") and "guard" in err
    assert "Traceback" not in err and out == ""


def test_scan_jobs_are_bounded(capsys, monkeypatch):
    import multiprocessing

    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, work):
            return [func(*item) for item in work]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    scan = ("scan", "--family", "t3mn", "-m", "1..2", "-n", "1..2")
    code, _, _ = run_cli(capsys, *scan, "--jobs", "1000")
    assert code == 0
    assert requested == [4]  # one worker per cell, never more than the CPUs
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    code, _, _ = run_cli(capsys, *scan, "--jobs", "1000")
    assert requested == [4, 3]
    code, _, err = run_cli(capsys, *scan, "--jobs", "-1")
    assert code == 2 and err.startswith("error: ")
    assert requested == [4, 3]


# Recorded before the tree DP shared work between isomorphic subtrees.
def test_scan_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "both", "-m", "1..12", "-n", "1..12", "--format", "json"
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3a8158c58c91dddfdc6999ce6b35c4d0a079fb474c89480fb0918d27450e6990"
