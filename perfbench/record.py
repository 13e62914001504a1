"""Record expected.json from the program as it stands.

    python3 perfbench/record.py

Run from the root of a checkout, once, at the commit that defines the
benchmark's workloads.  Each workload runs once in a fresh interpreter with
seed 1.  Verify workloads record every lemma's ok state and its `cases`
(except `negative-coverage`, whose count depends on the coverage method);
the scan workload records its cells and a digest of every coefficient list.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, coefficient_digest  # noqa: E402

CLI = "import sys, treepoly.cli; sys.exit(treepoly.cli.main(sys.argv[1:]))"


def run_cli(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def record(name: str, work: str) -> dict:
    workload = WORKLOADS[name]
    report_path = os.path.join(work, "record-report.json")
    code, stdout = run_cli(workload.argv(1, report_path))
    if workload.verify:
        with open(report_path) as fh:
            reports = json.load(fh)["reports"]
        os.remove(report_path)
        lemmas = []
        for r in reports:
            spec = {"lemma": r["lemma"], "ok": not r["violations"]}
            if r["lemma"] != "negative-coverage":
                spec["cases"] = r["cases"]
            lemmas.append(spec)
        return {"exit": code, "lemmas": lemmas}
    rows = json.loads(stdout)
    args = dict(zip(workload.args, workload.args[1:]))
    return {
        "exit": code,
        "families": list(dict.fromkeys(row["family"] for row in rows)),
        "m_max": int(args["-m"].split("..")[1]),
        "n_max": int(args["-n"].split("..")[1]),
        "digest": coefficient_digest(rows),
    }


def main() -> int:
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    expected = {name: record(name, work) for name in WORKLOADS}
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
