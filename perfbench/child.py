"""One benchmark iteration: a fresh interpreter running the treepoly CLI.

    python3 perfbench/child.py SIDECAR TRACE RUN [CLI ARGS...]

Set-up ends when `treepoly.cli` is imported; the monotonic clock reading at
that moment goes to the SIDECAR JSON file together with the exit code and
the process's peak resident memory.  With
TRACE=1 the layer wrappers are installed after that reading, and the spans
and counters they collect go to the sidecar too.  With no CLI arguments the
process only imports the package (a set-up probe).
"""

import time
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import treepoly.cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402

# (module, attribute) of every wrapped name.  A dotted attribute is a method
# patched on its class; any other name is rebound in every treepoly module
# that imported it.
WRAPPED = (
    ("treepoly.cli", "main"),
    ("treepoly.proofcheck", "verify_base"),
    ("treepoly.proofcheck", "verify_star"),
    ("treepoly.proofcheck", "negative_members"),
    ("treepoly.proofcheck", "analyze_map"),
    ("treepoly.proofcheck", "negative_class_matches"),
    ("treepoly.proofcheck", "positive_class_matches"),
    ("treepoly.proofcheck", "star_class_matches"),
    ("treepoly.proofcheck", "partner"),
    ("treepoly.proofcheck", "partner_star"),
    ("treepoly.proofcheck", "_coverage_report"),
    ("treepoly.proofcheck", "_repair_locality_reports"),
    ("treepoly.proofcheck", "_diagonal_report"),
    ("treepoly.proofcheck", "check_path_append_identities"),
    ("treepoly.shadow", "ForestShadow.expansion"),
    ("treepoly.shadow", "expansion_from_signature"),
    ("treepoly.shadow", "add_expansions"),
    ("treepoly.alphamaps", "admissible_maps"),
    ("treepoly.alphamaps", "sample_admissible"),
    ("treepoly.alphamaps", "count_admissible"),
    ("treepoly.intpoly", "scan_row"),
    ("treepoly.intpoly", "indpoly_tree"),
    ("treepoly.intpoly", "analyze"),
    ("treepoly.intpoly", "family_graph"),
    ("treepoly.symfunc", "schur_expand"),
    ("treepoly.reports", "CheckReport.record"),
)


def label(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr.split('.')[-1]}"


def install(tracer, facts: dict) -> list:
    """Wrap every name in WRAPPED; return the names that no longer exist."""
    import importlib

    from spans import replace_everywhere

    signatures: set = set()
    facts["admissible_counts"] = []
    facts["reports"] = []

    def on_signature(args):
        signatures.add(args[0])

    def on_reports(reports):
        facts["reports"].extend(
            [r.lemma, r.cases, r.elapsed, len(r.violations)] for r in reports
        )

    hooks = {
        "shadow.expansion_from_signature": {"on_call": on_signature},
        "alphamaps.count_admissible": {"on_result": facts["admissible_counts"].append},
        "proofcheck.verify_base": {"on_result": on_reports},
        "proofcheck.verify_star": {"on_result": on_reports},
    }
    missing = []
    for module_name, attr in WRAPPED:
        module = importlib.import_module(module_name)
        name = label(module_name, attr)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, name, **hooks.get(name, {}))
        if owner_name:
            setattr(owner, leaf, wrapper)
        else:
            replace_everywhere(original, wrapper, "treepoly")
    facts["signatures"] = signatures
    return missing


def peak_rss_kb() -> int:
    """VmHWM of this process.  The parent's rusage cannot give it: Linux
    carries the spawning process's peak over exec into the child's
    ru_maxrss."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    sidecar, trace, run = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[4:]
    out = {"ready": READY}
    code = 0
    if argv and not trace:
        code = treepoly.cli.main(argv)
    elif argv:
        from spans import Tracer

        tracer = Tracer(run)
        tracer.durations_for.add("intpoly.scan_row")
        facts: dict = {}
        out["missing"] = install(tracer, facts)
        code = treepoly.cli.main(argv)
        out["spans"] = [s.to_list() for s in tracer.spans()]
        out["durations"] = tracer.durations()
        out["signatures"] = len(facts.pop("signatures"))
        out.update(facts)
    sys.stdout.flush()
    out["exit"] = code
    out["peak_rss_kb"] = peak_rss_kb()
    with open(sidecar, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
