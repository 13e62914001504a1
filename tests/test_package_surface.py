"""Every top-level function, class and assigned name of the package has a
reader.

A definition that nothing in src/treepoly uses, that the package does not
export, and that no demo or benchmark wrapper names is either a test-only
helper (those live in tests/oracles.py) or a copy, cache or constant left
behind by a merge.  Dunder names such as __version__ are exempt.
"""

import ast
from pathlib import Path

import treepoly

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "treepoly"


def _names_used(tree: ast.AST) -> set[str]:
    """The identifiers a tree reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _wrapped_names() -> set[str]:
    """The top-level names in perfbench/child.py's WRAPPED, read as source."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return {attr.split(".")[0] for _, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/child.py has no WRAPPED")


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    names an assignment binds, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
            and not (node.id.startswith("__") and node.id.endswith("__"))
        ]
    return []


def _unread_definitions(package: Path, exempt: set[str]) -> list[str]:
    """module.name of each top-level function, class and assigned name of
    package that is not in exempt and that no other top-level statement of
    package reads.  Imports do not count as a read; an exported name is in
    exempt."""
    definitions = []
    reads = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            definitions.extend((path.stem, stmt, name) for name in _defined_names(stmt))
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reads.append((stmt, _names_used(stmt)))
    return [
        f"{module}.{name}"
        for module, node, name in definitions
        if name not in exempt
        and not any(name in used for stmt, used in reads if stmt is not node)
    ]


def test_every_definition_has_a_reader():
    demos = set()
    for path in (ROOT / "demos").glob("*.py"):
        demos |= _names_used(ast.parse(path.read_text()))
    exempt = set(treepoly.__all__) | demos | _wrapped_names()
    assert _unread_definitions(PACKAGE, exempt) == []


def test_an_unread_definition_is_reported(tmp_path):
    # a definition read only by its own statement or by an import is
    # unread; a dunder assignment is exempt
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef lonely(k):\n    return lonely(k - 1)\n\n\n"
        "_CACHE: dict = {}\nLIMIT = 3\n__version__ = '1'\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import LIMIT, lonely, used\n\nVALUE, OTHER = used(), LIMIT\n"
    )
    assert _unread_definitions(tmp_path, set()) == [
        "a.lonely", "a._CACHE", "b.VALUE", "b.OTHER"
    ]
    assert _unread_definitions(tmp_path, {"lonely", "_CACHE", "VALUE", "OTHER"}) == []
