"""Every public name of the package has a caller in the package or the benchmark.

A public top-level function, class or UPPER_CASE constant that only its own
tests name is surface to maintain with nothing depending on it: give it a
caller or delete it.  A caller is code: a name, an attribute or an imported
name in the package or the benchmark; a string or comment that happens to
contain the name does not count.  The paper's evaluators below are kept as
library entry points; their tests are what checks them.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entlab"
SEARCHED = {
    path: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
}

EVALUATORS = {
    "beating_hashing": "the predicate I(C>AB) > 0 and S(A|BC) < S(A|B) for helpers beating hashing",
    "da_upper_bounds": "ensemble and marginal upper estimates of the one-shot assisted rate",
    "split_transfer_errors": "decoupling errors of the two halves of a split transfer",
    "max_entropy_fidelity_search": "the direct fidelity search that cross-checks H_max duality",
    "smooth_max_lower_bound": "the truncation lower bound on the smooth max-entropy",
    "fannes_bound": "the Fannes continuity bound on entropy differences",
    "schmidt": "the Schmidt analysis of a pure bipartite state",
}


def _public_definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public top-level definition in ``path``."""
    out = []
    for node in SEARCHED[path].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id.isupper():
            names = [node.target.id]
        else:
            continue
        out += [(name, node.lineno, node.end_lineno) for name in names if not name.startswith("_")]
    return out


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name the code in ``tree`` refers to: names,
    attributes and imported names; strings and comments do not count."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno))
    return out


REFERENCES = {path: _references(tree) for path, tree in SEARCHED.items()}


def _has_caller(name: str, home: Path, first: int, last: int) -> bool:
    return any(
        ref == name and not (path == home and first <= line <= last)
        for path, refs in REFERENCES.items()
        for ref, line in refs
    )


def test_every_public_name_has_a_caller():
    definitions = [(name, path, first, last) for path in sorted(PACKAGE.glob("*.py")) for name, first, last in _public_definitions(path)]
    defined = {name for name, *_ in definitions}
    assert not set(EVALUATORS) - defined, "an exempt evaluator no longer exists; drop it from EVALUATORS"
    unused = [
        f"{path.stem}.{name}"
        for name, path, first, last in definitions
        if name not in EVALUATORS and not _has_caller(name, path, first, last)
    ]
    assert not unused, f"public names with no caller outside their tests: {unused}"
