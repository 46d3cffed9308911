"""Every public name and every settable value of the package has a caller in
the package or the benchmark.

A public top-level function, class or UPPER_CASE constant that only its own
tests name is surface to maintain with nothing depending on it: give it a
caller or delete it.  A caller is code: a name, an attribute or an imported
name in the package or the benchmark; a string or comment that happens to
contain the name does not count.

The same holds one level down: a defaulted parameter of a public function,
method or constructor (a dataclass field with a default included) that no
call in the package or the benchmark passes is an option only tests set.
A call passes a parameter by keyword, by position, or by forwarding through
``*args`` or ``**kwargs``.  Setting a field on a built object is not passing
it: a constructor that is always called without it has a default nobody
chooses.

The paper's evaluators below are kept as library entry points, names and
parameters both; their tests are what checks them.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(
        isinstance(target, ast.Name) and target.id == "dataclass"
        for target in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    )


def _defaulted(args: ast.arguments, skip_self: bool) -> list[tuple[str, int | None]]:
    """(name, call position) of each parameter with a default; keyword-only ones have position None."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(arg.arg, i - skip_self) for i, arg in enumerate(positional) if i >= first_default]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _callables(path: Path) -> list[tuple[str, str, list[tuple[str, int | None]], int, int]]:
    """(shown name, called name, defaulted parameters, first line, last line) of
    each public function, public method and constructor defined in ``path``.
    A constructor is called by its class name; a dataclass's fields are its
    parameters, in order."""
    out = []
    for node in SEARCHED[path].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, _defaulted(node.args, False), node.lineno, node.end_lineno))
            continue
        if _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            defaulted = [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
            out.append((node.name, node.name, defaulted, node.lineno, node.end_lineno))
        for method in node.body:
            if isinstance(method, ast.FunctionDef) and (method.name == "__init__" or not method.name.startswith("_")):
                called = node.name if method.name == "__init__" else method.name
                defaulted = _defaulted(method.args, True)
                out.append((f"{node.name}.{method.name}", called, defaulted, method.lineno, method.end_lineno))
    return out


def _calls(tree: ast.AST) -> list[tuple[str, int, float, set[str], bool]]:
    """(called name, line, positions covered, keywords, forwards **) of every call in ``tree``.

    Positions covered is the number of plain positional arguments, or infinity
    from a ``*args`` on; ``forwards **`` is True when the call passes ``**kwargs``.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        covered = float("inf") if starred else len(node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        forwards = any(k.arg is None for k in node.keywords)
        out.append((name, node.lineno, covered, keywords, forwards))
    return out


CALLS = {path: _calls(tree) for path, tree in SEARCHED.items()}


def _is_passed(param: str, position: int | None, called: str, home: Path, first: int, last: int) -> bool:
    return any(
        name == called
        and not (path == home and first <= line <= last)
        and (forwards or param in keywords or (position is not None and position < covered))
        for path, calls in CALLS.items()
        for name, line, covered, keywords, forwards in calls
    )


def test_every_defaulted_parameter_is_passed_by_a_caller():
    unpassed = [
        f"{path.stem}.{shown}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for shown, called, params, first, last in _callables(path)
        if called not in EVALUATORS
        for param, position in params
        if not _is_passed(param, position, called, path, first, last)
    ]
    assert not unpassed, f"defaulted parameters no caller outside their tests passes: {unpassed}"


def test_cli_does_no_power_arithmetic():
    # Bounds such as the typical-set sandwich are stated in the library; the
    # CLI reads arguments and emits, so it has no ``**`` of its own.
    tree = SEARCHED[PACKAGE / "cli.py"]
    powers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert not powers, f"cli.py raises to a power on lines {powers}"


def _private_slots() -> set[str]:
    """The private slots of ``qcore.LabeledState``, read from its ``__slots__``."""
    (cls,) = [n for n in SEARCHED[PACKAGE / "qcore.py"].body if isinstance(n, ast.ClassDef) and n.name == "LabeledState"]
    (slots,) = [n.value for n in cls.body if isinstance(n, ast.Assign) and n.targets[0].id == "__slots__"]
    return {name for name in ast.literal_eval(slots) if name.startswith("_")}


def test_no_module_but_qcore_reads_a_private_slot_of_a_state():
    # A state's storage (a factor, or a dense block on its rows) and its caches
    # are qcore's to read; any other module asks qcore, so each layout has one home.
    slots = _private_slots()
    assert {"_matrix", "_factor", "_block", "_spectrum", "_pure", "_support", "_position"} <= slots
    reads = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "qcore.py"
        for node in ast.walk(SEARCHED[path])
        if isinstance(node, ast.Attribute) and node.attr in slots
    ]
    assert not reads, f"private slots of LabeledState read outside qcore: {reads}"
