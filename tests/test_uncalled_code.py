"""Every def in ``src/`` has a user: a guard against code that no route,
check, CLI path, demo or benchmark key needs.

A module-level function or class method of the package passes when one of
these holds:

* its name is referenced in ``src/`` outside its own body, or in
  ``demos/``: as a name or an attribute for a function, and as an
  attribute (``.name``) only for a method, which a local variable of the
  same name does not call;
* ``perfbench/tracer.py`` reads its ``"layer.name"`` or
  ``"layer.Class.method"`` key, read as ``test_benchmark_contract.py``
  reads it;
* ``KEPT`` names it, with the reason it stays.

Dunder methods are called by the language and pass.  Tests are no users: a
name only the tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

from test_benchmark_contract import TRACER, _load_tracer

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "algebra.chern_filter_basis": "the Chern filtration itself; an acceptance criterion checks it",
    "algebra.d_alpha": "with d_beta and d_psi, the derivations that define the sl2 operators",
    "algebra.d_beta": "with d_alpha and d_psi, the derivations that define the sl2 operators",
    "algebra.d_psi": "the odd derivation of the sl2 operators; an acceptance criterion checks it",
    "algebra.theta": "the theta class that the primitive classes are defined by",
    "relations.modified_mumford_sum": "the sum route of the modified relation (acceptance criterion 5)",
    "relations.modified_mumford_closed": "the closed route of the modified relation (acceptance criterion 5)",
    "linalg.RowSpan.vectors": "the one reading of a span as its reduced echelon rows",
    "operators.operator_adjointness_failures": "the per-operator adjointness witnesses; retires with the "
    "invariant-ring sl2 checks",
}


def _defs(tree):
    """("name" or "Class.method", node) of each module-level function and
    class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """The nodes that name something, as {name: [node, ...]}."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            out.setdefault(node.attr, []).append(node)
    return out


def uncalled(sources: dict, demos, keys, kept) -> list:
    """The "layer.name" keys of the defs in ``sources`` ({layer: source
    text}) that have no user: no reference in the sources outside their
    own body, none in the ``demos`` texts, no key in ``keys`` and no entry
    in ``kept``; a method's reference must be an attribute."""
    trees = {layer: ast.parse(text) for layer, text in sources.items()}
    refs = [_references(tree) for tree in [*trees.values(), *map(ast.parse, demos)]]
    out = []
    for layer, tree in trees.items():
        for qualname, node in _defs(tree):
            name, key = qualname.rpartition(".")[2], f"{layer}.{qualname}"
            if name.startswith("__") and name.endswith("__") or key in keys or key in kept:
                continue
            own = {id(n) for n in ast.walk(node)}
            kinds = ast.Attribute if "." in qualname else (ast.Name, ast.Attribute)
            if not any(id(n) not in own and isinstance(n, kinds) for r in refs for n in r.get(name, ())):
                out.append(key)
    return out


def _sources() -> dict:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "rank2chern").glob("*.py"))}


def _demos() -> list:
    return [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]


def _tracer_keys() -> set:
    """The keys the benchmark's tracer reads: its named lists, the keys of
    its counted metrics and its method keys."""
    tracer, text = _load_tracer(), TRACER.read_text()
    counted = re.findall(r"self\._(?:calls|self)\(([^()]*)\)", text)
    keys = {key for args in counted for key in re.findall(r'"([a-z]+\.\w+)"', args)}
    keys |= set(re.findall(r'"([a-z]+\.[A-Z]\w*\.\w+)"', text))
    return keys | {*tracer.CACHED, *tracer.OBSERVERS, *tracer.DERIVATIONS, *tracer.MUMFORD, *tracer.GENFUN_CHECKS}


def test_every_def_in_src_has_a_user():
    assert uncalled(_sources(), _demos(), _tracer_keys(), KEPT) == []


def test_every_kept_name_is_a_def_in_src():
    defs = {f"{layer}.{name}" for layer, text in _sources().items() for name, _ in _defs(ast.parse(text))}
    assert set(KEPT) <= defs


def test_the_scan_flags_an_unused_def():
    # negative control: a def and a method that nothing calls, one that
    # only calls itself, and a method named only by a local variable
    sources = _sources()
    before = set(uncalled(sources, _demos(), _tracer_keys(), KEPT))
    sources["integral"] += (
        "\n\ndef _never_called():\n    return 0\n"
        "\n\ndef _only_itself(n):\n    return _only_itself(n - 1) if n else 0\n"
    )
    sources["linalg"] += (
        "\n\nclass _Spare:\n    def unused_method(self):\n        width = 0\n        return width\n"
        "\n    def width(self):\n        return 0\n"
    )
    got = set(uncalled(sources, _demos(), _tracer_keys(), KEPT)) - before
    assert got == {
        "integral._never_called",
        "integral._only_itself",
        "linalg._Spare.unused_method",
        "linalg._Spare.width",
    }
    # each of the three ways out clears a flagged def
    assert "integral._never_called" not in uncalled(sources, _demos(), _tracer_keys(), {"integral._never_called": ""})
    assert "integral._never_called" not in uncalled(sources, _demos(), {"integral._never_called"}, KEPT)
    assert "integral._never_called" not in uncalled(sources, ["_never_called()"], _tracer_keys(), KEPT)
