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

Every parameter of a def or lambda in ``src/`` is read, too: a parameter
that its body never loads (a method's ``self`` or ``cls`` aside) is a
setting that changes no result, unless ``UNREAD`` names it with its reason.
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

UNREAD = {
    "algebra.Sparse._admit(key)": "the default hook, which admits every key; Element and InvariantPoly "
    "override it to check theirs",
    "algebra.Sparse._coerce(other)": "the default hook, which coerces nothing; BiPoly overrides it to read "
    "scalars as constants",
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


def unread_parameters(sources: dict) -> list:
    """"layer.qualname(param)" of each parameter of a def or lambda in
    ``sources`` ({layer: source text}) that its body, nested defs
    included, never loads; a method's first parameter is left out, and a
    lambda's qualname ends in ``<lambda>``."""
    out = []

    def scan(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scan(child, f"{prefix}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                if in_class and isinstance(child, ast.FunctionDef):
                    params = params[1:]
                body = child.body if isinstance(child.body, list) else [child.body]
                names = (n for b in body for n in ast.walk(b) if isinstance(n, ast.Name))
                loads = {n.id for n in names if isinstance(n.ctx, ast.Load)}
                out.extend(f"{name}({p.arg})" for p in params if p.arg not in loads)
                scan(child, name, False)
            else:
                scan(child, prefix, in_class)

    for layer, text in sources.items():
        scan(ast.parse(text), layer, False)
    return out


def test_every_parameter_in_src_is_read():
    assert [key for key in unread_parameters(_sources()) if key not in UNREAD] == []


def test_every_unread_exemption_is_a_parameter_in_src():
    assert set(UNREAD) <= set(unread_parameters(_sources()))


def test_the_scan_flags_an_unread_parameter():
    # negative control: bidegree_cone as it once was, taking a genus it never
    # read, an unread lambda and nested-def parameter, and a method whose
    # self alone goes unread, which passes
    sources = _sources()
    cone = "def bidegree_cone(max_coh: int):"
    assert cone in sources["algebra"]
    sources["algebra"] = sources["algebra"].replace(cone, "def bidegree_cone(g: int, max_coh: int):")
    sources["integral"] += (
        "\n\ndef _outer(x):\n    def inner(y, z):\n        return x + y\n    return inner, lambda u, v: v\n"
        "\n\nclass _Spare:\n    def width(self, n):\n        return n\n"
    )
    assert set(unread_parameters(sources)) - set(UNREAD) == {
        "algebra.bidegree_cone(g)",
        "integral._outer.inner(z)",
        "integral._outer.<lambda>(u)",
    }
