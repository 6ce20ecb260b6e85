"""The package source holds no floating point.

The README promises exact arithmetic with no float anywhere; this pins it at
source level: no module of ``rank2chern`` has a float (or complex) literal
or calls ``float``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2chern"


def _float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"


def test_source_has_no_float_literal_or_float_call():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    sites = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _float_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not sites, sites


def test_the_scan_sees_a_float():
    # the scan itself must be able to fail
    tree = ast.parse("x = 0.5\ny = float(x)\nz = 1j\n")
    assert [line for line, _ in _float_sites(tree)] == [1, 2, 3]
