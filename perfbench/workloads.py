"""The four benchmark workloads, as lists of operations.

An operation is one CLI call or one library call.  Running it gives the text
whose digest is compared with the golden digest, and a verdict (exit code 0
or a passing report).  A workload's operations run one after another in one
fresh interpreter, so the process-global caches are shared between the
operations of one sample and never between samples.

The seed only draws the normalization ``B = +-p/q`` (1 <= p, q <= 9).  Every
structural output is invariant under ``B``, so the text of every operation,
and with it the golden digest, must not depend on the seed.  Workloads
without a ``B`` argument take the seed and do not use it.

Why each workload, and which layer it stresses:

* ``tables``: batch exact rank over Fractions (``row_reduce`` and
  ``QMatrix`` construction) on slices of up to 511 columns; the ideal and
  pairing routes of the refined tables.  ``operators`` does no work here.
* ``sl2``: lambda-tree operator application, ``Element.__mul__`` and the
  ``d_*`` derivations; ``linalg`` does almost no work here.
* ``closure``: the same ``linalg`` layer used incrementally (``RowSpan.add``
  rejecting most of its adds), plus the closure fixpoint.
* ``series``: ``phi_series``, ``TSeries``/``InvariantPoly`` products,
  ``embed`` and the ``genfun`` ``BiPoly`` battery; ``linalg`` and
  ``operators`` do almost nothing here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

WORKLOADS = ("tables", "sl2", "closure", "series")

# Metric that must be non-zero in a traced run of each workload: it names the
# layer the workload exists to stress, so zero means the tracer missed it.
HOT_METRIC = {
    "tables": "linalg.row_reduce_calls",
    "sl2": "operators.apply_calls",
    "closure": "linalg.span_add_calls",
    "series": "series.phi_calls",
}

# CLI argument lists; "B" stands for the seeded normalization.
_CLI = {
    "tables": (
        "omega --genus 5 --route ideal --max-coh 14",
        "verify --suite main --genus 5 --normalization=B",
        "verify --suite pairing --genus 4 --normalization=B",
        "verify --suite intermediate --genus 4 --d 1",
    ),
    "sl2": (
        "sl2 --check relations --genus 4 --d 0 --max-coh 16",
        "sl2 --check descent --genus 4 --d 0",
        "sl2 --check descent --genus 4 --d 1",
        "sl2 --check descent --genus 4 --d 2",
        "sl2 --check adjoint --genus 3 --normalization=B",
    ),
}

_CLOSURE_CALLS = ((3, (8, 12)), (2, (4, 8, 12)))
_MUMFORD_BATCHES = ((3, 0), (3, 1), (3, 2), (4, 0))


def normalization(seed: int) -> Fraction:
    """The seeded normalization B = +-p/q with 1 <= p, q <= 9."""
    rng = random.Random(seed)
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    return Fraction(rng.choice((1, -1)) * p, q)


def _cli_op(argv):
    def run():
        from rank2chern.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return buf.getvalue(), code == 0

    return run


def _closure_op(genus, buffers):
    def run():
        from rank2chern.suites import suite_closure

        report = suite_closure(genus, buffers)
        return json.dumps(report, sort_keys=True), report["pass"] and report["cases"] > 0

    return run


def mumford_keys(g: int, d: int):
    """The (k, m, sigma) keys of the modified-relation cross-validation at
    (g, d): every primitive class, every m <= g - l and k <= 2g + 2d + 4."""
    from rank2chern.relations import prim_basis

    for l in range(g + 1):
        basis = prim_basis(g, l)
        for m in range(g - l + 1):
            for k in range(2 * g + 2 * d + 5):
                for sig in basis:
                    yield k, m, sig


def _mumford_op(g, d):
    def run():
        from rank2chern.algebra import format_element
        from rank2chern.relations import modified_mumford

        lines = [format_element(modified_mumford(d, k, m, sig, g)) for k, m, sig in mumford_keys(g, d)]
        return "\n".join(lines) + "\n", bool(lines)

    return run


def operations(workload: str, seed: int):
    """[(name, run)] for one sample; ``run()`` returns (text, verdict_ok).

    Names do not depend on the seed: they key the golden digests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = str(normalization(seed))
    ops = []
    for line in _CLI.get(workload, ()):
        argv = [a.replace("=B", f"={b}") for a in line.split()]
        ops.append((line, _cli_op(argv)))
    if workload == "closure":
        for genus, buffers in _CLOSURE_CALLS:
            ops.append((f"suite_closure({genus}, {buffers})", _closure_op(genus, buffers)))
    if workload == "series":
        for g, d in _MUMFORD_BATCHES:
            ops.append((f"modified_mumford g={g} d={d}", _mumford_op(g, d)))
        ops.append(("verify --suite genfun", _cli_op(["verify", "--suite", "genfun"])))
    return ops
