"""The names the benchmark harness reads from the package.

Every benchmark sample starts behind a cold-run guard that looks up each
process-global ``lru_cache`` that ``perfbench/tracer.py`` lists in
``CACHED``.  A rename in ``src/`` that drops one of them would crash every
sample, so this test reads that list (without changing it) and resolves it.

The tracer also reads per-layer metrics from ``"layer.Class.method"`` keys,
and it wraps a method only where the class itself defines it.  A refactor
that moved such a method into a base class would silently zero the metric,
so the second test reads those keys (again without changing the file) and
checks each method is defined on its own class.  The third test does the
same for the ``"layer.function"`` keys: renaming a function the tracer
observes or counts would silently zero its metric.  The fourth test runs each
observer on what its function returns for one small call, so a renamed
result key fails here instead of crashing a traced run.  The last two tests
trace ``modified_mumford`` and the sl2 descent and adjointness checks in a
fresh interpreter: the ``series`` and ``sl2`` workloads' traced runs are
refused when their hot metrics, ``series.phi_calls`` and
``operators.apply_calls``, read 0.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_cached_name_of_the_benchmark_is_an_lru_cache():
    tracer = _load_tracer()
    caches = tracer.cached_functions()
    assert sorted(caches) == sorted(tracer.CACHED) and len(caches) == 6
    for key, fn in caches.items():
        assert type(fn.cache_info()).__name__ == "CacheInfo" and callable(fn.cache_clear), key


# keys the tracer reads although the program no longer defines them; each is
# recorded as stale in CHANGES.md, to be mended at the next benchmark change
STALE_KEYS = {"series.TSeries.__mul__", "linalg.QMatrix.from_rows"}


def test_every_method_key_of_the_benchmark_is_defined_on_its_class():
    keys = set(re.findall(r'"([a-z]+\.[A-Z]\w*\.\w+)"', TRACER.read_text()))
    assert len(keys) >= 8, "the key pattern no longer matches the tracer"
    assert STALE_KEYS <= keys, "a stale key was dropped from the tracer: drop it here too"
    for key in sorted(keys - STALE_KEYS):
        layer, cls, method = key.split(".")
        owner = getattr(importlib.import_module(f"rank2chern.{layer}"), cls)
        assert method in vars(owner), f"{key}: the tracer wraps only methods the class defines itself"


def test_every_function_key_of_the_benchmark_resolves_in_its_layer():
    tracer = _load_tracer()
    counted = re.findall(r"self\._(?:calls|self)\(([^()]*)\)", TRACER.read_text())
    keys = {key for args in counted for key in re.findall(r'"([a-z]+\.\w+)"', args)}
    keys |= {*tracer.OBSERVERS, *tracer.DERIVATIONS, *tracer.MUMFORD, *tracer.GENFUN_CHECKS}
    keys = {key for key in keys if key.count(".") == 1}
    assert len(keys) >= 25, "the key pattern no longer matches the tracer"
    for key in sorted(keys):
        layer, name = key.split(".")
        module = importlib.import_module(f"rank2chern.{layer}")
        fn = getattr(module, name, None)
        # the conditions under which Tracer.install wraps a module function
        assert tracer._is_function(fn) and fn.__module__ == module.__name__, key
        assert not name.startswith("_") and key not in tracer.SKIP, key


def _observed_calls():
    """{observer key: (args, result)} of one small call per observed function."""
    from rank2chern import linalg

    calls = {
        "linalg.row_reduce": (linalg.QMatrix(2, [{0: 1, 1: 2}]),),
        "linalg.RowSpan.add": (linalg.RowSpan(2), {0: 1}),
        "integral.pairing_matrix": (2, (6, 4)),
        "relations.ideal_slice": (2, 0, (8, 6)),
        "algebra.monomial_basis": (2, (6, 4)),
        "operators.check_sl2_relations": (2, 0, 2),
        "operators.check_adjointness": (2,),
        "operators.check_descent": (2, 0),
        "operators.check_closure": (2, (4,)),
        "operators.sl2_closure": (2, 4),
    }
    out = {}
    for key, args in calls.items():
        layer, *path = key.split(".")
        fn = importlib.import_module(f"rank2chern.{layer}")
        for name in path:
            fn = getattr(fn, name)
        out[key] = args, fn(*args)
    return out


def test_every_observer_of_the_benchmark_reads_what_its_function_returns():
    tracer = _load_tracer()
    calls = _observed_calls()
    assert sorted(calls) == sorted(tracer.OBSERVERS), "an observer has no call here: add one"
    extra = tracer.Tracer().extra
    for key, observe in tracer.OBSERVERS.items():
        args, result = calls[key]
        observe(extra, args, result)
    # each figure the observers keep is fed by one of the calls
    for name, value in extra.items():
        assert value > 0, name


# A traced sample is refused when its workload's hot metric (``HOT_METRIC``
# in ``perfbench/workloads.py``) reads 0 or ``coverage_errors()`` is not
# empty; each script below traces a small call of one workload's hot path.
_TRACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from workloads import HOT_METRIC
tracer = Tracer().install()
{calls}
metrics = {{key: value for key, (value, _) in tracer.metrics().items()}}
hot = metrics[HOT_METRIC[sys.argv[2]]]
print(json.dumps({{"hot": hot, "passed": passed, "coverage": tracer.coverage_errors()}}))
"""

_MUMFORD_CALLS = """
from rank2chern.algebra import Element
from rank2chern.relations import modified_mumford
for k in range(4, 10):
    modified_mumford(0, k, 1, Element.one(2), 2)
passed = True
"""

_SL2_CALLS = """
from rank2chern.operators import check_adjointness, check_descent
passed = all(report["pass"] for report in (check_descent(2, 0), check_adjointness(2)))
"""


def _traced(calls: str, workload: str) -> dict:
    """The hot metric, the verdict and the coverage errors of ``calls``,
    traced in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE.format(calls=calls), str(ROOT / "perfbench"), workload],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_traced_modified_relation_reaches_the_series_hot_metric():
    out = _traced(_MUMFORD_CALLS, "series")
    assert out["hot"] > 0 and out["passed"]
    assert out["coverage"] == []


def test_traced_sl2_checks_reach_the_sl2_hot_metric():
    # operators.apply_calls counts Operator.__call__, which only the descent
    # check calls; the adjointness check sums integer pairings instead
    out = _traced(_SL2_CALLS, "sl2")
    assert out["hot"] > 0 and out["passed"]
    assert out["coverage"] == []
