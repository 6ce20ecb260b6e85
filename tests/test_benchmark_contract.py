"""The names the benchmark harness reads from the package.

Every benchmark sample starts behind a cold-run guard that looks up each
process-global ``lru_cache`` that ``perfbench/tracer.py`` lists in
``CACHED``.  A rename in ``src/`` that drops one of them would crash every
sample, so this test reads that list (without changing it) and resolves it.

The tracer also reads per-layer metrics from ``"layer.Class.method"`` keys,
and it wraps a method only where the class itself defines it.  A refactor
that moved such a method into a base class would silently zero the metric,
so the second test reads those keys (again without changing the file) and
checks each method is defined on its own class.
"""

import importlib.util
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_cached_name_of_the_benchmark_is_an_lru_cache():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
