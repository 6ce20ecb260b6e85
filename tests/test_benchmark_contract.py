"""The names the benchmark harness reads from the package.

Every benchmark sample starts behind a cold-run guard that looks up each
process-global ``lru_cache`` that ``perfbench/tracer.py`` lists in
``CACHED``.  A rename in ``src/`` that drops one of them would crash every
sample, so this test reads that list (without changing it) and resolves it.
"""

import importlib.util
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
