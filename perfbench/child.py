"""One sample of one workload, run in a fresh interpreter.

    python3 perfbench/child.py <workload|probe> --seed N [--trace]

The parent (``run.py``) starts this with ``src`` on ``PYTHONPATH``.  Set-up
ends as soon as ``import rank2chern`` returns; ``ready`` is that moment on
the system-wide monotonic clock, which the parent subtracts from its own
spawn time.  ``probe`` then times the speed reference a few times, so the
parent can normalize the set-up time, and stops.

Otherwise the child checks that every process-global cache is still empty
(a sample never measures warm caches), optionally installs the tracer, runs
the workload's operations in order under a ``SpeedSampler``, and prints one
JSON line: wall time from the first call to the last verdict (raw and
normalized to the nominal host speed), peak RSS, and per operation the
sha256 of its output text, its verdict, any exception and its raw time.
"""

import time

import rank2chern  # noqa: F401  (set-up is interpreter start plus this import)

READY = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import SpeedSampler, reference  # noqa: E402
from tracer import Tracer, cached_functions  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402


PROBE_REFERENCES = 5


def warm_caches() -> list:
    """Names of the process-global caches that already hold entries."""
    return [key for key, fn in cached_functions().items() if fn.cache_info().currsize]


def run_operations(ops) -> tuple:
    """Run (name, run) pairs in order; returns (wall_s, results) where each
    result is [name, text or None, verdict_ok, error or None, wall_s]."""
    results = []
    t0 = time.perf_counter()
    for name, run in ops:
        t = time.perf_counter()
        try:
            text, ok = run()
        except Exception as exc:  # an operation that raised is a failed operation
            traceback.print_exc(file=sys.stderr)
            results.append([name, None, False, f"{type(exc).__name__}: {exc}", time.perf_counter() - t])
        else:
            results.append([name, text, bool(ok), None, time.perf_counter() - t])
    return time.perf_counter() - t0, results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS + ("probe",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "probe":
        kernel = []
        for _ in range(PROBE_REFERENCES):
            t0 = time.perf_counter()
            reference()
            kernel.append(time.perf_counter() - t0)
        print(json.dumps({"ready": READY, "reference_s": kernel}))
        return 0
    warm = warm_caches()
    if warm:
        sys.stderr.write(f"cold-run guard: caches already filled: {', '.join(warm)}\n")
        return 3
    tracer = Tracer().install() if args.trace else None
    ops = operations(args.workload, args.seed)
    with SpeedSampler(on_tick=tracer.exclude if tracer else None) as speed:
        wall, results = run_operations(ops)
    out = {
        "ready": READY,
        "wall_s": wall,
        "norm_wall_s": speed.normalize(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [
            {"name": name, "digest": None if text is None else digest(text), "ok": ok, "error": err, "wall_s": t}
            for name, text, ok, err, t in results
        ],
    }
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["coverage_errors"] = tracer.coverage_errors()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
