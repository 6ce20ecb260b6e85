"""Tests of the benchmark itself, including its negative controls.

    python3 -m pytest -q perfbench

They start a few child interpreters; the slowest test runs one real sample
of the ``series`` workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import HOT_METRIC, WORKLOADS, normalization, operations  # noqa: E402


def _child_result(ops):
    """A child's result object for in-process operations."""
    wall, results = child.run_operations(ops)
    return {
        "wall_s": wall,
        "ops": [
            {"name": n, "digest": None if t is None else child.digest(t), "ok": ok, "error": e, "wall_s": s}
            for n, t, ok, e, s in results
        ],
    }


def test_passing_operation_matches_its_golden():
    result = _child_result([("echo", lambda: ("text\n", True))])
    assert run.judge(["echo"], result, None, {"echo": child.digest("text\n")}) == []


def test_failing_verdict_counts_as_failed():
    result = _child_result([("stub", lambda: ("text\n", False))])
    failures = run.judge(["stub"], result, None, {"stub": child.digest("text\n")})
    assert failures == ["stub: failing verdict"]


def test_raising_operation_counts_as_failed():
    def boom():
        raise RuntimeError("routes disagree")

    result = _child_result([("boom", boom), ("echo", lambda: ("x", True))])
    failures = run.judge(["boom", "echo"], result, None, {"boom": "0" * 64, "echo": child.digest("x")})
    assert failures == ["boom: raised RuntimeError: routes disagree"]


def test_crashed_sample_fails_every_operation():
    assert len(run.judge(["a", "b"], None, "exit code 1", {})) == 2


def test_wrong_golden_fails_a_real_sample_and_right_golden_passes():
    """Negative control on real output: a seed outside the recorded ones
    must reproduce the golden (B-invariance), a corrupted golden must not."""
    seed = 7
    assert normalization(seed) not in (normalization(1), normalization(2))
    names = [name for name, _ in operations("series", seed)]
    _, result, error = run.spawn(["series", "--seed", str(seed)], timeout=170)
    assert error is None
    golden = json.loads(run.GOLDEN.read_text())["series"]
    assert run.judge(names, result, error, golden) == []
    wrong = dict(golden, **{names[-1]: "0" * 64})
    failures = run.judge(names, result, error, wrong)
    assert len(failures) == 1 and "differs from the golden" in failures[0]


def test_cold_run_guard_sees_a_filled_cache():
    from rank2chern.algebra import gamma_power

    gamma_power(2, 1)
    assert "algebra.gamma_power" in child.warm_caches()


_TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rank2chern
from rank2chern import linalg, relations, operators, algebra, cli
from tracer import Tracer
originals = (linalg.row_reduce, algebra.d_psi)
tracer = Tracer().install()
relations.omega_from_ideal(2, 0)
operators.check_sl2_relations(2, 0, 4)
print(json.dumps({
    "rebound": [relations.row_reduce is not originals[0], operators.d_psi is not originals[1],
                rank2chern.row_reduce is not originals[0], relations.row_reduce is linalg.row_reduce],
    "metrics": {k: v[0] for k, v in tracer.metrics().items()},
    "coverage": tracer.coverage_errors(),
}))
"""


def test_tracer_rebinds_copied_names_and_counts():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT, str(HERE)],
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(out["rebound"])
    assert out["coverage"] == []
    m = out["metrics"]
    assert m["linalg.row_reduce_calls"] > 0 and m["linalg.row_reduce_cells"] > 0
    assert m["relations.ideal_slice_calls"] > 0
    assert m["operators.apply_calls"] > 0 and m["operators.cases"] > 0
    assert m["algebra.deriv_calls"] > 0 and m["algebra.mul_calls"] > 0
    assert 0 < m["relations.prim_basis_hit_ratio"] < 1


def test_zero_hot_metric_fails_the_traced_run():
    r = run.Run("sl2", 1, 1, {})
    r.traced = [{"trace": {"operators.apply_calls": [0, "count"]}, "coverage_errors": []}]
    assert run.trace_problems(r) == ["hot-layer metric operators.apply_calls reads zero on sl2"]


def test_speed_sampler_ticks_and_normalizes():
    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * speed.INTERVAL_S:
            pass
    assert len(sampler.durations) >= 4 and sampler.interrupted_s > 0
    sampler.durations = [speed.NOMINAL_S, 2 * speed.NOMINAL_S]  # a host at 3/4 of the nominal speed
    sampler.interrupted_s = 0.5
    assert abs(sampler.normalize(4.5) - 3.0) < 1e-12


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(HOT_METRIC) == set(WORKLOADS)
    names = set(_metric_names(Tracer())) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    r = run.Run("series", 1, 1, {})
    r.setups = [(0.1, 0.1)]
    r.durations[False] = [1.0]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(r))


def _metric_names(tracer):
    class Info:
        hits = misses = 0

    class Fake:
        def cache_info(self):
            return Info()

    from tracer import CACHED

    tracer._caches = {key: Fake() for key in CACHED}
    return tracer.metrics()
