"""The rank2chern benchmark.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One process runs everything one after another, without threads:
each sample of a workload is a fresh interpreter (``child.py``), so the
process-global caches never carry over and every sample pays what a CLI user
pays.  The run first starts a warm-up interpreter, then ``PROBES`` probe
interpreters that only import the package (``setup_s``), then samples until
``--seconds`` would be exceeded, with at least ``MIN_SAMPLES``.

``--trace 1`` runs one untraced sample and then traced samples, and reports
the per-layer metrics of ``tracer.py`` instead of the end-to-end ones.

Every operation's output is hashed and compared with ``golden.json``; an
operation that raised, gave a failing verdict or printed other output counts
in ``failed``.  The last line of stdout is the result object; the line
before it carries provenance and the median and quartiles of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S
from workloads import HOT_METRIC, WORKLOADS, normalization, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"

MIN_SAMPLES = 2
PROBES = 9
DEADLINE_S = 170  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, timeout):
    """Run child.py to completion; returns (spawn time, result or None, error)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return t0, None, f"timed out after {timeout:.0f} s"
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return t0, None, f"exit code {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    try:
        return t0, json.loads(lines[-1]), None
    except (ValueError, IndexError):
        return t0, None, "no result line"


def judge(names, result, error, golden) -> list:
    """Failed operations of one sample, as one message each."""
    if result is None:
        return [f"{name}: sample failed ({error})" for name in names]
    got = {op["name"]: op for op in result["ops"]}
    failures = []
    for name in names:
        op = got.get(name)
        if op is None:
            failures.append(f"{name}: not run")
        elif op["error"]:
            failures.append(f"{name}: raised {op['error']}")
        elif not op["ok"]:
            failures.append(f"{name}: failing verdict")
        elif op["digest"] != golden.get(name):
            failures.append(f"{name}: output digest {op['digest'][:16]} differs from the golden")
    return failures


def summary(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    """The samples of one benchmark run and their verdicts."""

    def __init__(self, workload, seed, seconds, golden):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.golden = golden
        self.names = [name for name, _ in operations(workload, seed)]
        self.start = time.perf_counter()
        self.deadline = self.start + DEADLINE_S
        self.attempted = 0
        self.failures = []
        self.setups = []  # (raw, normalized) set-up times
        self.plain = []  # successful untraced child results
        self.traced = []
        self.durations = {False: [], True: []}

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def probe(self, n):
        spawn(["probe"], self.remaining())  # byte-compiles and warms the file cache
        for _ in range(n):
            t0, result, _ = spawn(["probe"], self.remaining())
            if result is not None:
                raw = result["ready"] - t0
                speed = statistics.fmean(NOMINAL_S / r for r in result["reference_s"])
                self.setups.append((raw, raw * speed))

    def sample(self, trace):
        args = [self.workload, "--seed", str(self.seed)] + (["--trace"] if trace else [])
        t0, result, error = spawn(args, self.remaining())
        self.durations[trace].append(time.perf_counter() - t0)
        self.attempted += len(self.names)
        self.failures += judge(self.names, result, error, self.golden)
        if result is not None:
            (self.traced if trace else self.plain).append(result)

    def time_for_another(self, trace) -> bool:
        """Whether one more sample of this kind still ends within --seconds."""
        now = time.perf_counter()
        typical = statistics.median(self.durations[trace])
        return now + typical - self.start <= self.seconds and now + typical < self.deadline

    def sample_until_done(self, trace, at_least):
        while True:
            self.sample(trace)
            if len(self.durations[trace]) >= at_least and not self.time_for_another(trace):
                return


def end_to_end(run: Run) -> dict:
    walls = [r["norm_wall_s"] for r in run.plain] or run.durations[False]
    rss = [r["peak_rss_mb"] for r in run.plain] or [0.0]
    return {
        "norm_wall_s": (summary(walls), "s"),
        "setup_s": (summary([norm for _, norm in run.setups]), "s"),
        "peak_rss_mb": (summary(rss), "MB"),
    }


def raw_times(run: Run) -> dict:
    """Unnormalized figures, for the provenance line."""
    out = {"setup_s": summary([raw for raw, _ in run.setups])}
    if run.plain:
        out["wall_s"] = summary([r["wall_s"] for r in run.plain])
        for i, name in enumerate(run.names):
            out[name] = summary([r["ops"][i]["wall_s"] for r in run.plain])
    return out


def per_layer(run: Run) -> dict:
    if not run.traced:
        return {}
    out = {}
    for name, (_, unit) in run.traced[0]["trace"].items():
        out[name] = (summary([r["trace"][name][0] for r in run.traced]), unit)
    untraced = statistics.median([r["norm_wall_s"] for r in run.plain] or run.durations[False])
    out["trace.overhead_s"] = (summary([r["norm_wall_s"] - untraced for r in run.traced]), "s")
    return out


def trace_problems(run: Run) -> list:
    problems = []
    hot = HOT_METRIC[run.workload]
    for result in run.traced:
        problems += result["coverage_errors"]
        if not result["trace"][hot][0]:
            problems.append(f"hot-layer metric {hot} reads zero on {run.workload}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rank2chern benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rank2chern" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rank2chern sources under {SRC}; run from a source checkout\n")
        return 2
    golden = json.loads(GOLDEN.read_text())[args.workload]

    run = Run(args.workload, args.seed, args.seconds, golden)
    run.probe(PROBES)
    if not run.setups:
        sys.stderr.write("error: the probe interpreters could not import rank2chern\n")
        return 2
    if args.trace:
        run.sample(trace=False)
        run.sample_until_done(trace=True, at_least=1)
        metrics = per_layer(run)
        problems = trace_problems(run)
        if problems or not metrics:
            sys.stderr.write("error: traced run is incomplete:\n  " + "\n  ".join(problems or ["no traced sample"]) + "\n")
            return 1
    else:
        run.sample_until_done(trace=False, at_least=MIN_SAMPLES)
        metrics = end_to_end(run)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "normalization": str(normalization(args.seed)),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "samples": len(run.durations[False]),
        "traced_samples": len(run.durations[True]),
        "setup_probes": len(run.setups),
        "elapsed_s": time.perf_counter() - run.start,
    }
    print(
        json.dumps(
            {
                "provenance": provenance,
                "metrics": {name: {**stats, "unit": unit} for name, (stats, unit) in metrics.items()},
                "raw_s": raw_times(run),
                "fail_frac": len(run.failures) / run.attempted,
                "failures": run.failures[:20],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": stats["median"], "unit": unit} for name, (stats, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
