"""Record the golden output digests of every workload into golden.json.

    python3 perfbench/record_golden.py

Run from the root of a source checkout whose outputs are known to be right.
Every operation must pass its own verdict; the digests are recorded at two
normalizations and must agree, since no output may depend on the seed.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, spawn
from workloads import WORKLOADS, normalization

SEEDS = (1, 2)


def record(workload) -> dict:
    seen = []
    for seed in SEEDS:
        _, result, error = spawn([workload, "--seed", str(seed)], timeout=600)
        if result is None:
            raise SystemExit(f"{workload}, seed {seed}: {error}")
        bad = [op["name"] for op in result["ops"] if op["error"] or not op["ok"]]
        if bad:
            raise SystemExit(f"{workload}, seed {seed}: failing operations {bad}")
        seen.append({op["name"]: op["digest"] for op in result["ops"]})
    if seen[0] != seen[1]:
        raise SystemExit(
            f"{workload}: output differs between B = {normalization(SEEDS[0])} and B = {normalization(SEEDS[1])}"
        )
    return seen[0]


def main() -> int:
    golden = {workload: record(workload) for workload in WORKLOADS}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
