"""Every walkthrough script in demos/ runs to completion and prints exactly
its pinned output (the sha256 of stdout; the output does not depend on the
hash seed).  A refactor must leave every digest unchanged."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_descent_algebra.py": "0713c340d6b909cd83257c9ec9857a2c7c0e818780c0cc3ea40c12f3d744797d",
    "02_graded_integral.py": "8e6efec4eea951afca2ec30fb7b16ae0fd6854e7c375a7eee642e1abad025241",
    "03_relations_and_tables.py": "b058d8622ac97c1dbc8b06dfef2dfa6d3a098e1ba0d22d6136540c87fed785c7",
    "04_sl2_operators.py": "3db53fc45b1cbc5540a44c13b7edce47080368e4b53fd7904c78aaeb0060b4ae",
    "05_generating_series.py": "785754e04f85937b4aad9e9538d5f6f917f395cf4e55ff8d5194aa35a4ffeec1",
}


@functools.lru_cache(maxsize=None)
def _run(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_exit_0():
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert demos == sorted(DIGESTS), "pin the digest of every demo"
    for name in demos:
        proc = _run(name)
        assert proc.returncode == 0, f"{name}:\n{proc.stderr}"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_digest(name):
    out = _run(name).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name], out[:2000]
