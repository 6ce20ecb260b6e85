"""Every walkthrough script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_exit_0():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
