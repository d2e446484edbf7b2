"""Every demo script runs to completion and prints its frozen stdout.

Each demo's stdout is pinned in ``tests/data/demos/<demo>.out``.  After an
intended change to a demo or to what it prints, rewrite those files with
``PYTHONPATH=src python -m tests.test_demos`` and say why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FROZEN = ROOT / "tests" / "data" / "demos"


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def _frozen_path(demo: Path) -> Path:
    return FROZEN / f"{demo.stem}.out"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _frozen_path(demo).read_text(encoding="utf-8"), \
        f"{demo.name}: stdout differs from {_frozen_path(demo).name}"


if __name__ == "__main__":
    FROZEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        proc = _run(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo.name} failed:\n{proc.stderr}")
        _frozen_path(demo).write_text(proc.stdout, encoding="utf-8")
