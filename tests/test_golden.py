"""Frozen golden corpus: each shipped fixture, and the synthetic classroom in
``tests/data/classroom200.scn``, at seeds 0, 1 and 42 replays to its recorded
``log.txt`` and ``report.txt`` bytes.

The classroom is the crowd the shipped fixtures lack: 200 devices arriving
through the window, departures mid-window, devices out of range, powered off
or undiscoverable, refusals, scripted drops and link loss.

A change that alters these bytes is a behaviour change.  After an intended
one, rewrite the corpus with ``PYTHONPATH=src python -m tests.test_golden``
and say why in CHANGES.md.
"""

import os
import subprocess
import sys

import pytest

from pidsim.cli import execute_scenario
from pidsim.scenario import shipped_fixture_names, shipped_fixture_path

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SEEDS = (0, 1, 42)
SYNTHETIC = ("classroom200",)
SCENARIOS = shipped_fixture_names() + list(SYNTHETIC)


def _scenario_path(name: str) -> str:
    if name in SYNTHETIC:
        return os.path.join(DATA, f"{name}.scn")
    return shipped_fixture_path(name)


def _render(fixture: str, seed: int) -> dict[str, bytes]:
    run = execute_scenario(_scenario_path(fixture), seed)
    return {"log": run.log_text().encode("utf-8"),
            "report": run.report_text().encode("utf-8")}


def _golden_path(fixture: str, seed: int, kind: str) -> str:
    return os.path.join(DATA, f"{fixture}_seed{seed}.{kind}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fixture", SCENARIOS)
def test_fixture_replays_to_frozen_bytes(fixture, seed):
    for kind, data in _render(fixture, seed).items():
        with open(_golden_path(fixture, seed, kind), "rb") as fh:
            assert data == fh.read(), f"{fixture} seed {seed}: {kind} differs"


@pytest.mark.parametrize("hash_seed", ("0", "4242"))
def test_output_does_not_depend_on_the_string_hash_seed(tmp_path, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "pidsim.cli", "run",
                    _scenario_path("classroom200"), "--seed", "0",
                    "--report", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    for kind, out in (("log", "log.txt"), ("report", "report.txt")):
        got = (tmp_path / out).read_bytes()
        with open(_golden_path("classroom200", 0, kind), "rb") as fh:
            assert got == fh.read(), f"PYTHONHASHSEED={hash_seed}: {kind} differs"


if __name__ == "__main__":
    for name in SCENARIOS:
        for seed in SEEDS:
            for kind, data in _render(name, seed).items():
                with open(_golden_path(name, seed, kind), "wb") as fh:
                    fh.write(data)
