"""Frozen golden corpus: each shipped fixture, and the synthetic classroom in
``tests/data/classroom200.scn``, at seeds 0, 1 and 42 replays to its recorded
``log.txt`` and ``report.txt`` bytes.

The classroom is the crowd the shipped fixtures lack: 200 devices arriving
through the window, departures mid-window, devices out of range, powered off
or undiscoverable, refusals, scripted drops and link loss.

``tests/data/bigpush.scn`` is the large payload they lack: 8 members take a
3 MiB + 317 byte file, which is not a whole number of chunks, with one
refusal, one member that drops two transfers, and link loss.  The payload is
not committed: the test writes it from a fixed seed next to a copy of the
scenario.  Its log records only byte and frame counts, so the test also
checks every inbox byte for byte.

A change that alters these bytes is a behaviour change.  After an intended
one, rewrite the corpus with ``PYTHONPATH=src python -m tests.test_golden``
and say why in CHANGES.md.
"""

import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

from pidsim.cli import execute_scenario
from pidsim.pidctl import DELIVERED
from pidsim.scenario import shipped_fixture_names, shipped_fixture_path

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SEEDS = (0, 1, 42)
SYNTHETIC = ("classroom200",)
SCENARIOS = shipped_fixture_names() + list(SYNTHETIC)
BIGPUSH_NAME = "bigpush.bin"
BIGPUSH_SIZE = 3 << 20 | 317


def _bigpush_payload() -> bytes:
    return random.Random(20_090_705).randbytes(BIGPUSH_SIZE)


def _write_bigpush(directory: str) -> str:
    """Copy ``bigpush.scn`` into ``directory`` with its payload beside it."""
    path = shutil.copy(os.path.join(DATA, "bigpush.scn"), directory)
    with open(os.path.join(directory, BIGPUSH_NAME), "wb") as fh:
        fh.write(_bigpush_payload())
    return path


def _scenario_path(name: str) -> str:
    if name in SYNTHETIC:
        return os.path.join(DATA, f"{name}.scn")
    return shipped_fixture_path(name)


def _render_run(run) -> dict[str, bytes]:
    return {"log": run.log_text().encode("utf-8"),
            "report": run.report_text().encode("utf-8")}


def _render(fixture: str, seed: int) -> dict[str, bytes]:
    return _render_run(execute_scenario(_scenario_path(fixture), seed))


def _golden_path(fixture: str, seed: int, kind: str) -> str:
    return os.path.join(DATA, f"{fixture}_seed{seed}.{kind}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fixture", SCENARIOS)
def test_fixture_replays_to_frozen_bytes(fixture, seed):
    for kind, data in _render(fixture, seed).items():
        with open(_golden_path(fixture, seed, kind), "rb") as fh:
            assert data == fh.read(), f"{fixture} seed {seed}: {kind} differs"


@pytest.mark.parametrize("seed", SEEDS)
def test_bigpush_replays_to_frozen_bytes_and_fills_inboxes(tmp_path, seed):
    run = execute_scenario(_write_bigpush(str(tmp_path)), seed)
    for kind, data in _render_run(run).items():
        with open(_golden_path("bigpush", seed, kind), "rb") as fh:
            assert data == fh.read(), f"bigpush seed {seed}: {kind} differs"
    payload = _bigpush_payload()
    outcomes = run.report.outcomes
    assert 0 < run.report.delivered_count < len(outcomes)
    for device in run.world.devices.values():
        outcome = outcomes.get(device.mac)
        if outcome is not None and outcome.outcome == DELIVERED:
            assert device.inbox == {BIGPUSH_NAME: payload}, device.mac
        else:
            assert device.inbox == {}, device.mac


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
    def _freeze(name: str, seed: int, rendered: dict[str, bytes]) -> None:
        for kind, data in rendered.items():
            with open(_golden_path(name, seed, kind), "wb") as fh:
                fh.write(data)

    with tempfile.TemporaryDirectory() as scratch:
        bigpush = _write_bigpush(scratch)
        for seed in SEEDS:
            for name in SCENARIOS:
                _freeze(name, seed, _render(name, seed))
            _freeze("bigpush", seed, _render_run(execute_scenario(bigpush, seed)))
