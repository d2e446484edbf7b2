"""The benchmark's calls into ``pidsim`` still work and still give its bytes.

``perfbench/runner.py`` drives a proactive job through the same public calls
``pidsim.cli.execute_scenario`` makes, and ``perfbench/tracer.py`` wraps
pidsim's functions and methods by name.  A simplification that drops a name
or keyword either of them uses fails here, not first in a benchmark run.
"""

import json
import os
import sys

import pytest

from pidsim.scenario import load_scenario, shipped_fixture_names, shipped_fixture_path

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import runner  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)["fixtures"]

PROACTIVE = [name for name in shipped_fixture_names()
             if load_scenario(shipped_fixture_path(name)).mode == "proactive"]


def test_some_shipped_fixture_is_proactive():
    assert PROACTIVE


@pytest.mark.parametrize("seed", (0, 1, 42))
@pytest.mark.parametrize("name", PROACTIVE)
def test_runner_job_matches_recorded_digests(name, seed):
    path = shipped_fixture_path(name)
    expected = DIGESTS[f"{name}/{seed}"]
    assert runner.check_job(runner.run_job(path, seed), expected, False) == []

    t = tracer.Tracer()
    t.install()
    try:
        result = runner.run_job(path, seed)
    finally:
        t.uninstall()
    assert runner.check_job(result, expected, False) == []
    assert len(t.spans["start"]) > 0  # the wrappers were on the call path
