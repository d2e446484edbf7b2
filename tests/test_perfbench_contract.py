"""The benchmark's calls into ``pidsim`` still work and still give its bytes.

``perfbench/runner.py`` drives a proactive job through the same public calls
``pidsim.cli.execute_scenario`` makes, and ``perfbench/tracer.py`` wraps
pidsim's functions and methods by name.  A simplification that drops a name
or keyword either of them uses fails here, not first in a benchmark run.
One slot-0 job of each workload also replays to its recorded digests, so the
large workloads are checked here and not only by a benchmark run.
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

import run as bench_run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as _fh:
    _RECORDED = json.load(_fh)
DIGESTS = _RECORDED["fixtures"]
JOB_DIGESTS = _RECORDED["jobs"]

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


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_job_matches_recorded_digests(workload, tmp_path):
    """Slot 0's first job of each workload, crowd_churn's 4 000 arrivals and
    departures included, replays to the bytes the benchmark recorded."""
    seed = workloads.sim_seeds(workload, 0)[0]
    path = workloads.write_slot(workload, 0, str(tmp_path))
    expected = JOB_DIGESTS[f"{workload}/0/{seed}"]
    flag = workloads.WORKLOADS[workload]["all_members_delivered"]
    assert runner.check_job(runner.run_job(path, seed), expected, flag) == []


# A per-layer metric reads a span's self time, call count or value by the
# span's name.  "layer" sums cover every span of a layer, so they pin no
# single call.
_READ_KEYS = {key for _, kind, key in bench_run.PER_LAYER.values()
              if kind in ("self", "mean")}
# Removed from pidsim before this guard; its metrics read 0 until the
# benchmark retires them.
_KNOWN_GONE = {"SimWorld.check_invariants"}


def _feeds_per_layer(span):
    if span is None:  # the scheduling hook counts simnet.events_*
        return True
    return any(k in _READ_KEYS for k in (span, f"{span}.calls", f"{span}.value"))


def test_every_traced_call_a_per_layer_metric_reads_exists():
    checked, missing = [], []
    for owner, attr, span, _ in tracer.Tracer().bindings():
        if _feeds_per_layer(span):
            name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
            checked.append(name)
            if attr not in vars(owner):
                missing.append(name)
    assert "PushSession.push_file" in checked
    assert [m for m in missing if m not in _KNOWN_GONE] == []
