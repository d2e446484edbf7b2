"""Scale rungs: crowd_churn's shape at 10² and 10³ devices, asserted by exact
counts rather than times, and a run's memory against its member count.

Each rung is ``perfbench/workloads.py``'s crowd_churn scenario with every
count scaled by devices / 4 000, the same window and radio, corpus slot 7
and sim seed 7.  The work a run does must grow no faster than devices ×
inquiry passes, and the GC-tracked objects a run leaves behind no faster
than its members.
"""

import gc
import os
import random
import sys
import tracemalloc

import pytest

from pidsim import pidctl, scenario
from pidsim.obexlite import PushSession, PutSequence
from pidsim.simnet import SimWorld

from .conftest import LOCAL, make_world, mac

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

RUNGS = (100, 1_000)
SLOT = SEED = 7
SCALED = ("devices", "members", "after_window", "departing", "no_ftp_members")


class CountingRandom(random.Random):
    """A generator that counts every draw the simulator makes from it."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)

    def random(self):
        self.draws += 1
        return super().random()


def write_rung(devices: int, directory: str) -> str:
    """Write the rung's scenario and payload files; returns the .scn path."""
    base = workloads.WORKLOADS["crowd_churn"]
    shape = dict(base)
    for key in SCALED:
        shape[key] = round(base[key] * devices / base["devices"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.WORKLOADS, "crowd_churn", shape)
        return workloads.write_slot("crowd_churn", SLOT, directory)


def _run_rung(devices: int, directory: str) -> dict:
    scen = scenario.load_scenario(write_rung(devices, directory))
    world = scen.build_world(SEED)
    rng = CountingRandom()
    rng.setstate(world.rng.getstate())
    world.rng = rng
    payload = scen.resolve_payload()
    gc.collect()
    before = len(gc.get_objects())
    report = pidctl.run_proactive(world, scen.roster, payload,
                                  inquiry_interval=scen.inquiry_interval,
                                  local=scen.local)
    gc.collect()
    added = len(gc.get_objects()) - before
    passes = len(report.iterations)
    return {"devices": devices, "members": len(scen.roster.members),
            "passes": passes, "work": devices * passes, "draws": rng.draws,
            "lines": len(world.log), "scheduled": world._sched_seq,
            "tracked_added": added, "delivered": report.delivered_count}


@pytest.fixture(scope="module")
def rungs(tmp_path_factory):
    return [_run_rung(n, str(tmp_path_factory.mktemp(f"rung{n}"))) for n in RUNGS]


def test_rungs_do_real_work(rungs):
    for rung in rungs:
        assert rung["passes"] >= 10 and rung["delivered"] > rung["members"] // 4, rung


@pytest.mark.parametrize("count", ["draws", "lines"])
def test_draws_and_log_lines_grow_no_faster_than_devices_times_passes(rungs, count):
    small, large = (rung[count] / rung["work"] for rung in rungs)
    assert large <= 1.1 * small, rungs


def test_one_draw_per_other_device_per_pass(rungs):
    for rung in rungs:
        # Rejection sampling over a 4 000 ms window redraws ~2.3% of answers.
        assert rung["work"] <= rung["draws"] <= 1.05 * rung["work"], rung


def test_events_scheduled_grow_no_faster_than_devices(rungs):
    small, large = (rung["scheduled"] / rung["devices"] for rung in rungs)
    assert large <= 1.1 * small, rungs


def test_tracked_objects_grow_no_faster_than_members(rungs):
    for rung in rungs:
        assert rung["tracked_added"] <= rung["members"] + 64, rung


def _count_calls(devices: int, directory: str) -> dict:
    """One rung's run with ``SimWorld.emit`` calls counted, and, inside each
    inquiry, its ``SimWorld.advance`` calls and the queue entries it fired
    (those queued before or during it and gone after)."""
    counts = dict.fromkeys(("emits", "inquiries", "inquiry_advances",
                            "inquiry_fired"), 0)
    inside = []
    real_emit, real_advance = SimWorld.emit, SimWorld.advance
    real_inquiry = pidctl.start_inquiry

    def emit(world, *args, **kwargs):
        counts["emits"] += 1
        return real_emit(world, *args, **kwargs)

    def advance(world, until):
        counts["inquiry_advances"] += bool(inside)
        return real_advance(world, until)

    def start_inquiry(world, initiator):
        queued, scheduled = len(world._queue), world._sched_seq
        inside.append(True)
        try:
            return real_inquiry(world, initiator)
        finally:
            inside.pop()
            counts["inquiries"] += 1
            counts["inquiry_fired"] += (queued + world._sched_seq - scheduled
                                        - len(world._queue))

    scen = scenario.load_scenario(write_rung(devices, directory))
    world = scen.build_world(SEED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimWorld, "emit", emit)
        mp.setattr(SimWorld, "advance", advance)
        mp.setattr(pidctl, "start_inquiry", start_inquiry)
        pidctl.run_proactive(world, scen.roster, scen.resolve_payload(),
                             inquiry_interval=scen.inquiry_interval,
                             local=scen.local)
    counts["lines"] = len(world.log)
    counts["discovered"] = sum(e.name == "device_discovered" for e in world.log)
    return counts


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    return [_count_calls(n, str(tmp_path_factory.mktemp(f"calls{n}")))
            for n in RUNGS]


def test_every_line_but_a_discovery_goes_through_emit(calls):
    for rung in calls:
        assert rung["discovered"] > rung["lines"] // 2, rung
        assert rung["emits"] == rung["lines"] - rung["discovered"], rung


def test_inquiry_advances_grow_with_queued_events_not_answers(calls):
    """An inquiry advances the clock only to fire queued events, plus once
    to the end of its window, however many devices answer."""
    for rung in calls:
        assert rung["inquiry_advances"] <= \
            rung["inquiry_fired"] + rung["inquiries"], rung
        assert rung["inquiry_advances"] < rung["discovered"] // 4, rung


def test_a_second_member_push_joins_no_copy_of_the_payload():
    """The first member's server joins the chunks and records them as the
    payload's checked reassembly; the next member's server matches its
    chunks against that record, so its push peaks below one payload.
    Joining per member instead peaks above one."""
    payload = random.Random(3).randbytes(256 << 10)
    seq = PutSequence.encode("big.bin", payload)
    world = make_world(n_others=2, ftp=True)
    first = PushSession(world, world.connect(LOCAL, mac(1))).push_file(seq)
    assert first.delivered
    session = PushSession(world, world.connect(LOCAL, mac(2)))
    tracemalloc.start()
    try:
        second = session.push_file(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second.delivered
    assert world.device(mac(2)).inbox["big.bin"] is payload
    assert peak < len(payload), peak


def _run_peak(members: int, payload: bytes) -> int:
    """Traced peak memory of ``run_proactive`` delivering ``payload`` to
    ``members`` lossless members with a file-transfer record."""
    world = make_world(n_others=members, ftp=True)
    roster = pidctl.Roster("NCP-101", frozenset(mac(i) for i in range(1, members + 1)),
                           course_start=240_000)
    tracemalloc.start()
    try:
        report = pidctl.run_proactive(world, roster, ("big.bin", payload),
                                      local=LOCAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.delivered_count == members
    return peak


def test_run_memory_grows_with_the_payload_not_members_times_payload():
    """Every inbox holds the one payload that was sent, so 12 more members
    add less than one payload to the peak.  Storing each member's
    reassembled copy instead adds about twelve."""
    payload = bytes(256 << 10)
    small, large = (_run_peak(n, payload) for n in (4, 16))
    assert large - small < len(payload), (small, large)
