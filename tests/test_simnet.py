"""Radio world: addressing, clock, inquiry, links, transfer timing."""

import gc
import glob
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidsim import simnet
from pidsim.errors import (
    OutOfRangeError,
    PiconetFullError,
    PoweredOffError,
    SimError,
    UnknownDeviceError,
)
from pidsim.pidctl import run_proactive
from pidsim.scenario import load_scenario
from pidsim.sdp import search_services
from pidsim.simnet import (
    MacId,
    RadioParams,
    SimWorld,
    in_range,
    start_inquiry,
    transfer_duration,
)

from .conftest import LOCAL, make_device, make_world, mac
from .reference_inquiry import reference_inquiry
from .reference_log import ReferenceLog


# -- MacId -------------------------------------------------------------------


def test_mac_uppercases_and_validates():
    assert MacId("00179a235edd") == "00179A235EDD"
    with pytest.raises(ValueError):
        MacId("ZZ179A235EDD")
    with pytest.raises(ValueError):
        MacId("00179A235ED")  # 11 digits
    with pytest.raises(ValueError):
        MacId("00179A235EDD0")  # 13 digits


@given(st.text(alphabet="0123456789abcdefABCDEF", min_size=12, max_size=12))
def test_mac_canonicalization_idempotent(text):
    once = MacId(text)
    assert MacId(once) == once
    assert MacId(once) is once
    assert once == text.upper()


def test_mac_is_a_plain_str_the_gc_does_not_track():
    value = MacId("001122334455")
    assert type(value) is str
    assert not gc.is_tracked(value)
    assert type(MacId("00112233445a")) is str


def test_radio_params_must_be_positive():
    with pytest.raises(ValueError):
        RadioParams(range_m=0.0)
    with pytest.raises(ValueError):
        RadioParams(inquiry_duration=-1)


@pytest.mark.parametrize("bad", [-0.1, 1.0000001, 2.0, float("nan"),
                                 float("inf"), -float("inf")])
def test_loss_probability_outside_zero_to_one_is_refused(bad):
    with pytest.raises(ValueError, match=r"loss_probability must be in \[0, 1\]"):
        SimWorld(loss_probability=bad)
    w = SimWorld(loss_probability=0.25)
    with pytest.raises(ValueError, match=r"loss_probability must be in \[0, 1\]"):
        w.loss_probability = bad
    assert w.loss_probability == 0.25  # the old value stays
    for edge in (0.0, 1.0, 0, 1):
        w.loss_probability = edge
        assert w.loss_probability == edge


def test_device_presence_window():
    dev = make_device(mac(1), arrival=100, departure=200)
    assert not dev.present_at(99)
    assert dev.present_at(100)
    assert dev.present_at(199)
    assert not dev.present_at(200)
    with pytest.raises(ValueError):
        make_device(mac(2), arrival=50, departure=50)


def test_a_device_departed_before_now_is_refused_without_a_trace():
    w = make_world(n_others=1)
    w.advance(100)
    before = (dict(w.devices), list(w._queue), w._sched_seq,
              w.presence_windows())
    gone = make_device(mac(2), arrival=0, departure=50)
    for _ in range(2):  # refused the same way again, not as a duplicate
        with pytest.raises(ValueError, match="cannot schedule in the past"):
            w.add_device(gone)
        assert (dict(w.devices), list(w._queue), w._sched_seq,
                w.presence_windows()) == before
    # a device that departs later is still taken, its arrival already past,
    # and so is one that departs at this very instant
    w.add_device(make_device(mac(2), arrival=0, departure=150))
    assert mac(2) in w.devices and w.presence_windows()[-1][0] == mac(2)
    w.add_device(make_device(mac(3), arrival=0, departure=w.now))
    assert mac(3) in w.devices


# -- advance -----------------------------------------------------------------


def test_advance_empty_queue_is_noop(world):
    assert world.advance(1000) is None
    assert list(world.log) == []
    assert world.now == 1000


def test_advance_rejects_going_backwards(world):
    world.advance(10)
    with pytest.raises(ValueError):
        world.advance(5)


def test_equal_time_events_fire_in_insertion_order(world):
    world.schedule(5, lambda w: w.emit("device_arrived", mac=LOCAL))
    world.schedule(5, lambda w: w.emit("device_departed", mac=LOCAL))
    world.advance(5)
    assert [e.name for e in world.log] == ["device_arrived", "device_departed"]
    assert [e.seq for e in world.log] == [0, 1]


def test_replay_same_seed_identical_logs():
    def run(seed):
        w = make_world(n_others=6, seed=seed)
        start_inquiry(w, LOCAL)
        return w.render_log()

    assert run(99) == run(99)
    assert run(99) != run(100)


def test_log_times_non_decreasing_and_seq_strict():
    w = make_world(n_others=8, seed=3)
    start_inquiry(w, LOCAL)
    times = [e.time for e in w.log]
    assert times == sorted(times)
    assert [e.seq for e in w.log] == list(range(len(w.log)))


def test_log_line_format():
    w = make_world()
    w.emit("services_discovered", mac="x", count=2)
    assert w.render_log() == "t=0 seq=0 ev=services_discovered count=2 mac=x\n"
    assert list(w.log) == [simnet.LogEvent(
        0, 0, "services_discovered", (("count", "2"), ("mac", "x")))]


def _counting(monkeypatch, name, original):
    """Replace ``simnet.<name>`` with a wrapper that records each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simnet, name, wrapper, raising=False)
    return calls


def test_emit_neither_renders_nor_sorts(monkeypatch):
    w = make_world()
    renders = _counting(monkeypatch, "str", str)
    sorts = _counting(monkeypatch, "sorted", sorted)
    w.emit("transfer_completed", mac=LOCAL, frames=3, file="x", bytes=2)
    w.emit("device_arrived", mac=LOCAL)
    assert renders == [] and sorts == []
    assert len(w.log) == 2


def test_render_log_renders_each_field_once(monkeypatch):
    """``%s`` renders every field in its block's one format call; no
    field goes through ``str`` first."""
    w = make_world(n_others=6, seed=3)
    start_inquiry(w, LOCAL)
    w.emit("transfer_failed", reason="x=y", mac=LOCAL, file="a %s")
    expected = "".join(
        f"t={e.time} seq={e.seq} ev={e.name}"
        + "".join(f" {k}={v}" for k, v in e.fields) + "\n" for e in w.log)
    renders = _counting(monkeypatch, "str", str)
    assert w.render_log() == expected
    assert renders == []
    assert expected.endswith(
        f"\nt=16000 seq={len(w.log) - 1} ev=transfer_failed file=a %s "
        f"mac={LOCAL} reason=x=y\n")


def test_events_table_is_sorted_plain_and_one_row_per_lookup():
    for name, keys in simnet.EVENTS:
        assert list(keys) == sorted(keys), name
        assert re.fullmatch("[a-z_]+", name)
        assert all(re.fullmatch("[a-z_]+", key) for key in keys), name
    assert len({(name, len(keys)) for name, keys in simnet.EVENTS}) == \
        len(simnet.EVENTS)


@pytest.mark.parametrize("name, fields", [
    ("sample", {"mac": LOCAL}),                                # undeclared name
    ("link_closed", {"master": LOCAL, "slave": LOCAL}),        # missing key
    ("device_arrived", {"mac": LOCAL, "name": "x"}),           # extra key
    ("device_arrived", {"addr": LOCAL}),                       # other key
    ("service_search_completed", {"mac": LOCAL, "services": 1}),
])
def test_emit_refuses_an_undeclared_line_and_logs_nothing(name, fields):
    w = make_world(n_others=2, seed=3)
    start_inquiry(w, LOCAL)
    n, text = len(w.log), w.render_log()
    with pytest.raises(SimError):
        w.emit(name, **fields)
    assert len(w.log) == n and w.render_log() == text
    w.emit("device_departed", mac=LOCAL)  # the log goes on unharmed
    assert list(w.log)[-1].seq == n and w.render_log().startswith(text)


def _declared_line_patterns() -> list[re.Pattern]:
    """One full-line pattern per ``EVENTS`` row; no value holds ``=``."""
    return [re.compile(r"t=\d+ seq=\d+ ev=" + name
                       + "".join(f" {key}=[^=]*" for key in keys))
            for name, keys in simnet.EVENTS]


def test_every_golden_log_line_is_one_declared_line():
    data = os.path.join(os.path.dirname(__file__), "data")
    lines = []
    for path in sorted(glob.glob(os.path.join(data, "*.log"))):
        with open(path, encoding="utf-8") as f:
            lines += f.read().splitlines()
    for path in sorted(glob.glob(os.path.join(data, "demos", "*.out"))):
        with open(path, encoding="utf-8") as f:  # a demo indents its log
            lines += [line[2:] for line in f.read().splitlines()
                      if re.match(r"  t=\d+ seq=", line)]
    assert len(lines) > 6000
    patterns = _declared_line_patterns()
    covered = set()
    for line in lines:
        rows = [i for i, p in enumerate(patterns) if p.fullmatch(line)]
        assert len(rows) == 1, line
        covered.update(rows)
    uncovered = [simnet.EVENTS[i] for i in range(len(patterns))
                 if i not in covered]
    # Pinned by test_sdp.py::test_search_services_departed_mid_search.
    assert uncovered == [("service_search_completed", ("mac", "status"))]


def test_readme_event_table_lists_the_events_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Event log format", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            rows.append((cells[1].strip().strip("`"),
                         tuple(re.findall(r"`([a-z_]+)`", cells[2]))))
    assert rows == list(simnet.EVENTS)


# Values that stress the templates: ``%``, ``=`` and spaces in strings.
_log_values = st.one_of(st.text(alphabet="x%s= ", max_size=4), st.integers())


@st.composite
def _log_emits(draw):
    """A step in time and one declared line, its keys in any call order."""
    name, keys = draw(st.sampled_from(simnet.EVENTS))
    keys = draw(st.permutations(keys))
    return draw(st.integers(0, 3)), name, [(k, draw(_log_values)) for k in keys]


@given(st.lists(_log_emits(), max_size=12), st.data())
def test_flat_log_matches_the_dict_per_line_reference(emits, data):
    w = SimWorld()
    ref = ReferenceLog()
    for step, name, pairs in emits:
        w.advance(w.now + step)
        w.emit(name, **dict(pairs))
        ref.emit(w.now, name, **dict(pairs))
        # Walked as the log grows, so each walk starts over a longer log.
        assert list(w.log) == ref.events()
    assert w.render_log() == ref.render_log()
    # Blocks end between lines of any widths.
    default = simnet._RENDER_BLOCK
    simnet._RENDER_BLOCK = data.draw(st.integers(1, 5))
    try:
        assert w.render_log() == ref.render_log()
    finally:
        simnet._RENDER_BLOCK = default
    expected = ref.events()
    assert list(w.log) == expected and len(w.log) == len(expected)


def _gc_count_growth(emits: int) -> int:
    """How far ``emits`` same-shape emits raise the collector's gen-0
    allocation count, with the collector off."""
    w = make_world()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for i in range(emits):
            w.emit("services_discovered", mac=LOCAL, count=i)
        return gc.get_count()[0] - before
    finally:
        if collecting:
            gc.enable()


def test_emit_adds_nothing_per_line_to_the_collectors_count():
    _gc_count_growth(10)  # the interpreter's own first-use allocations
    assert _gc_count_growth(10**3) == _gc_count_growth(10**4)


def _gen0_collections_in_one_inquiry(n_others: int) -> int:
    """Gen-0 collections at threshold 100 during one inquiry over
    ``n_others`` devices, all present but out of range."""
    w = SimWorld(seed=1)
    w.add_device(make_device(LOCAL, "PID-CLIENT", 0.0, 0.0))
    for i in range(1, n_others + 1):
        w.add_device(make_device(mac(i), f"dev-{i}", 1000.0, 0.0))
    w.presence_windows()  # built once per world, not per inquiry
    collections = []

    def on_gc(phase, info):
        if phase == "start" and info["generation"] == 0:
            collections.append(info)

    threshold = gc.get_threshold()
    gc.collect()
    gc.callbacks.append(on_gc)
    gc.set_threshold(100)
    try:
        assert start_inquiry(w, LOCAL) == []
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_gc)
    return len(collections)


def test_inquiry_answers_add_nothing_per_device_to_the_collectors_count():
    assert _gen0_collections_in_one_inquiry(500) == \
        _gen0_collections_in_one_inquiry(4000)


def test_log_view_builds_events_only_when_asked(monkeypatch):
    w = make_world(n_others=4, seed=3)
    start_inquiry(w, LOCAL)
    n = len(w.log)
    built = _counting(monkeypatch, "LogEvent", simnet.LogEvent)
    assert len(w.log) == n and built == []
    walk = iter(w.log)
    assert built == []
    assert next(walk).seq == 0 and len(built) == 1
    assert next(walk).seq == 1 and len(built) == 2
    first, second = list(w.log), list(w.log)
    assert len(built) == 2 + 2 * n
    assert [e.seq for e in first] == list(range(n))
    assert first == second and all(a is not b for a, b in zip(first, second))


def test_empty_log_walks_no_line():
    w = make_world()
    assert len(w.log) == 0 and list(w.log) == []


def test_classroom_run_adds_no_gc_tracked_object_per_log_line():
    """The log keeps no GC-tracked object per line: after a collection, a
    classroom200 run adds at most one tracked object per member (its
    outcome) plus a constant, while it logs ~1 900 lines."""
    scen = load_scenario(os.path.join(os.path.dirname(__file__), "data",
                                      "classroom200.scn"))
    world = scen.build_world(0)
    payload = scen.resolve_payload()
    gc.collect()
    before = len(gc.get_objects())
    report = run_proactive(world, scen.roster, payload,
                           inquiry_interval=scen.inquiry_interval, local=scen.local)
    gc.collect()
    added = len(gc.get_objects()) - before
    members = len(scen.roster.members)
    assert len(world.log) > 10 * members
    assert added <= members + 64, (added, len(world.log))
    assert report.delivered_count > 0


# -- in_range ----------------------------------------------------------------


def test_in_range_twenty_feet_inside_default():
    # 20 ft = 6.096 m, comfortably inside the 10 m default disc.
    a = make_device(mac(1), x=0.0, y=0.0)
    b = make_device(mac(2), x=6.10, y=0.0)
    assert in_range(a, b, RadioParams())


def test_in_range_zero_distance():
    a = make_device(mac(1), x=4.0, y=4.0)
    b = make_device(mac(2), x=4.0, y=4.0)
    assert in_range(a, b, RadioParams())


def test_in_range_boundary():
    a = make_device(mac(1), x=0.0, y=0.0)
    assert in_range(a, make_device(mac(2), x=10.0, y=0.0), RadioParams())
    assert not in_range(a, make_device(mac(3), x=10.001, y=0.0), RadioParams())


# -- inquiry ----------------------------------------------------------------


def test_inquiry_discovers_all_five():
    w = make_world(n_others=5, seed=8)
    found = start_inquiry(w, LOCAL)
    assert list(w.log)[-1].name == "inquiry_completed"
    assert sorted(m for m, _ in found) == [mac(i) for i in range(1, 6)]
    completed = [e for e in w.log if e.name == "inquiry_completed"]
    assert len(completed) == 1
    assert dict(completed[0].fields)["count"] == "5"


def test_inquiry_empty_world():
    w = make_world(n_others=0)
    assert start_inquiry(w, LOCAL) == []
    assert w.now == w.params.inquiry_duration
    assert list(w.log)[-1].name == "inquiry_completed"


def test_inquiry_skips_powered_off():
    w = make_world(n_others=5, seed=8)
    w.device(mac(3)).powered = False
    found = start_inquiry(w, LOCAL)
    assert sorted(m for m, _ in found) == [mac(1), mac(2), mac(4), mac(5)]


def test_inquiry_skips_undiscoverable_and_out_of_range():
    w = make_world(n_others=4, seed=8)
    w.device(mac(1)).discoverable = False
    w.device(mac(2)).position = (50.0, 0.0)
    found = start_inquiry(w, LOCAL)
    assert sorted(m for m, _ in found) == [mac(3), mac(4)]


def test_inquiry_initiator_errors():
    w = make_world(n_others=1)
    with pytest.raises(UnknownDeviceError):
        start_inquiry(w, mac(99))
    w.device(LOCAL).powered = False
    with pytest.raises(PoweredOffError):
        start_inquiry(w, LOCAL)


def test_inquiry_response_times_inside_window():
    w = make_world(n_others=7, seed=5)
    w.advance(500)
    t0 = w.now
    found = start_inquiry(w, LOCAL)
    assert found
    for _, t in found:
        assert t0 < t <= t0 + w.params.inquiry_duration
    assert w.now == t0 + w.params.inquiry_duration


def test_discovery_matches_brute_force_recomputation():
    """Soundness/completeness: recompute the discovered set from scratch,
    including the RNG draw discipline (one draw per other device, MAC
    order, uniform over the window)."""
    for seed in range(12):
        scen_rng = random.Random(1000 + seed)
        w = SimWorld(seed=seed)
        w.add_device(make_device(LOCAL, x=0.0, y=0.0))
        spec = {}
        for i in range(1, scen_rng.randint(2, 10)):
            m = mac(i)
            powered = scen_rng.random() < 0.8
            discoverable = scen_rng.random() < 0.8
            x = scen_rng.uniform(0, 14)
            arrival = scen_rng.choice([0, 0, scen_rng.randrange(0, 20_000)])
            departure = scen_rng.choice([None, None, arrival + scen_rng.randrange(1, 20_000)])
            w.add_device(make_device(m, x=x, y=0.0, powered=powered,
                                     discoverable=discoverable,
                                     arrival=arrival, departure=departure))
            spec[m] = (powered, discoverable, x, arrival, departure)

        found = start_inquiry(w, LOCAL)

        oracle_rng = random.Random(seed)  # same stream the world consumed
        expected = set()
        params = RadioParams()
        for m in sorted(spec):
            t = 0 + 1 + oracle_rng.randrange(params.inquiry_duration)
            powered, discoverable, x, arrival, departure = spec[m]
            present = arrival <= t and (departure is None or t < departure)
            if powered and discoverable and present and x <= params.range_m:
                expected.add(m)
        assert {m for m, _ in found} == expected, f"seed {seed}"


def test_inquiry_schedules_only_devices_present_at_their_instant():
    """One inquiry over N devices adds no event to the queue, yet still draws
    once for every other device in MAC order and answers only for devices
    present at their drawn instant; a search over its discoveries adds no
    event either."""
    seed, n = 3, 60
    params = RadioParams(inquiry_duration=1_000)
    layout = random.Random(77)
    w = SimWorld(seed=seed, params=params)
    w.add_device(make_device(LOCAL, x=0.0, y=0.0))
    for i in range(1, n):
        arrival, departure = layout.choice([
            (0, None),                           # there throughout
            (0, 1),                              # gone before the first instant
            (5_000, None),                       # arrives after the inquiry
            (layout.randrange(1, 1_000), None),  # arrives during it
            (0, layout.randrange(2, 1_000)),     # leaves during it
        ])
        w.add_device(make_device(mac(i), x=layout.uniform(0, 14), y=0.0,
                                 powered=layout.random() < 0.9,
                                 discoverable=layout.random() < 0.9,
                                 arrival=arrival, departure=departure))

    # Brute force: n - 1 draws, one per other device in MAC order.
    oracle_rng = random.Random(seed)
    local = w.devices[LOCAL]
    present, expected = 0, []
    for m in sorted(w.devices):
        if m == LOCAL:
            continue
        t = 1 + oracle_rng.randrange(params.inquiry_duration)
        dev = w.devices[m]
        if dev.present_at(t):
            present += 1
            if dev.powered and dev.discoverable and in_range(local, dev, params):
                expected.append((t, m))
    assert 0 < len(expected) < present < n - 1

    before = w._sched_seq
    found = start_inquiry(w, LOCAL)
    assert w._sched_seq - before == 0
    assert w.rng.getstate() == oracle_rng.getstate()
    assert found == [(m, t) for t, m in sorted(expected)]

    catalog = search_services(w, LOCAL, [m for m, _ in found])
    assert len(catalog.empty) + len(catalog.departed) == len(found)
    assert w._sched_seq - before == 0


# Window lengths at the bit-length edges of CPython's rejection sampler.
_DRAW_EDGES = sorted({1, 2, 3} | {n for k in range(2, 21)
                                  for n in (2**k - 1, 2**k, 2**k + 1)})


@pytest.mark.parametrize("duration", _DRAW_EDGES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_inquiry_draws_match_randrange(duration, seed):
    """start_inquiry inlines randrange's getrandbits rejection loop.  It
    must give the answer instants and leave the generator state that
    ``randrange(duration)`` gives on a twin generator."""
    n = 9
    w = SimWorld(seed=seed, params=RadioParams(inquiry_duration=duration))
    w.add_device(make_device(LOCAL, x=0.0, y=0.0))
    for i in range(1, n):
        w.add_device(make_device(mac(i), x=1.0))
    twin = random.Random(seed)
    expected = {mac(i): 1 + twin.randrange(duration) for i in range(1, n)}
    found = dict(start_inquiry(w, LOCAL))
    message = ("start_inquiry's inlined draw loop no longer matches "
               "random.Random.randrange on this Python; re-derive it from "
               "Random._randbelow before trusting any golden log")
    assert found == expected, message
    assert w.rng.getstate() == twin.getstate(), message


def test_inquiry_sees_a_device_added_after_an_earlier_inquiry():
    w = make_world(n_others=2, seed=4)
    start_inquiry(w, LOCAL)
    w.add_device(make_device(mac(3), x=2.0))
    found = start_inquiry(w, LOCAL)
    assert sorted(m for m, _ in found) == [mac(1), mac(2), mac(3)]
    windows = w.presence_windows()
    assert [m for m, _, _ in windows] == [LOCAL, mac(1), mac(2), mac(3)]


def _discoveries_to_window_end(w):
    """Run one inquiry from LOCAL to the end of its window; return the
    (mac, time) of each device_discovered line."""
    end = w.now + w.params.inquiry_duration
    start_inquiry(w, LOCAL)
    w.advance(end)
    assert list(w.log)[-1].name == "inquiry_completed"
    return [(dict(e.fields)["mac"], e.time) for e in w.log
            if e.name == "device_discovered"]


def test_inquiry_checks_state_at_each_answer_instant():
    """Initiator presence, power and discoverability are read when each
    answer arrives, not when the inquiry starts."""
    seed, n = 6, 12
    others = [mac(i) for i in range(1, n + 1)]
    oracle_rng = random.Random(seed)  # answer instants of an inquiry from t=0
    instants = {m: 1 + oracle_rng.randrange(RadioParams().inquiry_duration)
                for m in others}

    # The initiator leaves mid-window: only the answers before it count.
    leaves_at = sorted(instants.values())[n // 2]
    w = SimWorld(seed=seed)
    w.add_device(make_device(LOCAL, x=0.0, y=0.0, departure=leaves_at))
    for m in others:
        w.add_device(make_device(m, x=2.0))
    expected = sorted((t, m) for m, t in instants.items() if t < leaves_at)
    assert 0 < len(expected) < n
    assert _discoveries_to_window_end(w) == [(m, t) for t, m in expected]

    # A power-off or discoverable=False scheduled for a device's answer
    # instant drops that answer; a power-off 1 ms after it does not.
    off, hidden, late_off = others[1], others[4], others[7]
    w = make_world(n_others=n, seed=seed)
    w.schedule(instants[off], lambda w: setattr(w.device(off), "powered", False))
    w.schedule(instants[hidden],
               lambda w: setattr(w.device(hidden), "discoverable", False))
    w.schedule(instants[late_off] + 1,
               lambda w: setattr(w.device(late_off), "powered", False))
    expected = sorted((t, m) for m, t in instants.items() if m not in (off, hidden))
    assert _discoveries_to_window_end(w) == [(m, t) for t, m in expected]
    assert not w.device(late_off).powered


# Positions on the x axis about the default 10 m range.
_XS = (0.0, 4.0, 9.5, 10.0, 10.5, 20.0)


@st.composite
def _inquiry_worlds(draw):
    """A world of at most 30 devices about to run one inquiry, as the
    arguments ``_build_inquiry_world`` takes.

    The window is short, so answer instants tie; presence windows start
    and end inside it; and each scheduled action lands on an answer
    instant, 1 ms before or 1 ms after it, and switches a device's or the
    initiator's power, discoverability or position, logs a line, or
    schedules a switch of that power for its own instant or of the
    initiator's for the next one."""
    seed = draw(st.integers(0, 2**32 - 1))
    duration = draw(st.integers(1, 24))
    start = draw(st.integers(0, 20))
    end = start + duration
    n = draw(st.integers(0, 29))
    devices = []
    for i in range(n + 1):
        stays = [0, 0, 0] if i else [0] * 6  # the initiator mostly stays
        arrival = draw(st.sampled_from(stays + [draw(st.integers(0, end + 1))]))
        departure = draw(st.sampled_from(
            [None] * len(stays) + [draw(st.integers(arrival + 1, end + 2))]))
        powered, discoverable = draw(st.sampled_from(
            [(True, True), (True, True), (True, False), (False, True)]))
        x = draw(st.sampled_from(_XS)) if i else 0.0
        devices.append((x, powered or not i, discoverable, arrival, departure))
    # Answer instants, from a twin of the world's generator.
    twin = random.Random(seed)
    instants = [start + 1 + twin.randrange(duration) for _ in range(n)]
    actions = []
    if n:
        for _ in range(draw(st.integers(0, 16))):
            at = draw(st.sampled_from(instants)) + draw(st.sampled_from([-1, 0, 1]))
            target = draw(st.just(0) | st.integers(1, n))  # 0: the initiator
            switch = draw(st.sampled_from(["powered", "discoverable", "position",
                                           "log", "same_instant", "next_ms"]))
            value = draw(st.sampled_from(_XS)) if switch == "position" \
                else draw(st.booleans())
            actions.append((at, target, switch, value))
    return seed, duration, start, devices, actions


def _build_inquiry_world(seed, duration, start, devices, actions):
    """The world ``_inquiry_worlds`` describes, its clock at ``start``;
    device 0 is the initiator, ``LOCAL``."""
    w = SimWorld(seed=seed, params=RadioParams(inquiry_duration=duration))
    macs = [LOCAL] + [mac(i) for i in range(1, len(devices))]
    for m, (x, powered, discoverable, arrival, departure) in zip(macs, devices):
        w.add_device(make_device(m, x=x, powered=powered, discoverable=discoverable,
                                 arrival=arrival, departure=departure))
    for k, (at, target, switch, value) in enumerate(actions):
        dev = w.devices[macs[target]]

        def act(w, dev=dev, switch=switch, value=value, k=k):
            if switch == "position":
                dev.position = (value, 0.0)
            elif switch == "log":
                w.emit("iteration_started", index=k)
            elif switch == "same_instant":
                w.schedule(w.now, lambda w: setattr(dev, "powered", value))
            elif switch == "next_ms":
                w.schedule(w.now + 1, lambda w: setattr(w.device(LOCAL),
                                                        "powered", value))
            else:
                setattr(dev, switch, value)

        w.schedule(at, act)
    w.advance(start)
    return w


@given(_inquiry_worlds())
def test_inquiry_matches_the_straightforward_reference(spec):
    """The walk in quiet stretches gives what one ``advance`` and one
    ``emit`` per answer give: the same log bytes, discoveries, generator
    state, clock and queue."""
    outcomes = []
    for inquiry in (start_inquiry, reference_inquiry):
        w = _build_inquiry_world(*spec)
        try:
            found = inquiry(w, LOCAL)
        except PoweredOffError as exc:
            found = str(exc)
        outcomes.append((w.render_log(), found, w.rng.getstate(), w.now,
                         [entry[:3] for entry in sorted(w._queue)]))
    assert outcomes[0] == outcomes[1]


# -- piconet links -----------------------------------------------------------


def test_connect_seventh_slave_ok_eighth_rejected():
    w = make_world(n_others=8)
    for i in range(1, 7):
        w.connect(LOCAL, mac(i))
    w.connect(LOCAL, mac(7))  # boundary inside the cap
    assert len(w.slaves_of(LOCAL)) == 7
    with pytest.raises(PiconetFullError):
        w.connect(LOCAL, mac(8))


def test_connect_checks_range_and_power():
    w = make_world(n_others=2)
    w.device(mac(1)).position = (99.0, 0.0)
    with pytest.raises(OutOfRangeError):
        w.connect(LOCAL, mac(1))
    w.device(mac(2)).powered = False
    with pytest.raises(PoweredOffError):
        w.connect(LOCAL, mac(2))
    with pytest.raises(UnknownDeviceError):
        w.connect(LOCAL, mac(55))


def test_departure_closes_link_and_frees_slot():
    w = make_world(n_others=1)
    w.add_device(make_device(mac(9), "leaver", 2.0, 0.0, departure=5_000))
    link = w.connect(LOCAL, mac(9))
    assert link.open
    assert mac(9) in w.slaves_of(LOCAL)
    w.advance(6_000)
    assert not link.open
    assert link.closed_reason == "departed"
    assert mac(9) not in w.slaves_of(LOCAL)
    closed = [e for e in w.log if e.name == "link_closed"]
    assert dict(closed[0].fields)["reason"] == "departed"


def test_disconnect_removes_empty_piconet():
    w = make_world(n_others=1)
    link = w.connect(LOCAL, mac(1))
    w.disconnect(link)
    assert w.slaves_of(LOCAL) == []
    assert not link.open


def test_connect_rejects_self_link_before_any_change():
    w = make_world(n_others=1)
    with pytest.raises(SimError):
        w.connect(LOCAL, LOCAL)
    assert w.links == {}
    assert not any(e.name == "link_connected" for e in w.log)


def test_links_hold_only_open_links():
    w = make_world(n_others=2)
    w.add_device(make_device(mac(9), "leaver", 2.0, 0.0, departure=5_000))
    first = w.connect(LOCAL, mac(1))
    leaving = w.connect(LOCAL, mac(9))
    last = w.connect(LOCAL, mac(2))
    w.disconnect(first)
    assert list(w.links.values()) == [leaving, last]
    w.advance(6_000)
    assert not leaving.open
    assert w.links == {(LOCAL, mac(2)): last}
    assert w.slaves_of(LOCAL) == [mac(2)]


def test_departure_closes_links_in_the_order_they_opened():
    w = make_world(n_others=2)
    w.add_device(make_device(mac(9), "hub", 2.0, 0.0, departure=5_000))
    w.connect(mac(9), mac(2))
    w.connect(LOCAL, mac(9))
    w.connect(mac(9), mac(1))
    w.advance(6_000)
    closed = [dict(e.fields) for e in w.log if e.name == "link_closed"]
    assert [(c["master"], c["slave"]) for c in closed] == [
        (mac(9), mac(2)), (LOCAL, mac(9)), (mac(9), mac(1))]
    assert w.links == {}


def test_emit_refuses_an_event_earlier_than_the_last_one():
    w = make_world()
    w.now = 5
    w.emit("device_arrived", mac=LOCAL)
    w.now = 3
    with pytest.raises(AssertionError):
        w.emit("device_departed", mac=LOCAL)
    assert [e.name for e in w.log] == ["device_arrived"]


# -- transfer duration -------------------------------------------------------


def test_transfer_duration_hand_values():
    p = RadioParams()
    assert transfer_duration(0, p) == 100  # overhead only
    # 375,000 bytes = 3,000,000 bits at 3 Mbps = exactly one second
    assert transfer_duration(375_000, p) == 1_100
    # one byte: ceil(8 bits / 3 Mbps -> ms) = 1 ms
    assert transfer_duration(1, p) == 101


def test_transfer_duration_rejects_negative():
    with pytest.raises(ValueError):
        transfer_duration(-1, RadioParams())


@given(st.integers(0, 10**7), st.integers(0, 10**7))
def test_transfer_duration_monotone(a, b):
    p = RadioParams()
    lo, hi = sorted((a, b))
    assert transfer_duration(lo, p) <= transfer_duration(hi, p)


def test_transfer_duration_matches_fraction_ceiling():
    from fractions import Fraction
    p = RadioParams(link_rate_bps=7_001, session_overhead=3)
    for nbytes in (0, 1, 2, 7, 875, 876, 10_000):
        exact = Fraction(nbytes * 8 * 1000, p.link_rate_bps)
        expected = p.session_overhead + -(-exact.numerator // exact.denominator)
        assert transfer_duration(nbytes, p) == expected
