"""Scenario files: strict schema, fixtures, validation diagnostics."""

import collections
import dataclasses
import gc
import json
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pidsim import pidctl, scenario, sdp, simnet
from pidsim.errors import ScenarioError
from pidsim.obexlite import DEFAULT_MAX_PACKET, first_frame_capacity
from pidsim.pidctl import run_proactive
from pidsim.scenario import (
    load_scenario,
    parse_scenario,
    shipped_fixture_names,
    shipped_fixture_path,
)
from pidsim.sdp import ConnectionUrl, ServiceRecord
from pidsim.simnet import MacId, RadioDevice, RadioParams

from .conftest import ftp_record
from .test_scale import write_rung


def _minimal(**overrides):
    data = {
        "schema_version": 1,
        "mode": "stepped",
        "seed": 1,
        "local": "001122334455",
        "devices": [
            {"mac": "001122334455", "name": "client", "position": [0, 0]},
        ],
        "file": {"name": "cpi.txt", "text": "hi"},
    }
    data.update(overrides)
    return data


def _write(tmp_path, data):
    path = tmp_path / "scenario.scn"
    path.write_text(json.dumps(data))
    return str(path)


def test_shipped_fixtures_present():
    assert {"fig6_classroom", "live_test", "late_arrival"} <= set(
        shipped_fixture_names())


def test_fig6_fixture_contents():
    sc = load_scenario(shipped_fixture_path("fig6_classroom"))
    assert sc.mode == "stepped"
    by_mac = {d.mac: d for d in sc.devices}
    assert len(sc.devices) == 6  # client + the five discovered devices
    assert by_mac["00179A235EDD"].friendly_name == "EB-LAPTOP-D400"
    assert by_mac["0007616110B1"].friendly_name == "Dell BT Mouse"
    assert by_mac["00164410697A"].friendly_name == "DELL BH200"
    counts = sorted(len(d.services) for d in sc.devices if d.mac != sc.local)
    assert counts == [0, 0, 1, 4, 7]
    laptop = by_mac["00179A235EDD"]
    [ftp] = [r for r in laptop.services if r.is_ftp()]
    assert ftp.connection_url.render() == "http://00179A235EDD:8001/file-transfer/"


def test_live_test_fixture_contents():
    sc = load_scenario(shipped_fixture_path("live_test"))
    assert sc.mode == "proactive"
    others = [d for d in sc.devices if d.mac != sc.local]
    assert len(others) == 12
    members = sc.roster.members
    assert len(members) == 8
    ftp_members = [d for d in others
                   if d.mac in members and any(r.is_ftp() for r in d.services)]
    assert len(ftp_members) == 7
    dummies = [d for d in others if d.mac in members and not d.services]
    assert len(dummies) == 1
    ftp_non_members = [d for d in others if d.mac not in members
                       and any(r.is_ftp() for r in d.services)]
    assert len(ftp_non_members) == 1
    assert sc.usage is not None


def test_parse_rejects_unknown_scenario_key():
    with pytest.raises(ScenarioError, match="unknown field.*typo_key"):
        parse_scenario(_minimal(typo_key=1))


def test_parse_rejects_unknown_nested_keys():
    data = _minimal()
    data["devices"][0]["rssi"] = -40
    with pytest.raises(ScenarioError, match=r"devices\[0\].*rssi"):
        parse_scenario(data)
    data = _minimal(radio={"rangem": 5})
    with pytest.raises(ScenarioError, match="radio.*rangem"):
        parse_scenario(data)


def test_parse_rejects_duplicate_mac():
    data = _minimal()
    data["devices"].append({"mac": "001122334455", "name": "again",
                            "position": [1, 1]})
    with pytest.raises(ScenarioError, match="duplicate MAC"):
        parse_scenario(data)


def test_parse_rejects_bad_schema_version():
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(_minimal(schema_version=99))


def test_parse_rejects_unknown_local():
    with pytest.raises(ScenarioError, match="local"):
        parse_scenario(_minimal(local="00179A235EDD"))


def test_parse_rejects_bad_mode_and_missing_roster():
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario(_minimal(mode="continuous"))
    with pytest.raises(ScenarioError, match="roster.*required"):
        parse_scenario(_minimal(mode="proactive"))


def test_parse_rejects_bad_window():
    data = _minimal(mode="proactive", roster={
        "course_id": "X", "members": [], "course_start": 100_000,
        "window_before": 240_000, "window_after": 240_000,
    })
    with pytest.raises(ScenarioError, match="roster"):
        parse_scenario(data)


def test_parse_rejects_conflicting_file_sources():
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(_minimal(file={"name": "a", "text": "x", "hex": "00"}))


def test_parse_rejects_non_ascii_file_name():
    with pytest.raises(ScenarioError, match=r"scenario\.file\.name: name is not ASCII"):
        parse_scenario(_minimal(file={"name": "h\u00e9.txt", "text": "x"}))
    with pytest.raises(ScenarioError, match=r"scenario\.file\.name: name is not ASCII"):
        parse_scenario(_minimal(file={"path": "docs/h\u00e9.txt"}))


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["devices"][0].update(name="a\ud800"), "scenario.devices[0].name"),
    (lambda d: d["file"].update(text="\udfff"), "scenario.file.text"),
    (lambda d: d.update(mode="proactive", roster={
        "course_id": "\ud800NCP", "members": [], "course_start": 0}),
     "scenario.roster.course_id"),
], ids=["device-name", "file-text", "course-id"])
def test_parse_rejects_strings_not_encodable_as_utf8(mutate, field):
    data = _minimal()
    mutate(data)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(json.loads(json.dumps(data)))
    assert str(exc.value) == f"{field}: not encodable as UTF-8"


def test_parse_rejects_file_name_too_long_for_packet():
    longest = "x" * first_frame_capacity("", DEFAULT_MAX_PACKET)
    assert parse_scenario(_minimal(file={"name": longest, "text": "x"})) \
        .file_name == longest
    for name in (longest + "x", "x" * 1100):
        with pytest.raises(ScenarioError, match=r"scenario\.file\.name: too long"):
            parse_scenario(_minimal(file={"name": name, "text": "x"}))


def test_parse_rejects_invalid_mac_string():
    data = _minimal()
    data["devices"][0]["mac"] = "NOT-A-MAC"
    with pytest.raises(ScenarioError, match="12-hex-digit"):
        parse_scenario(data)


def test_parse_allows_notes_everywhere():
    data = _minimal(
        notes="top", radio={"notes": "radio note"},
        roster={"course_id": "X", "members": [], "course_start": 0,
                "window_before": 0, "notes": "roster note"},
        usage={"students": 1, "pages_per_week": 1, "weeks": 1,
               "notes": "usage note"})
    data["devices"][0]["notes"] = "device note"
    data["devices"][0]["services"] = [{"id": 1, "name": "FTP",
                                       "notes": "service note"}]
    data["file"]["notes"] = "file note"
    sc = parse_scenario(data)
    assert sc.local == "001122334455"
    assert sc.radio == RadioParams()


def test_load_reports_json_error_with_line(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text('{"schema_version": 1,\n  "mode": }')
    with pytest.raises(ScenarioError, match="broken.scn:2"):
        load_scenario(str(path))


def test_file_payload_sources(tmp_path):
    sc = parse_scenario(_minimal(file={"name": "a.bin", "hex": "deadbeef"}))
    assert sc.resolve_payload() == ("a.bin", bytes.fromhex("deadbeef"))

    blob = tmp_path / "notes.txt"
    blob.write_bytes(b"week one")
    data = _minimal(file={"path": str(blob)})
    sc = parse_scenario(data, base_dir=str(tmp_path))
    assert sc.resolve_payload() == ("notes.txt", b"week one")

    data = _minimal(file={"path": "missing.txt"})
    sc = parse_scenario(data, base_dir=str(tmp_path))
    with pytest.raises(ScenarioError, match="file-not-found"):
        sc.resolve_payload()


def test_build_world_copies_every_device_field():
    """Every ``RadioDevice`` field reaches the built world; only the mutable
    services list and inbox are fresh."""
    template = RadioDevice(
        mac="0019E3A20001", friendly_name="phone", position=(3.0, 4.0),
        powered=False, discoverable=False,
        services=[ftp_record(MacId("0019E3A20001"))], arrival=5,
        departure=9, refuse_push=True, drop_transfers=2,
        inbox={"old.txt": b"x"})
    for f in dataclasses.fields(RadioDevice):
        if f.default is not dataclasses.MISSING:
            assert getattr(template, f.name) != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(template, f.name) != f.default_factory(), f.name
    sc = dataclasses.replace(load_scenario(shipped_fixture_path("fig6_classroom")),
                             devices=[template])
    built = sc.build_world(1).device(template.mac)
    assert built is not template
    for f in dataclasses.fields(RadioDevice):
        if f.name != "inbox":
            assert getattr(built, f.name) == getattr(template, f.name), f.name
    assert built.services is not template.services
    assert built.inbox == {} and template.inbox == {"old.txt": b"x"}


def test_build_world_is_fresh_each_time():
    sc = load_scenario(shipped_fixture_path("fig6_classroom"))
    w1 = sc.build_world(1)
    w2 = sc.build_world(1)
    assert w1.devices is not w2.devices
    w1.device("00179A235EDD").inbox["x"] = b"y"
    assert w2.device("00179A235EDD").inbox == {}

    # A run consumes its world's drop budget, never the parsed template's.
    data = json.loads(Path(shipped_fixture_path("late_arrival")).read_text())
    data["devices"][1]["drop_transfers"] = 1
    sc = parse_scenario(data)
    logs = []
    for _ in range(2):
        world = sc.build_world(sc.seed)
        run_proactive(world, sc.roster, sc.resolve_payload(),
                      inquiry_interval=sc.inquiry_interval, local=sc.local)
        logs.append(world.render_log())
    assert "reason=link-lost" in logs[0]
    assert logs[0] == logs[1]
    assert sc.devices[1].drop_transfers == 1


def test_build_world_makes_no_device_check(monkeypatch):
    """The templates were checked when the scenario was parsed, so building
    a world copies them without a MAC check or ``RadioDevice.__post_init__``."""
    sc = load_scenario(os.path.join(os.path.dirname(__file__), "data",
                                    "classroom200.scn"))
    calls = collections.Counter()
    real_mac, real_post_init = simnet.MacId, RadioDevice.__post_init__

    def counting_mac(value):
        calls["MacId"] += 1
        return real_mac(value)

    def counting_post_init(self):
        calls["__post_init__"] += 1
        real_post_init(self)

    monkeypatch.setattr(simnet, "MacId", counting_mac)
    monkeypatch.setattr(RadioDevice, "__post_init__", counting_post_init)
    world = sc.build_world(0)
    assert len(world.devices) == len(sc.devices) == 201
    assert calls == {}
    dataclasses.replace(sc.devices[0])  # the counters do see a checked copy
    assert calls == {"MacId": 1, "__post_init__": 1}


@pytest.mark.parametrize("source", ["classroom200", "classroom200-step-target",
                                    "crowd-churn-rung"])
def test_parse_checks_each_mac_string_once(monkeypatch, tmp_path, source):
    """A parse calls ``MacId`` once per MAC string in the file (every device,
    every roster member, ``local`` and the step target), wherever it looks
    the name up, and builds no device or URL through its ``__post_init__``."""
    if source == "crowd-churn-rung":
        path = write_rung(1_000, str(tmp_path))
    else:
        path = os.path.join(os.path.dirname(__file__), "data", "classroom200.scn")
        if source == "classroom200-step-target":
            data = json.loads(Path(path).read_text())
            data["step_target"] = data["devices"][7]["mac"].lower()
            path = _write(tmp_path, data)
    data = json.loads(Path(path).read_text())
    mac_strings = (len(data["devices"]) + len(data["roster"]["members"]) + 1
                   + ("step_target" in data))
    calls = collections.Counter()
    real_mac = simnet.MacId

    def counting_mac(value):
        calls["MacId"] += 1
        return real_mac(value)

    def counting(name, real):
        def post_init(self):
            calls[name] += 1
            real(self)
        return post_init

    for module in (scenario, sdp, simnet, pidctl):
        monkeypatch.setattr(module, "MacId", counting_mac)
    for cls in (RadioDevice, ConnectionUrl):
        monkeypatch.setattr(cls, "__post_init__",
                            counting(cls.__name__, cls.__post_init__))
    sc = load_scenario(path)
    assert calls == {"MacId": mac_strings}
    assert len(sc.devices) == len(data["devices"]) >= 201
    if "step_target" in data:
        assert sc.step_target == data["step_target"].upper()


def test_public_constructors_canonicalize_and_check_the_mac():
    assert RadioDevice(mac="00179a235edd", friendly_name="x").mac == "00179A235EDD"
    assert ConnectionUrl("btgoep", "00179a235edd", 1, "").mac == "00179A235EDD"
    with pytest.raises(ValueError, match="not a 12-hex-digit MAC"):
        RadioDevice(mac="00179a235edg", friendly_name="x")
    with pytest.raises(ValueError, match="not a 12-hex-digit MAC"):
        ConnectionUrl("btgoep", "00179a235ed", 1, "")


def _value_error(make, *args, **kw):
    with pytest.raises(ValueError) as exc:
        make(*args, **kw)
    return str(exc.value)


def test_checked_parts_build_what_the_constructors_build():
    """The parser's paths from an already canonical MAC build the objects
    the public constructors build and refuse the same other values with the
    same messages."""
    m = MacId("0019E3A20001")
    assert RadioDevice._from_checked(m, "n", (0.0, 0.0), []) == RadioDevice(m, "n")
    opts = dict(powered=False, discoverable=False, arrival=5, departure=9,
                refuse_push=True, drop_transfers=2)
    services = [ftp_record(m)]
    assert RadioDevice._from_checked(m, "n", (1.0, 2.0), services, **opts) \
        == RadioDevice(m, "n", (1.0, 2.0), services=services, **opts)
    for window in ({"arrival": -1}, {"arrival": 5, "departure": 5}):
        assert _value_error(RadioDevice._from_checked, m, "n", (0.0, 0.0), [],
                            **window) \
            == _value_error(RadioDevice, m, "n", **window)
    assert ServiceRecord._from_checked(4, "FTP", "btgoep", m, 9, "ftp/") \
        == ServiceRecord(4, "FTP", ConnectionUrl("btgoep", m, 9, "ftp/"))

    def record(sid, scheme, channel):
        return ServiceRecord(sid, "s", ConnectionUrl(scheme, m, channel, ""))

    for sid, scheme, channel in ((1, "", 1), (1, "a:b", 1), (1, "a/b", 1),
                                 (1, "http", 0), (0, "http", 1), (0, "a:b", 0),
                                 (0, "http", 0)):
        assert _value_error(ServiceRecord._from_checked, sid, "s", scheme, m,
                            channel, "") == _value_error(record, sid, scheme, channel)
    window = dict(course_id="C", course_start=300_000, window_before=1,
                  window_after=2, late_cutoff=300_001, max_retries=2)
    assert pidctl.Roster._from_checked(frozenset({m}), **window) \
        == pidctl.Roster(members=frozenset({m}), **window)
    for bad in ({"window_before": 300_001}, {"window_after": -1},
                {"late_cutoff": 300_003}, {"max_retries": 0}):
        assert _value_error(pidctl.Roster._from_checked, frozenset({m}),
                            **{**window, **bad}) \
            == _value_error(pidctl.Roster, members=frozenset({m}),
                            **{**window, **bad})


def test_build_world_queues_arrivals_and_departures_as_data():
    """Each scripted arrival and departure waits in the queue as plain data,
    which the cyclic GC stops tracking, not as a closure it must track."""
    sc = load_scenario(os.path.join(os.path.dirname(__file__), "data",
                                    "classroom200.scn"))
    world = sc.build_world(0)
    gc.collect()
    scripted = (sum(d.arrival > 0 for d in sc.devices)
                + sum(d.departure is not None for d in sc.devices))
    assert len(world._queue) == scripted == 183
    assert not any(gc.is_tracked(entry) for entry in world._queue)


def test_scenario_radio_overrides():
    data = _minimal(radio={"range_m": 3.5, "inquiry_duration": 8000})
    sc = parse_scenario(data)
    assert sc.radio.range_m == 3.5
    assert sc.radio.inquiry_duration == 8000
    assert sc.radio.link_rate_bps == 3_000_000
    with pytest.raises(ScenarioError, match=r"^scenario\.radio\.link_rate_bps: "
                       r"expected int, got a boolean$"):
        parse_scenario(_minimal(radio={"link_rate_bps": True}))
    with pytest.raises(ScenarioError, match=r"^scenario\.radio\.inquiry_duration: "
                       r"expected int, got str$"):
        parse_scenario(_minimal(radio={"inquiry_duration": "16000"}))
    data = _minimal()
    data["devices"][0]["arrival"] = True
    with pytest.raises(ScenarioError, match=r"^scenario\.devices\[0\]\.arrival: "
                       r"expected int, got a boolean$"):
        parse_scenario(data)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_COORD = st.integers(-10**6, 10**6) | st.floats(allow_nan=False,
                                                allow_infinity=False)


def _optional(draw, block: dict, key: str, values) -> None:
    """Leave ``key`` out of ``block``, set it to null, or set it to a value."""
    choice = draw(st.sampled_from(["out", "null", "set"]))
    if choice != "out":
        block[key] = None if choice == "null" else draw(values)


@st.composite
def _device_blocks(draw):
    """Valid device blocks with distinct MACs in any case; every optional
    field left out, null or set."""
    macs = draw(st.lists(st.text("0123456789abcdefABCDEF", min_size=12,
                                 max_size=12),
                         min_size=1, max_size=6, unique_by=str.upper))
    blocks = []
    for m in macs:
        block = {"mac": m, "name": draw(_TEXT),
                 "position": [draw(_COORD), draw(_COORD)]}
        for key in ("powered", "discoverable", "refuse_push"):
            _optional(draw, block, key, st.booleans())
        _optional(draw, block, "drop_transfers", st.integers(0, 5))
        _optional(draw, block, "arrival", st.integers(0, 10**6))
        _optional(draw, block, "departure",
                  st.integers((block.get("arrival") or 0) + 1, 2 * 10**6))
        ids = draw(st.lists(st.integers(1, 99), max_size=4, unique=True))
        if ids or draw(st.booleans()):
            block["services"] = []
        for sid in ids:
            service = {"id": sid, "name": draw(_TEXT)}
            _optional(draw, service, "channel", st.integers(1, 30))
            _optional(draw, service, "path", _TEXT)
            _optional(draw, service, "scheme", st.sampled_from(["http", "btgoep"]))
            block["services"].append(service)
        blocks.append(block)
    return blocks


def _constructed(block: dict) -> RadioDevice:
    """The device the public constructors build from a device block."""
    def get(obj, key, default):
        return default if obj.get(key) is None else obj[key]

    mac = block["mac"]
    services = [ServiceRecord(s["id"], s["name"], ConnectionUrl(
        get(s, "scheme", "http"), mac, get(s, "channel", 1), get(s, "path", "")))
        for s in block.get("services") or ()]
    x, y = block["position"]
    return RadioDevice(mac, block["name"], (float(x), float(y)),
                       get(block, "powered", True), get(block, "discoverable", True),
                       services, get(block, "arrival", 0), block.get("departure"),
                       get(block, "refuse_push", False),
                       get(block, "drop_transfers", 0))


@given(_device_blocks())
def test_parsed_devices_equal_what_the_public_constructors_build(blocks):
    sc = parse_scenario(_minimal(devices=blocks, local=blocks[0]["mac"]))
    assert sc.devices == [_constructed(block) for block in blocks]
    for device in sc.devices:
        assert type(device.position[0]) is float is type(device.position[1])


_SERVICE_BLOCK = {"id": 1, "name": "File Transfer", "channel": 9, "path": "ftp/"}


@pytest.mark.parametrize("fault, field, message", [
    ({"id": True}, ".id", "expected int, got a boolean"),
    ({"channel": 9.0}, ".channel", "expected int, got float"),
    ({"scheme": "a:b"}, "", "bad scheme: 'a:b'"),
], ids=["bool-id", "float-channel", "bad-scheme"])
@pytest.mark.parametrize("layout", ["one-per-device", "all-on-one-device"])
def test_a_fault_in_the_last_of_many_identical_service_blocks_is_refused(
        layout, fault, field, message):
    """No check is skipped for a block that repeats earlier ones: ``true``
    and ``9.0`` hash like ``1`` and ``9``, so a memo keyed by value would
    let them through."""
    n = 40
    devices = [{"mac": "001122334455", "name": "client", "position": [0, 0]}]
    if layout == "one-per-device":
        for i in range(1, n + 1):
            devices.append({"mac": f"0019E3A2{i:04X}", "name": "d",
                            "position": [1, 0], "services": [dict(_SERVICE_BLOCK)]})
        devices[-1]["services"][0].update(fault)
        where = f"scenario.devices[{n}].services[0]"
    else:
        services = [{**_SERVICE_BLOCK, "id": sid} for sid in range(1, n + 1)]
        services[-1].update(fault)
        devices.append({"mac": "0019E3A20001", "name": "d", "position": [1, 0],
                        "services": services})
        where = f"scenario.devices[1].services[{n - 1}]"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(_minimal(devices=devices))
    assert str(exc.value) == f"{where}{field}: {message}"
