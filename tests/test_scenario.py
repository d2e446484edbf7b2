"""Scenario files: strict schema, fixtures, validation diagnostics."""

import collections
import dataclasses
import json
import os
from pathlib import Path

import pytest

from pidsim import simnet
from pidsim.errors import ScenarioError
from pidsim.obexlite import DEFAULT_MAX_PACKET, first_frame_capacity
from pidsim.pidctl import run_proactive
from pidsim.scenario import (
    load_scenario,
    parse_scenario,
    shipped_fixture_names,
    shipped_fixture_path,
)
from pidsim.simnet import MacId, RadioDevice, RadioParams

from .conftest import ftp_record


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
    """A new ``RadioDevice`` field reaches the built world without touching
    ``build_world``; only the mutable services list and inbox are fresh."""
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
