"""Scenario files: strict JSON schema, validation, and world construction.

A scenario is a JSON document (conventionally ``*.scn``) gated by
``schema_version``; unknown keys anywhere are an error so that typos never
silently change a run.  The full schema is documented in the README.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources

from .errors import ProtocolError, ScenarioError
from .metrics import CourseUsage
from .obexlite import DEFAULT_MAX_PACKET, first_frame_capacity
from .pidctl import DEFAULT_INQUIRY_INTERVAL, Roster, StepConfig
from .sdp import ConnectionUrl, ServiceRecord
from .simnet import MacId, RadioDevice, RadioParams, SimTime, SimWorld

SCHEMA_VERSION = 1

_SCENARIO_KEYS = {
    "schema_version", "seed", "mode", "local", "radio", "loss_probability",
    "devices", "roster", "file", "inquiry_interval", "step_target", "usage",
    "notes",
}
# Optional fields of a block, with their JSON types.  A field the scenario
# leaves out (or sets to null) is not passed on, so the dataclass default holds.
_RADIO_TYPES = {"range_m": (int, float), "inquiry_duration": int,
                "service_search_per_device": int, "link_rate_bps": int,
                "session_overhead": int}
_DEVICE_TYPES = {"powered": bool, "discoverable": bool, "arrival": int,
                 "departure": int, "refuse_push": bool, "drop_transfers": int}
_ROSTER_TYPES = {"window_before": int, "window_after": int, "late_cutoff": int,
                 "max_retries": int}
_DEVICE_KEYS = {"mac", "name", "position", "services", "notes", *_DEVICE_TYPES}
_SERVICE_KEYS = {"id", "name", "channel", "path", "scheme", "notes"}
_ROSTER_KEYS = {"course_id", "members", "course_start", "notes", *_ROSTER_TYPES}
_FILE_KEYS = {"name", "text", "hex", "path", "notes"}
_USAGE_KEYS = {"students", "pages_per_week", "weeks", "notes"}


_REQUIRED = object()


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s): {', '.join(unknown)}")


def _expect(obj: dict, key: str, types, where: str, default=_REQUIRED):
    if key not in obj or obj[key] is None and default is not _REQUIRED:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing required field {key!r}")
        return default
    value = obj[key]
    type_tuple = types if isinstance(types, tuple) else (types,)
    is_bool = isinstance(value, bool)
    if is_bool and bool not in type_tuple or not isinstance(value, types):
        expected = " or ".join(t.__name__ for t in type_tuple)
        got = "a boolean" if is_bool else type(value).__name__
        raise ScenarioError(f"{where}.{key}: expected {expected}, got {got}")
    return value


def _given(obj: dict, types: dict, where: str) -> dict:
    """The optional fields ``obj`` sets to a non-null value, type-checked."""
    return {key: _expect(obj, key, t, where)
            for key, t in types.items() if obj.get(key) is not None}


@dataclass
class Scenario:
    """A parsed scenario.  ``devices`` are templates: every world gets its
    own copies, so one Scenario can be run under many seeds."""

    schema_version: int
    mode: str
    local: MacId
    devices: list[RadioDevice]
    seed: int | None
    radio: RadioParams
    loss_probability: float
    roster: Roster | None
    file_name: str
    file_payload: bytes | None
    file_path: str | None  # already resolved against the scenario's directory
    inquiry_interval: SimTime
    step_target: MacId | None
    usage: CourseUsage | None

    def build_world(self, seed: int) -> SimWorld:
        """A fresh world; each device copies its template, with its own
        services list and an empty inbox."""
        world = SimWorld(seed=seed, params=self.radio,
                         loss_probability=self.loss_probability)
        for d in self.devices:
            world.add_device(replace(d, services=list(d.services), inbox={}))
        return world

    def resolve_payload(self) -> tuple[str, bytes]:
        """(file name, payload bytes); reads file_path when no inline
        payload was given."""
        if self.file_payload is not None:
            return self.file_name, self.file_payload
        if self.file_path is None:
            raise ScenarioError("scenario has neither inline payload nor file path")
        try:
            with open(self.file_path, "rb") as fh:
                return self.file_name, fh.read()
        except OSError as exc:
            raise ScenarioError(f"file-not-found: {self.file_path}") from exc


def parse_scenario(data: dict, base_dir: str = ".") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(data, _SCENARIO_KEYS, "scenario")

    version = _expect(data, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario.schema_version: {version} not supported "
            f"(this build understands {SCHEMA_VERSION})")
    mode = _expect(data, "mode", str, "scenario")
    if mode not in ("stepped", "proactive"):
        raise ScenarioError(f"scenario.mode: must be stepped or proactive, got {mode!r}")
    seed = _expect(data, "seed", int, "scenario", default=None)

    radio_obj = _expect(data, "radio", dict, "scenario", default={})
    _check_keys(radio_obj, _RADIO_TYPES, "scenario.radio")
    try:
        radio = RadioParams(**_given(radio_obj, _RADIO_TYPES, "scenario.radio"))
    except ValueError as exc:
        raise ScenarioError(f"scenario.radio: {exc}") from None

    loss = _expect(data, "loss_probability", (int, float), "scenario", default=0.0)
    if not 0.0 <= float(loss) <= 1.0:
        raise ScenarioError("scenario.loss_probability: must be within [0, 1]")

    devices = _parse_devices(_expect(data, "devices", list, "scenario"))
    local = _parse_mac(_expect(data, "local", str, "scenario"), "scenario.local")
    local_dev = next((d for d in devices if d.mac == local), None)
    if local_dev is None:
        raise ScenarioError(f"scenario.local: {local} is not in the device list")
    # A stepped walkthrough reports a powered-off client at step 1; a
    # proactive run cannot start an inquiry from it at all.
    if mode == "proactive" and not local_dev.powered:
        raise ScenarioError(f"scenario.local: initiator {local} is powered off")

    roster = None
    if data.get("roster") is not None:
        roster = _parse_roster(_expect(data, "roster", dict, "scenario"))
    if mode == "proactive" and roster is None:
        raise ScenarioError("scenario.roster: required for proactive mode")

    file_name, payload, file_path = _parse_file(
        _expect(data, "file", dict, "scenario", default={}))
    if file_path is not None:
        file_path = os.path.join(base_dir, file_path)

    interval = _expect(data, "inquiry_interval", int, "scenario",
                       default=DEFAULT_INQUIRY_INTERVAL)
    if interval <= 0:
        raise ScenarioError("scenario.inquiry_interval: must be positive")

    step_target = None
    if data.get("step_target") is not None:
        step_target = _parse_mac(_expect(data, "step_target", str, "scenario"),
                                 "scenario.step_target")

    usage = None
    if data.get("usage") is not None:
        usage_obj = _expect(data, "usage", dict, "scenario")
        _check_keys(usage_obj, _USAGE_KEYS, "scenario.usage")
        try:
            usage = CourseUsage(
                students=_expect(usage_obj, "students", int, "scenario.usage"),
                pages_per_student_week=_expect(usage_obj, "pages_per_week", int,
                                               "scenario.usage"),
                weeks=_expect(usage_obj, "weeks", int, "scenario.usage"))
        except ValueError as exc:
            raise ScenarioError(f"scenario.usage: {exc}") from None

    return Scenario(
        schema_version=version, mode=mode, local=local, devices=devices,
        seed=seed, radio=radio, loss_probability=float(loss), roster=roster,
        file_name=file_name, file_payload=payload, file_path=file_path,
        inquiry_interval=interval, step_target=step_target, usage=usage)


def _parse_mac(text: str, where: str) -> MacId:
    try:
        return MacId(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_devices(items: list) -> list[RadioDevice]:
    devices: list[RadioDevice] = []
    seen: set[MacId] = set()
    for i, obj in enumerate(items):
        where = f"scenario.devices[{i}]"
        if not isinstance(obj, dict):
            raise ScenarioError(f"{where}: expected an object")
        _check_keys(obj, _DEVICE_KEYS, where)
        mac = _parse_mac(_expect(obj, "mac", str, where), f"{where}.mac")
        if mac in seen:
            raise ScenarioError(f"{where}.mac: duplicate MAC {mac}")
        seen.add(mac)
        pos = _expect(obj, "position", list, where)
        if len(pos) != 2 or not all(isinstance(c, (int, float)) for c in pos):
            raise ScenarioError(f"{where}.position: expected [x, y] in meters")
        services = _parse_services(
            _expect(obj, "services", list, where, default=[]), mac, where)
        try:
            devices.append(RadioDevice(
                mac=mac,
                friendly_name=_expect(obj, "name", str, where),
                position=(float(pos[0]), float(pos[1])),
                services=services,
                **_given(obj, _DEVICE_TYPES, where),
            ))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    if not devices:
        raise ScenarioError("scenario.devices: at least one device required")
    return devices


def _parse_services(items: list, mac: MacId, where: str) -> list[ServiceRecord]:
    records: list[ServiceRecord] = []
    ids: set[int] = set()
    for j, obj in enumerate(items):
        swhere = f"{where}.services[{j}]"
        if not isinstance(obj, dict):
            raise ScenarioError(f"{swhere}: expected an object")
        _check_keys(obj, _SERVICE_KEYS, swhere)
        sid = _expect(obj, "id", int, swhere)
        if sid in ids:
            raise ScenarioError(f"{swhere}.id: duplicate service id {sid}")
        ids.add(sid)
        try:
            url = ConnectionUrl(
                scheme=_expect(obj, "scheme", str, swhere, default="http"),
                mac=mac,
                channel=_expect(obj, "channel", int, swhere, default=1),
                path=_expect(obj, "path", str, swhere, default=""))
            records.append(ServiceRecord(sid, _expect(obj, "name", str, swhere), url))
        except ValueError as exc:
            raise ScenarioError(f"{swhere}: {exc}") from None
    return records


def _parse_roster(obj: dict) -> Roster:
    where = "scenario.roster"
    _check_keys(obj, _ROSTER_KEYS, where)
    members = _expect(obj, "members", list, where)
    macs = []
    for i, m in enumerate(members):
        if not isinstance(m, str):
            raise ScenarioError(f"{where}.members[{i}]: expected a MAC string")
        macs.append(_parse_mac(m, f"{where}.members[{i}]"))
    if len(set(macs)) != len(macs):
        raise ScenarioError(f"{where}.members: duplicate MACs")
    try:
        return Roster(
            course_id=_expect(obj, "course_id", str, where),
            members=frozenset(macs),
            course_start=_expect(obj, "course_start", int, where),
            **_given(obj, _ROSTER_TYPES, where),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_file(obj: dict) -> tuple[str, bytes | None, str | None]:
    where = "scenario.file"
    _check_keys(obj, _FILE_KEYS, where)
    text = _expect(obj, "text", str, where, default=None)
    hex_text = _expect(obj, "hex", str, where, default=None)
    path = _expect(obj, "path", str, where, default=None)
    if sum(x is not None for x in (text, hex_text, path)) > 1:
        raise ScenarioError(f"{where}: give exactly one of text, hex, path")
    payload: bytes | None = None
    if text is not None:
        payload = text.encode("utf-8")
    elif hex_text is not None:
        try:
            payload = bytes.fromhex(hex_text)
        except ValueError:
            raise ScenarioError(f"{where}.hex: not valid hex") from None
    default_name = os.path.basename(path) if path else StepConfig.file_name
    name = _expect(obj, "name", str, where, default=default_name)
    if not name:
        raise ScenarioError(f"{where}.name: must be non-empty")
    try:
        fits = first_frame_capacity(name, DEFAULT_MAX_PACKET) >= 0
    except ProtocolError as exc:
        raise ScenarioError(f"{where}.name: {exc}") from None
    if not fits:
        raise ScenarioError(f"{where}.name: too long for a "
                            f"{DEFAULT_MAX_PACKET}-byte packet")
    return name, payload, path


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; errors carry field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: parse error: {exc.msg}") from exc
    return parse_scenario(data, base_dir=os.path.dirname(os.path.abspath(path)))


def shipped_fixture_path(name: str) -> str:
    """Filesystem path of a fixture shipped inside the package."""
    if not name.endswith(".scn"):
        name += ".scn"
    ref = resources.files("pidsim") / "fixtures" / name
    if not ref.is_file():
        raise ScenarioError(f"no shipped fixture named {name}")
    return str(ref)


def shipped_fixture_names() -> list[str]:
    ref = resources.files("pidsim") / "fixtures"
    return sorted(p.name[:-4] for p in ref.iterdir() if p.name.endswith(".scn"))
