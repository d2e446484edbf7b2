"""Scenario files: strict JSON schema, validation, and world construction.

A scenario is a JSON document (conventionally ``*.scn``) gated by
``schema_version``.  Each of its blocks has one table of its fields and
their JSON types, and ``_fields`` checks a block against it in one pass:
unknown keys anywhere are an error so that typos never silently change a
run, ``notes`` is allowed in every block, every number must be finite and
every string encodable as UTF-8.
The full schema is documented in the README.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

from .errors import ProtocolError, ScenarioError
from .metrics import CourseUsage
from .obexlite import DEFAULT_MAX_PACKET, first_frame_capacity
from .pidctl import DEFAULT_INQUIRY_INTERVAL, Roster, StepConfig
from .sdp import ServiceRecord
from .simnet import MacId, RadioDevice, RadioParams, SimTime, SimWorld

SCHEMA_VERSION = 1

# One table per block: each field with its JSON type(s).  A field left out
# or set to null is not returned by ``_fields``, so its default holds.
_SCENARIO = {"schema_version": int, "mode": str, "seed": int, "local": str,
             "radio": dict, "loss_probability": (int, float), "devices": list,
             "roster": dict, "file": dict, "inquiry_interval": int,
             "step_target": str, "usage": dict}
_RADIO = {"range_m": (int, float), "inquiry_duration": int,
          "service_search_per_device": int, "link_rate_bps": int,
          "session_overhead": int}
_DEVICE = {"mac": str, "name": str, "position": list, "services": list,
           "powered": bool, "discoverable": bool, "arrival": int,
           "departure": int, "refuse_push": bool, "drop_transfers": int}
# A coordinate's JSON types, and the bound a float can hold.
_COORD = (int, float)
_COORD_MAX = sys.float_info.max
_SERVICE = {"id": int, "name": str, "channel": int, "path": str, "scheme": str}
_ROSTER = {"course_id": str, "members": list, "course_start": int,
           "window_before": int, "window_after": int, "late_cutoff": int,
           "max_retries": int}
_FILE = {"name": str, "text": str, "hex": str, "path": str}
_USAGE = {"students": int, "pages_per_week": int, "weeks": int}


def _fields(obj, spec: dict, where: str, required=()) -> dict:
    """The fields that block ``obj`` sets to a non-null value, read against
    ``spec`` in one pass: unknown keys and missing ``required`` ones are
    refused first, then any value of the wrong type.  A bool never counts as
    int or float, a float must be finite, a string must be encodable as
    UTF-8 (a lone surrogate such as JSON's ``"\\ud800"`` is not), and a
    required field set to null is refused as mistyped."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    if not obj.keys() <= spec.keys():
        unknown = sorted(set(obj).difference(spec, ("notes",)))
        if unknown:
            raise ScenarioError(f"{where}: unknown field(s): {', '.join(unknown)}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing required field {key!r}")
    found = {}
    for key, value in obj.items():
        # A value of its field's one exact type needs no other check, unless
        # it is a string that is not ASCII.
        kind = type(value)
        if spec.get(key) is kind and (kind is not str or value.isascii()):
            found[key] = value
            continue
        if value is None and key not in required or key == "notes":
            continue
        types = spec[key]
        is_bool = type(value) is bool
        if is_bool and types is not bool or not isinstance(value, types):
            expected = " or ".join(t.__name__ for t in
                                   (types if isinstance(types, tuple) else (types,)))
            got = "a boolean" if is_bool else type(value).__name__
            raise ScenarioError(f"{where}.{key}: expected {expected}, got {got}")
        if type(value) is float and not math.isfinite(value):
            raise ScenarioError(f"{where}.{key}: expected a finite number")
        if type(value) is str and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ScenarioError(f"{where}.{key}: not encodable as UTF-8") from None
        found[key] = value
    return found


def _checked(where: str, make, *args, **kw):
    """``make(*args, **kw)``, its ValueError reported against ``where``."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


@dataclass
class Scenario:
    """A parsed scenario.  ``devices`` are templates: every world gets its
    own copies, so one Scenario can be run under many seeds."""

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
        services list and an empty inbox.  The templates were checked when
        parsed, so the copies are built from checked parts and no MAC is
        checked again.  Each scripted arrival and departure is queued as
        data, not as a closure."""
        world = SimWorld(seed=seed, params=self.radio,
                         loss_probability=self.loss_probability)
        add = world.add_device
        copy = RadioDevice._from_checked
        for t in self.devices:
            add(copy(t.mac, t.friendly_name, t.position, list(t.services),
                     t.powered, t.discoverable, t.arrival, t.departure,
                     t.refuse_push, t.drop_transfers))
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
    f = _fields(data, _SCENARIO, "scenario",
                required=("schema_version", "mode", "devices", "local"))
    if f["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario.schema_version: {f['schema_version']} not supported "
            f"(this build understands {SCHEMA_VERSION})")
    mode = f["mode"]
    if mode not in ("stepped", "proactive"):
        raise ScenarioError(f"scenario.mode: must be stepped or proactive, got {mode!r}")

    radio = _checked("scenario.radio", RadioParams,
                     **_fields(f.get("radio", {}), _RADIO, "scenario.radio"))

    loss = float(f.get("loss_probability", 0.0))
    if not 0.0 <= loss <= 1.0:
        raise ScenarioError("scenario.loss_probability: must be within [0, 1]")

    devices = _parse_devices(f["devices"])
    local = _checked("scenario.local", MacId, f["local"])
    local_dev = devices.get(local)
    if local_dev is None:
        raise ScenarioError(f"scenario.local: {local} is not in the device list")
    # A stepped walkthrough reports a powered-off client at step 1; a
    # proactive run cannot start an inquiry from it at all.
    if mode == "proactive" and not local_dev.powered:
        raise ScenarioError(f"scenario.local: initiator {local} is powered off")

    roster = _parse_roster(f["roster"]) if "roster" in f else None
    if mode == "proactive" and roster is None:
        raise ScenarioError("scenario.roster: required for proactive mode")

    file_name, payload, file_path = _parse_file(f.get("file", {}))
    if file_path is not None:
        file_path = os.path.join(base_dir, file_path)

    interval = f.get("inquiry_interval", DEFAULT_INQUIRY_INTERVAL)
    if interval <= 0:
        raise ScenarioError("scenario.inquiry_interval: must be positive")

    step_target = None
    if "step_target" in f:
        step_target = _checked("scenario.step_target", MacId, f["step_target"])

    usage = None
    if "usage" in f:
        u = _fields(f["usage"], _USAGE, "scenario.usage", required=_USAGE)
        usage = _checked("scenario.usage", CourseUsage,
                         u["students"], u["pages_per_week"], u["weeks"])

    return Scenario(
        mode=mode, local=local, devices=list(devices.values()), seed=f.get("seed"),
        radio=radio, loss_probability=loss, roster=roster,
        file_name=file_name, file_payload=payload, file_path=file_path,
        inquiry_interval=interval, step_target=step_target, usage=usage)


def _parse_devices(items: list) -> dict[MacId, RadioDevice]:
    devices: dict[MacId, RadioDevice] = {}
    make = RadioDevice._from_checked
    for i, obj in enumerate(items):
        where = f"scenario.devices[{i}]"
        f = _fields(obj, _DEVICE, where, required=("mac", "name", "position"))
        try:
            mac = MacId(f["mac"])
        except ValueError as exc:
            raise ScenarioError(f"{where}.mac: {exc}") from None
        if mac in devices:
            raise ScenarioError(f"{where}.mac: duplicate MAC {mac}")
        pos = f["position"]
        if len(pos) != 2:
            raise ScenarioError(f"{where}.position: expected [x, y] in meters")
        # The bound also refuses NaN, infinities and ints too large for a
        # float; a bool is refused like in every other number field.
        x, y = pos
        if not (type(x) in _COORD and abs(x) <= _COORD_MAX
                and type(y) in _COORD and abs(y) <= _COORD_MAX):
            raise ScenarioError(f"{where}.position: expected [x, y] in meters")
        get = f.get
        services = _parse_services(get("services", ()), mac, where)
        try:
            devices[mac] = make(mac, f["name"], (float(x), float(y)), services,
                                get("powered", True), get("discoverable", True),
                                get("arrival", 0), get("departure"),
                                get("refuse_push", False),
                                get("drop_transfers", 0))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    if not devices:
        raise ScenarioError("scenario.devices: at least one device required")
    return devices


def _parse_services(items: list, mac: MacId, where: str) -> list[ServiceRecord]:
    records: dict[int, ServiceRecord] = {}
    make = ServiceRecord._from_checked
    for j, obj in enumerate(items):
        swhere = f"{where}.services[{j}]"
        f = _fields(obj, _SERVICE, swhere, required=("id", "name"))
        sid = f["id"]
        if sid in records:
            raise ScenarioError(f"{swhere}.id: duplicate service id {sid}")
        get = f.get
        try:
            records[sid] = make(sid, f["name"], get("scheme", "http"), mac,
                                get("channel", 1), get("path", ""))
        except ValueError as exc:
            raise ScenarioError(f"{swhere}: {exc}") from None
    return list(records.values())


def _parse_roster(obj: dict) -> Roster:
    where = "scenario.roster"
    f = _fields(obj, _ROSTER, where,
                required=("members", "course_id", "course_start"))
    macs = []
    for i, m in enumerate(f["members"]):
        if not isinstance(m, str):
            raise ScenarioError(f"{where}.members[{i}]: expected a MAC string")
        try:
            macs.append(MacId(m))
        except ValueError as exc:
            raise ScenarioError(f"{where}.members[{i}]: {exc}") from None
    members = f["members"] = frozenset(macs)
    if len(members) != len(macs):
        raise ScenarioError(f"{where}.members: duplicate MACs")
    return _checked(where, Roster._from_checked, **f)


def _parse_file(obj: dict) -> tuple[str, bytes | None, str | None]:
    where = "scenario.file"
    f = _fields(obj, _FILE, where)
    if len(f.keys() & {"text", "hex", "path"}) > 1:
        raise ScenarioError(f"{where}: give exactly one of text, hex, path")
    payload: bytes | None = None
    if "text" in f:
        payload = f["text"].encode("utf-8")
    elif "hex" in f:
        try:
            payload = bytes.fromhex(f["hex"])
        except ValueError:
            raise ScenarioError(f"{where}.hex: not valid hex") from None
    path = f.get("path")
    name = f.get("name", os.path.basename(path) if path else StepConfig.file_name)
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
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: parse error: not UTF-8 (byte {exc.start})") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: parse error: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError(f"{path}: parse error: nesting too deep") from None
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
