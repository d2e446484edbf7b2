"""Frozen fault corpus: what the scenario parser makes of one fault at a time.

The cases start from ``BASE``, a proactive scenario with every block and
every optional field set.  Each case changes it in one way:

- every field of every block deleted, set to null and set to each JSON type
  in ``WRONG`` (a value of the right type is a case too);
- an unknown key and a ``notes`` key added to each block;
- one value fault from ``VALUE_FAULTS``: a bad MAC, a bad presence window,
  conflicting file sources, and so on.

``tests/data/scenario_faults.txt`` holds one line per case: its label, then
``ok`` and the parsed fields that differ from the base scenario's, or
``error`` and the ``ScenarioError`` message.  A change that alters a line
changes what ``validate`` accepts or what it says.  After an intended one,
rewrite the corpus with ``PYTHONPATH=src python -m tests.test_scenario_faults``
and say why in CHANGES.md.
"""

import copy
import dataclasses
import json
import os

from pidsim.errors import ScenarioError
from pidsim.scenario import parse_scenario

CORPUS = os.path.join(os.path.dirname(__file__), "data", "scenario_faults.txt")

LOCAL, PHONE, LAPTOP = "001122334455", "0019E3A20001", "0019E3A20002"

BASE = {
    "schema_version": 1,
    "mode": "proactive",
    "seed": 7,
    "local": LOCAL,
    "radio": {"range_m": 12.5, "inquiry_duration": 8000,
              "service_search_per_device": 1500, "link_rate_bps": 2_000_000,
              "session_overhead": 50},
    "loss_probability": 0.25,
    "devices": [
        {"mac": LOCAL, "name": "client", "position": [0, 0]},
        {"mac": PHONE, "name": "phone", "position": [3.5, -2], "powered": True,
         "discoverable": True, "arrival": 1000, "departure": 500_000,
         "refuse_push": True, "drop_transfers": 1,
         "services": [{"id": 4, "name": "File Transfer", "channel": 8001,
                       "path": "file-transfer/", "scheme": "http"}]},
        {"mac": LAPTOP, "name": "laptop", "position": [1, 2]},
    ],
    "roster": {"course_id": "NCP-101", "members": [PHONE, LAPTOP],
               "course_start": 240_000, "window_before": 200_000,
               "window_after": 240_000, "late_cutoff": 300_000,
               "max_retries": 2},
    "file": {"name": "cpi.txt", "text": "hello"},
    "inquiry_interval": 20_000,
    "step_target": PHONE,
    "usage": {"students": 18, "pages_per_week": 3, "weeks": 17},
}

# Each block, by its path in BASE, with every field the schema allows in it
# (``notes`` aside).  ``file.hex`` and ``file.path`` are not in BASE.
BLOCKS = {
    (): ["schema_version", "mode", "seed", "local", "radio",
         "loss_probability", "devices", "roster", "file", "inquiry_interval",
         "step_target", "usage"],
    ("radio",): ["range_m", "inquiry_duration", "service_search_per_device",
                 "link_rate_bps", "session_overhead"],
    ("devices", 1): ["mac", "name", "position", "services", "powered",
                     "discoverable", "arrival", "departure", "refuse_push",
                     "drop_transfers"],
    ("devices", 1, "services", 0): ["id", "name", "channel", "path", "scheme"],
    ("roster",): ["course_id", "members", "course_start", "window_before",
                  "window_after", "late_cutoff", "max_retries"],
    ("file",): ["name", "text", "hex", "path"],
    ("usage",): ["students", "pages_per_week", "weeks"],
}
# List elements that are swept through WRONG like a field.
ELEMENTS = [("devices", 1), ("devices", 1, "services", 0),
            ("roster", "members", 0), ("devices", 1, "position", 0)]
WRONG = ["s", 7, True, 1.5, [], {}]
DELETE = object()

VALUE_FAULTS = {
    "mac-bad": [(("devices", 1, "mac"), "NOT-A-MAC")],
    "mac-short": [(("devices", 1, "mac"), "0019E3A2000")],
    "mac-lowercase": [(("devices", 1, "mac"), PHONE.lower())],
    "mac-duplicate": [(("devices", 1, "mac"), LOCAL)],
    "mac-duplicate-by-case": [(("devices", 2, "mac"), PHONE.lower())],
    "local-bad": [(("local",), "XYZ")],
    "local-lowercase": [(("local",), LOCAL.lower())],
    "local-not-a-device": [(("local",), "00179A235EDD")],
    "local-powered-off": [(("devices", 0, "powered"), False)],
    "local-powered-off-stepped": [(("devices", 0, "powered"), False),
                                  (("mode",), "stepped")],
    "members-bad": [(("roster", "members", 0), "12")],
    "members-lowercase": [(("roster", "members", 0), PHONE.lower())],
    "members-duplicate": [(("roster", "members", 1), PHONE)],
    "members-duplicate-by-case": [(("roster", "members", 1), PHONE.lower())],
    "members-empty": [(("roster", "members"), [])],
    "members-not-a-device": [(("roster", "members", 1), "00179A235EDD")],
    "step_target-bad": [(("step_target",), "zz")],
    "step_target-lowercase": [(("step_target",), PHONE.lower())],
    "devices-empty": [(("devices",), [])],
    "position-short": [(("devices", 1, "position"), [1])],
    "position-long": [(("devices", 1, "position"), [1, 2, 3])],
    "position-empty": [(("devices", 1, "position"), [])],
    "position-bool": [(("devices", 1, "position"), [True, 1])],
    "position-nested": [(("devices", 1, "position"), [[1], 2])],
    "arrival-negative": [(("devices", 1, "arrival"), -1)],
    "departure-at-arrival": [(("devices", 1, "departure"), 1000)],
    "departure-before-arrival": [(("devices", 1, "departure"), 10)],
    "departure-without-arrival": [(("devices", 1, "arrival"), DELETE),
                                  (("devices", 1, "departure"), 0)],
    "drop_transfers-negative": [(("devices", 1, "drop_transfers"), -2)],
    "services-empty": [(("devices", 1, "services"), [])],
    "service-id-zero": [(("devices", 1, "services", 0, "id"), 0)],
    "service-id-duplicate": [(("devices", 1, "services", 1),
                              {"id": 4, "name": "again"})],
    "service-id-second": [(("devices", 1, "services", 1),
                           {"id": 5, "name": "Serial Port"})],
    "service-channel-zero": [(("devices", 1, "services", 0, "channel"), 0)],
    "service-channel-negative": [(("devices", 1, "services", 0, "channel"), -3)],
    "service-scheme-empty": [(("devices", 1, "services", 0, "scheme"), "")],
    "service-scheme-colon": [(("devices", 1, "services", 0, "scheme"), "a:b")],
    "service-scheme-slash": [(("devices", 1, "services", 0, "scheme"), "a/b")],
    "window-before-epoch": [(("roster", "window_before"), 250_000)],
    "window_before-negative": [(("roster", "window_before"), -1)],
    "window_after-negative": [(("roster", "window_after"), -1)],
    "window-zero": [(("roster", "window_before"), 0),
                    (("roster", "window_after"), 0),
                    (("roster", "late_cutoff"), 240_000)],
    "max_retries-zero": [(("roster", "max_retries"), 0)],
    "cutoff-before-window": [(("roster", "late_cutoff"), 39_999)],
    "cutoff-at-window-start": [(("roster", "late_cutoff"), 40_000)],
    "cutoff-at-window-end": [(("roster", "late_cutoff"), 480_000)],
    "cutoff-after-window": [(("roster", "late_cutoff"), 480_001)],
    "file-text-hex": [(("file", "hex"), "00")],
    "file-text-path": [(("file", "path"), "a.txt")],
    "file-hex-path": [(("file", "text"), DELETE), (("file", "hex"), "00"),
                      (("file", "path"), "a.txt")],
    "file-all-three": [(("file", "hex"), "00"), (("file", "path"), "a.txt")],
    "file-none": [(("file",), {})],
    "file-name-only": [(("file",), {"name": "x.bin"})],
    "file-hex": [(("file", "text"), DELETE), (("file", "hex"), "DEADbeef")],
    "file-hex-bad": [(("file", "text"), DELETE), (("file", "hex"), "zz")],
    "file-hex-odd": [(("file", "text"), DELETE), (("file", "hex"), "abc")],
    "file-path": [(("file",), {"path": "docs/week1.txt"})],
    "file-path-named": [(("file", "text"), DELETE),
                        (("file", "path"), "docs/week1.txt")],
    "file-path-dir": [(("file",), {"path": "docs/"})],
    "file-name-empty": [(("file", "name"), "")],
    "file-name-longest": [(("file", "name"), "x" * 1010)],
    "file-name-too-long": [(("file", "name"), "x" * 1011)],
    "file-name-far-too-long": [(("file", "name"), "x" * 1100)],
    "file-name-non-ascii": [(("file", "name"), "hé.txt")],
    "file-path-non-ascii": [(("file",), {"path": "docs/hé.txt"})],
    "loss-negative": [(("loss_probability",), -0.1)],
    "loss-above-one": [(("loss_probability",), 1.5)],
    "loss-one": [(("loss_probability",), 1)],
    "loss-zero": [(("loss_probability",), 0)],
    "interval-zero": [(("inquiry_interval",), 0)],
    "interval-negative": [(("inquiry_interval",), -5)],
    "range-zero": [(("radio", "range_m"), 0)],
    "range-negative": [(("radio", "range_m"), -1.5)],
    "inquiry_duration-zero": [(("radio", "inquiry_duration"), 0)],
    "link_rate-negative": [(("radio", "link_rate_bps"), -1)],
    "session_overhead-zero": [(("radio", "session_overhead"), 0)],
    "students-negative": [(("usage", "students"), -1)],
    "weeks-zero": [(("usage", "weeks"), 0)],
    "schema_version-2": [(("schema_version",), 2)],
    "schema_version-0": [(("schema_version",), 0)],
    "mode-bad": [(("mode",), "continuous")],
    "mode-empty": [(("mode",), "")],
    "mode-capitalised": [(("mode",), "Proactive")],
    "mode-stepped": [(("mode",), "stepped")],
    "mode-stepped-no-roster": [(("mode",), "stepped"), (("roster",), DELETE)],
    "roster-missing": [(("roster",), DELETE)],
    "root-list": [((), [])],
    "root-string": [((), "s")],
    "root-null": [((), None)],
}

# Scenario attributes shown for an ``ok`` case.
SHOWN = ("mode", "local", "seed", "radio", "loss_probability", "devices",
         "roster", "file_name", "file_payload", "file_path",
         "inquiry_interval", "step_target", "usage")


def _label(path: tuple) -> str:
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out.lstrip(".") or "<root>"


def _edit(data, path: tuple, value):
    """``data`` with the value at ``path`` replaced, or deleted."""
    if not path:
        return copy.deepcopy(value)
    data = copy.deepcopy(data)
    node = data
    for part in path[:-1]:
        node = node[part]
    if value is DELETE:
        del node[path[-1]]
    elif isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return data


def _get(data, path: tuple):
    for part in path:
        data = data[part]
    return data


def cases() -> list[tuple[str, object]]:
    """Every (label, scenario data) case, in corpus order."""
    out = [("base", BASE)]
    for block, keys in BLOCKS.items():
        for key in keys:
            path = block + (key,)
            name = _label(path)
            if key in _get(BASE, block):
                out.append((f"{name}=<deleted>", _edit(BASE, path, DELETE)))
            for value in [None] + WRONG:
                out.append((f"{name}={json.dumps(value)}",
                            _edit(BASE, path, value)))
        out.append((f"{_label(block + ('bogus',))}=1",
                    _edit(BASE, block + ("bogus",), 1)))
        out.append((f"{_label(block + ('notes',))}=\"n\"",
                    _edit(BASE, block + ("notes",), "n")))
    for path in ELEMENTS:
        for value in [None] + WRONG:
            out.append((f"{_label(path)}={json.dumps(value)}",
                        _edit(BASE, path, value)))
    for name, edits in VALUE_FAULTS.items():
        data = BASE
        for path, value in edits:
            data = _edit(data, path, value)
        out.append((name, data))
    return out


def _show(value) -> str:
    """A stable rendering: dataclasses field by field, sets sorted."""
    if dataclasses.is_dataclass(value):
        inner = ", ".join(f"{f.name}={_show(getattr(value, f.name))}"
                          for f in dataclasses.fields(value))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_show(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_show(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _entries(scenario) -> dict[str, str]:
    out = {}
    for name in SHOWN:
        value = getattr(scenario, name)
        if isinstance(value, list):
            for i, item in enumerate(value):
                out[f"{name}[{i}]"] = _show(item)
        else:
            out[name] = _show(value)
    return out


def corpus_lines() -> list[str]:
    base = _entries(parse_scenario(copy.deepcopy(BASE), base_dir="scn"))
    lines = []
    for label, data in cases():
        try:
            parsed = _entries(parse_scenario(data, base_dir="scn"))
        except ScenarioError as exc:
            lines.append(f"{label} error {exc}")
            continue
        if label == "base":
            changed = list(parsed.items())
        else:
            changed = [(k, parsed.get(k, "<absent>"))
                       for k in {**base, **parsed} if parsed.get(k) != base.get(k)]
        lines.append(" ".join([label, "ok"] + [f"{k}={v}" for k, v in changed]))
    return lines


def test_fault_corpus_matches_frozen_lines():
    lines = corpus_lines()
    assert len({line.split(" ", 1)[0] for line in lines}) == len(lines)
    with open(CORPUS, encoding="utf-8") as fh:
        frozen = fh.read().splitlines()
    differing = [f"- {old}\n+ {new}" for old, new in zip(frozen, lines)
                 if old != new]
    assert not differing, "\n".join(differing[:10])
    assert len(lines) == len(frozen)


if __name__ == "__main__":
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in corpus_lines()))
