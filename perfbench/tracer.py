"""Spans around pidsim's public calls, recorded from outside the program.

Each callable is wrapped at the binding its caller looks up: module
functions in the calling module (``pidsim.pidctl.start_inquiry``, not
``pidsim.simnet.start_inquiry``), methods on their class.  A span is
(name, start, end, parent span, job, value); ``value`` carries a size the
layer metrics need (frames returned, bytes encoded, devices queried).
Spans live in flat arrays while the run lasts and are written out once at
its end; self times and the derived counters come from ``analyse``.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

from pidsim import cli, obexlite, pidctl, scenario
from pidsim.obexlite import PUT, PUT_FINAL, ObexServer, PushSession
from pidsim.pidctl import DeliveryReport
from pidsim.scenario import Scenario
from pidsim.simnet import SimWorld

_ARRAYS = (("name", "H"), ("start", "q"), ("end", "q"), ("parent", "i"),
           ("job", "H"), ("value", "q"))


def _size(_args, result) -> int:
    return len(result)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self.counters: dict[int, Counter] = {}
        self.job = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, n: int = 1) -> None:
        self.counters.setdefault(self.job, Counter())[key] += n

    def _span(self, name: str, fn, note=None):
        nid = self._name_id(name)
        s = self.spans
        names, starts, ends, parents, jobs, values = (
            s["name"], s["start"], s["end"], s["parent"], s["job"], s["value"])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0)
            values.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                values[idx] = note(args, result)
            return result

        return wrapper

    # -- layer-specific notes ---------------------------------------------

    def _note_search(self, args, catalog) -> int:
        self.count("sdp.departed", len(catalog.departed))
        return len(args[2])

    def _note_encode(self, args, raw) -> int:
        if args[0].opcode in (PUT, PUT_FINAL):
            self.count("obexlite.put_frames_encoded")
        return len(raw)

    def _note_decode(self, args, _result) -> int:
        return len(args[0])

    def _note_push(self, _args, outcome) -> int:
        self.count(f"obexlite.pushes.{outcome.status}")
        return outcome.payload_bytes

    def _note_loop(self, _args, report) -> int:
        self.count("pidctl.iterations", len(report.iterations))
        self.count("pidctl.push_attempts",
                   sum(it.attempted for it in report.iterations))
        self.count("pidctl.delivered_by_iteration",
                   sum(it.delivered for it in report.iterations))
        self.count("pidctl.delivered", report.delivered_count)
        return report.delivered_count

    def _note_load(self, _args, scen) -> int:
        self.count("scenario.devices", len(scen.devices))
        return len(scen.devices)

    def _schedule(self, fn):
        inquiry = self._name_id("simnet.inquiry")
        span_names = self.spans["name"]
        stack = self._stack
        count = self.count

        def schedule(world, at, action):
            count("simnet.events_scheduled")
            if stack[-1] >= 0 and span_names[stack[-1]] == inquiry:
                count("simnet.inquiry_events_scheduled")

            def fired(w, _action=action):
                count("simnet.events_fired")
                _action(w)

            return fn(world, at, fired)

        return schedule

    # -- installation ------------------------------------------------------

    def bindings(self):
        """(owner, attribute, span name or None, note) for every wrapped call."""
        return [
            (pidctl, "start_inquiry", "simnet.inquiry", None),
            (SimWorld, "advance", "simnet.advance", None),
            (SimWorld, "check_invariants", "simnet.check_invariants", None),
            (SimWorld, "emit", "simnet.emit", None),
            (SimWorld, "connect", "simnet.connect", None),
            (SimWorld, "disconnect", "simnet.disconnect", None),
            (SimWorld, "schedule", None, None),
            (pidctl, "search_services", "sdp.search", self._note_search),
            (pidctl, "filter_ftp", "sdp.filter_ftp", None),
            (obexlite, "put_frames", "obexlite.put_frames", _size),
            (obexlite, "encode_frame", "obexlite.encode", self._note_encode),
            (obexlite, "decode_frame", "obexlite.decode", self._note_decode),
            (ObexServer, "serve_push", "obexlite.serve_push", None),
            (PushSession, "push_file", "obexlite.push_file", self._note_push),
            (PushSession, "connect", "obexlite.session", None),
            (PushSession, "disconnect", "obexlite.session", None),
            (pidctl, "run_proactive", "pidctl.loop", self._note_loop),
            (pidctl, "choose_push_target", "pidctl.choose_push_target", None),
            (scenario, "load_scenario", "scenario.load", self._note_load),
            (Scenario, "build_world", "scenario.build_world", None),
            (Scenario, "resolve_payload", "scenario.resolve_payload", None),
            (cli.RunArtifacts, "log_text", "cli.render", None),
            (cli.RunArtifacts, "report_text", "cli.render", None),
            (DeliveryReport, "render_lines", "cli.render", None),
        ]

    def install(self) -> None:
        for owner, attr, name, note in self.bindings():
            original = vars(owner).get(attr)
            if original is None:
                continue  # a later version dropped this call; its metrics read 0
            wrapped = (self._schedule(original) if name is None
                       else self._span(name, original, note))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, prefix: str) -> None:
        """Write the spans (``prefix.spans``) and names/counters (``prefix.json``)."""
        with open(prefix + ".spans", "wb") as fh:
            for key, _ in _ARRAYS:
                self.spans[key].tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "n": len(self.spans["start"]),
                       "counters": {str(j): dict(c)
                                    for j, c in self.counters.items()}}, fh)


def analyse(prefix: str) -> dict[int, dict[str, float]]:
    """Per job: ``<span>.self_ns``, ``<span>.calls``, ``<span>.value`` and
    the counters, from the files ``Tracer.write`` left at ``prefix``.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because every wrapper runs on one thread.
    """
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n"]
    cols = {}
    with open(prefix + ".spans", "rb") as fh:
        for key, code in _ARRAYS:
            cols[key] = array(code)
            cols[key].fromfile(fh, n)
    names, starts, ends = cols["name"], cols["start"], cols["end"]
    parents, jobs, values = cols["parent"], cols["job"], cols["value"]
    child = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[int, dict[str, float]] = {}
    for i in range(n):
        job = out.setdefault(jobs[i], Counter())
        name = meta["names"][names[i]]
        job[name + ".self_ns"] += ends[i] - starts[i] - child[i]
        job[name + ".calls"] += 1
        job[name + ".value"] += values[i]
    for j, counters in meta["counters"].items():
        out.setdefault(int(j), Counter()).update(counters)
    return out
