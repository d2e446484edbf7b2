"""Deterministic event-driven radio world.

Devices sit on a 2-D plane and take part in inquiry (neighbor discovery),
master/slave piconet links, and timed transfers.  All times are integer
milliseconds, every random draw comes from one seeded generator, and every
observable action lands in an append-only log, so a given (scenario, seed)
pair replays to the same log byte for byte.

The log's vocabulary is one table, ``EVENTS``, of event names and their
sorted keys; each row's line template is built once, at import.  ``emit``
refuses a line the table does not declare, and appends the row's id to one
list and ``t``, ``seq`` and the field values, in key order and not turned
into text, to one flat list, so a line adds nothing the GC counts.
``render_log`` formats the lines in blocks of a few thousand, one ``%``
over each block's joined templates and values, and ``world.log`` builds a
``LogEvent`` only for the line asked for.  Deferring the rendering is safe
only because every field value is an immutable ``str`` or ``int``.

The event queue holds only the arrivals and departures ``add_device``
queues and the actions callers ``schedule``.  An arrival or a departure is
queued as data, ``(time, seq, kind, mac)``, with no closure, so a world
of many devices adds no object for the cyclic GC to track; every event
fires in (time, insertion) order.  Inquiry, service search and
pushes are plain calls: each advances the clock through its own instants,
firing queued events on the way, and returns with its result.

Log line format (stable, used by golden tests)::

    t=<millis> seq=<n> ev=<event-name> key=value ...

with keys sorted alphabetically, one event per line, LF terminated.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import TYPE_CHECKING, Callable

from .errors import (
    OutOfRangeError,
    PiconetFullError,
    PoweredOffError,
    SimError,
    UnknownDeviceError,
)

if TYPE_CHECKING:
    from .sdp import ServiceRecord

# Milliseconds since scenario epoch.
SimTime = int

MAX_SLAVES = 7

# What a queued event does: emit ``device_arrived``, depart, or call an action.
_ARRIVAL, _DEPARTURE, _ACTION = range(3)

# Lines per ``%`` format in ``render_log``: ~170 KB of text per block.
_RENDER_BLOCK = 2048

_MAC_PATTERN = re.compile(r"[0-9A-F]{12}")

# Every line the log can hold: (event name, keys in sorted order).  A name
# logged with two key sets has a row for each.
EVENTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("device_arrived", ("mac",)),
    ("device_departed", ("mac",)),
    ("device_discovered", ("mac", "name")),
    ("inquiry_completed", ("count", "initiator", "macs")),
    ("inquiry_started", ("initiator",)),
    ("iteration_started", ("index",)),
    ("link_closed", ("master", "reason", "slave")),
    ("link_connected", ("master", "slave")),
    ("member_rejected", ("mac", "reason")),
    ("member_skipped", ("mac", "reason")),
    ("service_search_completed", ("mac", "services", "status")),
    ("service_search_completed", ("mac", "status")),
    ("services_discovered", ("count", "mac")),
    ("transfer_completed", ("bytes", "file", "frames", "mac")),
    ("transfer_failed", ("file", "mac", "reason")),
    ("transfer_started", ("bytes", "file", "mac")),
)

# Per shape id (a row of ``EVENTS``): the line template, and how many
# values a line of it adds to the flat log, ``t`` and ``seq`` included.
_TEMPLATES = ["t=%s seq=%s ev=" + name + "".join(f" {k}=%s" for k in keys)
              + "\n" for name, keys in EVENTS]
_WIDTHS = [2 + len(keys) for _, keys in EVENTS]
# (event name, key count) -> (shape id, getter of the values in key order
# as a tuple; ``itemgetter`` of a single key returns the value bare).
_SHAPES = {
    (name, len(keys)): (shape_id, operator.itemgetter(*keys) if len(keys) > 1
                        else lambda fields, key=keys[0]: (fields[key],))
    for shape_id, (name, keys) in enumerate(EVENTS)}
_DISCOVERED = EVENTS.index(("device_discovered", ("mac", "name")))


def MacId(value: str) -> str:
    """48-bit device address as exactly 12 uppercase hex digits.

    Validates ``value`` and returns it as a plain ``str``, which the cyclic
    GC never tracks; lowercase input is uppercased.  A value that is already
    canonical comes back as the same object, so the call is idempotent.
    Annotations keep the name ``MacId`` for such strings.
    """
    if type(value) is str and _MAC_PATTERN.fullmatch(value):
        return value
    text = str(value).upper()
    if not _MAC_PATTERN.fullmatch(text):
        raise ValueError(f"not a 12-hex-digit MAC: {value!r}")
    return text


@dataclass(frozen=True)
class RadioParams:
    """Tunable radio model: disc range, window lengths, link rate."""

    range_m: float = 10.0
    inquiry_duration: SimTime = 16_000
    service_search_per_device: SimTime = 2_000
    link_rate_bps: int = 3_000_000
    session_overhead: SimTime = 100

    def __post_init__(self) -> None:
        for name in ("range_m", "inquiry_duration", "service_search_per_device",
                     "link_rate_bps", "session_overhead"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class RadioDevice:
    """One simulated endpoint: identity, state, position, service records.

    ``arrival``/``departure`` script presence; a device takes part in
    discovery only while powered, discoverable, and present.  The presence
    window is fixed once the device is added to a world: ``add_device``
    queues its arrival and departure events then, and inquiry decides
    from it which answers to check at all and, for the initiator, from
    which queued event on it hears them.  ``powered``,
    ``discoverable`` and ``position`` may change at any time.
    """

    mac: MacId
    friendly_name: str
    position: tuple[float, float] = (0.0, 0.0)
    powered: bool = True
    discoverable: bool = True
    services: list["ServiceRecord"] = field(default_factory=list)
    arrival: SimTime = 0
    departure: SimTime | None = None
    refuse_push: bool = False
    drop_transfers: int = 0  # scripted link loss: first N pushes to this device fail
    inbox: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.mac = MacId(self.mac)
        self._check_window()

    def _check_window(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.departure is not None and self.departure <= self.arrival:
            raise ValueError("departure must be after arrival")

    @classmethod
    def _from_checked(cls, mac: MacId, friendly_name: str,
                      position: tuple[float, float],
                      services: list["ServiceRecord"], powered: bool = True,
                      discoverable: bool = True, arrival: SimTime = 0,
                      departure: SimTime | None = None,
                      refuse_push: bool = False,
                      drop_transfers: int = 0) -> RadioDevice:
        """The device the constructor builds from a MAC already canonical:
        the presence window is checked, the MAC is not checked again, and
        ``services`` is taken as given, not copied.  The fields are set in
        ``__init__``'s order, which keeps CPython's fast attribute layout."""
        device = object.__new__(cls)
        device.mac = mac
        device.friendly_name = friendly_name
        device.position = position
        device.powered = powered
        device.discoverable = discoverable
        device.services = services
        device.arrival = arrival
        device.departure = departure
        device.refuse_push = refuse_push
        device.drop_transfers = drop_transfers
        device.inbox = {}
        device._check_window()
        return device

    def present_at(self, t: SimTime) -> bool:
        if t < self.arrival:
            return False
        return self.departure is None or t < self.departure


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One logged world event; ``fields`` is rendered and key-sorted."""

    time: SimTime
    seq: int
    name: str
    fields: tuple[tuple[str, str], ...]

    def line(self) -> str:
        parts = [f"t={self.time}", f"seq={self.seq}", f"ev={self.name}"]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        return " ".join(parts)


@dataclass
class LinkHandle:
    master: MacId
    slave: MacId
    open: bool = True
    closed_reason: str | None = None


class EventLog(Sequence):
    """Read-only view of a world's event log, one ``LogEvent`` per line.

    The lines are held in the world's flat storage: an ``EVENTS`` row id per
    line and one list of every line's ``t, seq, values...``.  Where each
    line starts in that list is summed from its row's key count the first
    time a line is asked for, and kept.  ``len`` builds no event; indexing,
    slicing and iteration build each ``LogEvent`` as it is reached, so a
    ``LogEvent`` is a fresh object on every access.  A view equals a list
    of the same events.
    """

    __slots__ = ("_ids", "_values", "_starts")

    def __init__(self, ids: list[int], values: list[object]) -> None:
        self._ids = ids
        self._values = values
        self._starts = [0]  # where lines 0, 1, ... start in ``values``

    def __len__(self) -> int:
        return len(self._ids)

    def _event(self, seq: int) -> LogEvent:
        starts = self._starts
        if len(starts) <= seq + 1:  # lines logged since the last sum
            begin = starts.pop()
            starts.extend(accumulate(
                map(_WIDTHS.__getitem__, self._ids[len(starts):]),
                initial=begin))
        name, keys = EVENTS[self._ids[seq]]
        at = starts[seq]
        values = self._values
        rendered = map(str, values[at + 2:starts[seq + 1]])
        return LogEvent(values[at], seq, name, tuple(zip(keys, rendered)))

    def __getitem__(self, index):
        n = len(self._ids)
        if isinstance(index, slice):
            return [self._event(seq) for seq in range(*index.indices(n))]
        seq = operator.index(index)
        if seq < 0:
            seq += n
        if not 0 <= seq < n:
            raise IndexError("log index out of range")
        return self._event(seq)

    def __iter__(self):
        return map(self._event, range(len(self._ids)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class SimWorld:
    """The single-threaded event loop holding devices, links, and the log."""

    def __init__(self, seed: int = 0, params: RadioParams | None = None,
                 loss_probability: float = 0.0) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.now: SimTime = 0
        self.rng = random.Random(seed)
        self.params = params or RadioParams()
        self.loss_probability = loss_probability
        self.devices: dict[MacId, RadioDevice] = {}
        # Open links only, keyed (master, slave), in the order they opened.
        self.links: dict[tuple[MacId, MacId], LinkHandle] = {}
        # The log: a shape id per line, and all lines' t, seq, values flat.
        self._ids: list[int] = []
        self._values: list[object] = []
        self._last_time: float = -math.inf
        self._log = EventLog(self._ids, self._values)
        # Heap entries (time, insertion seq, kind, mac or action): an arrival
        # or departure is plain data, which the cyclic GC stops tracking.
        self._queue: list[tuple[SimTime, int, int, object]] = []
        self._sched_seq = 0
        # presence_windows(), cleared by add_device.
        self._windows: tuple[tuple[MacId, SimTime, float], ...] | None = None

    @property
    def log(self) -> EventLog:
        """Every event emitted so far, as a read-only sequence of ``LogEvent``."""
        return self._log

    # -- device registry -------------------------------------------------

    def add_device(self, device: RadioDevice) -> RadioDevice:
        """Register ``device`` and queue its arrival and departure.  A
        refused device (a duplicate MAC, or a departure already past) leaves
        the world as it was."""
        if device.mac in self.devices:
            raise ValueError(f"duplicate MAC {device.mac}")
        if device.departure is not None and device.departure < self.now:
            raise ValueError("cannot schedule in the past")
        self.devices[device.mac] = device
        self._windows = None
        if device.arrival > self.now:
            self._enqueue(device.arrival, _ARRIVAL, device.mac)
        if device.departure is not None:
            self._enqueue(device.departure, _DEPARTURE, device.mac)
        return device

    def presence_windows(self) -> tuple[tuple[MacId, SimTime, float], ...]:
        """``(mac, arrival, departure or inf)`` of every device, in MAC order."""
        if self._windows is None:
            windows = []
            for mac in sorted(self.devices):
                dev = self.devices[mac]
                end = math.inf if dev.departure is None else dev.departure
                windows.append((mac, dev.arrival, end))
            self._windows = tuple(windows)
        return self._windows

    def device(self, mac: MacId) -> RadioDevice:
        try:
            return self.devices[mac]
        except KeyError:
            raise UnknownDeviceError(f"no device with MAC {mac}") from None

    # -- event loop --------------------------------------------------------

    def schedule(self, at: SimTime, action: Callable[["SimWorld"], None]) -> None:
        self._enqueue(at, _ACTION, action)

    def _enqueue(self, at: SimTime, kind: int, arg: object) -> None:
        if at < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, (at, self._sched_seq, kind, arg))
        self._sched_seq += 1

    def emit(self, event_name: str, **fields: object) -> None:
        """Append one event at the current time to the log.

        The name and key count pick a row of ``EVENTS``; a line the table
        does not declare raises ``SimError`` and logs nothing.  The line is
        stored as the row's id plus ``t``, ``seq`` and the field values in
        key order, rendered only by ``render_log`` and ``log``.
        """
        now = self.now
        if now < self._last_time:
            raise AssertionError("event log went backwards in time")
        try:
            shape_id, getter = _SHAPES[event_name, len(fields)]
            row = getter(fields)
        except KeyError:
            raise SimError(f"undeclared {event_name}: {sorted(fields)}") from None
        self._last_time = now
        ids = self._ids
        values = self._values
        values += (now, len(ids))
        values += row
        ids.append(shape_id)

    def advance(self, until: SimTime) -> None:
        """Process every queued event with time <= until, in (time, insertion)
        order, then set the clock to ``until``."""
        if until < self.now:
            raise ValueError("cannot advance backwards")
        queue = self._queue
        while queue and queue[0][0] <= until:
            at, _, kind, arg = heapq.heappop(queue)
            self.now = at
            if kind == _ARRIVAL:
                self.emit("device_arrived", mac=arg)
            elif kind == _DEPARTURE:
                self._depart(arg)
            else:
                arg(self)
        self.now = until

    def render_log(self) -> str:
        """The whole log as text, keys sorted.

        Each block of ``_RENDER_BLOCK`` lines is one ``%`` format of its
        lines' templates over its slice of the flat values.  One format
        over the whole log grows its result, and copies the values, in
        buffers of megabytes; whether a later run in the same process
        reuses them depends on where the allocator put them, so peak RSS
        varied between identical runs.  Blocks keep every such buffer small.
        """
        values, ids = self._values, self._ids
        blocks = []
        at = 0
        for first in range(0, len(ids), _RENDER_BLOCK):
            block = ids[first:first + _RENDER_BLOCK]
            end = at + sum(map(_WIDTHS.__getitem__, block))
            blocks.append("".join(map(_TEMPLATES.__getitem__, block))
                          % tuple(values[at:end]))
            at = end
        return "".join(blocks)

    # -- piconet links -----------------------------------------------------

    def slaves_of(self, master: MacId) -> list[MacId]:
        """The slaves ``master`` holds open links to, in the order they opened."""
        return [s for m, s in self.links if m == master]

    def connect(self, master: MacId, slave: MacId) -> LinkHandle:
        """Attach ``slave`` to ``master``'s piconet and open a link."""
        if slave == master:
            raise SimError(f"{master} cannot link to itself")
        m_dev = self.device(master)
        s_dev = self.device(slave)
        for dev in (m_dev, s_dev):
            if not dev.powered:
                raise PoweredOffError(f"{dev.mac} is powered off")
            if not dev.present_at(self.now):
                raise OutOfRangeError(f"{dev.mac} is not present")
        if not in_range(m_dev, s_dev, self.params):
            raise OutOfRangeError(f"{slave} is out of range of {master}")
        if (master, slave) in self.links:
            raise SimError(f"{slave} is already a slave of {master}")
        if len(self.slaves_of(master)) >= MAX_SLAVES:
            raise PiconetFullError(
                f"piconet of {master} already has {MAX_SLAVES} slaves")
        link = LinkHandle(master, slave)
        self.links[master, slave] = link
        self.emit("link_connected", master=master, slave=slave)
        return link

    def disconnect(self, link: LinkHandle, reason: str = "disconnect") -> None:
        if not link.open:
            return
        link.open = False
        link.closed_reason = reason
        del self.links[link.master, link.slave]
        self.emit("link_closed", master=link.master, slave=link.slave, reason=reason)

    def _depart(self, mac: MacId) -> None:
        for link in [ln for key, ln in self.links.items() if mac in key]:
            self.disconnect(link, reason="departed")
        self.emit("device_departed", mac=mac)


# -- module-level operations ----------------------------------------------


def in_range(a: RadioDevice, b: RadioDevice, params: RadioParams) -> bool:
    return math.dist(a.position, b.position) <= params.range_m


def transfer_duration(nbytes: int, params: RadioParams) -> SimTime:
    """Session overhead plus payload air time, rounded up to whole ms."""
    if nbytes < 0:
        raise ValueError("byte count must be non-negative")
    bits = nbytes * 8
    return params.session_overhead + -(-bits * 1000 // params.link_rate_bps)


def start_inquiry(world: SimWorld, initiator: MacId) -> list[tuple[MacId, SimTime]]:
    """Run one inquiry from ``initiator``; return its discoveries as
    ``(mac, instant)`` pairs in (instant, MAC) order.

    Every other device gets one uniform answer instant inside
    (now, now+inquiry_duration], drawn in MAC order from the world RNG.
    Only a device present at its instant answers: its presence window is
    fixed once it is added, so a device that has not arrived yet or has
    left costs one draw and nothing more.  The answers are kept as two
    flat lists, instants and MACs, which add no object the GC counts, and
    visited by a stable sort on the instant, so ties stay in MAC order.

    Only a queued event can change a device's power, discoverability or
    position, so the answers are walked in quiet stretches: the world
    advances to an answer instant only when the queue head is due by it,
    which fires the head and everything else due on the way, and the
    initiator's power, its position and the radio range are read once per
    stretch.  Each answer is then checked as it stands at its instant, as
    if the clock had stopped there, and logged as a ``device_discovered``
    line without ``emit``'s lookup.  The call returns with the clock at
    the end of the window.
    """
    start = world.now
    duration = world.params.inquiry_duration
    ini = world.device(initiator)
    if not ini.powered:
        raise PoweredOffError(f"initiator {initiator} is powered off")
    world.emit("inquiry_started", initiator=initiator)
    # CPython's randrange(duration) inlined: draw bit_length bits, reject
    # values >= duration.  The same draws, so the same stream;
    # test_inquiry_draws_match_randrange fails first if CPython changes it.
    getrandbits = world.rng.getrandbits
    bits = duration.bit_length()
    instants = []
    macs = []
    for mac, arrival, departure in world.presence_windows():
        if mac == initiator:
            continue
        r = getrandbits(bits)
        while r >= duration:
            r = getrandbits(bits)
        at = start + 1 + r
        if arrival <= at < departure:
            instants.append(at)
            macs.append(mac)
    devices = world.devices
    ids = world._ids
    values = world._values
    dist = math.dist
    hit = bytearray(len(macs))  # per answer, in MAC order: discovered
    discovered = []
    queue = world._queue
    due = start  # no stretch read yet
    for k in sorted(range(len(instants)), key=instants.__getitem__):
        at = instants[k]
        if at >= due:
            # A new stretch: fire what is due by this answer, then read
            # what holds until the next queued event.  The initiator's
            # arrival and departure are queued events too.
            if queue and queue[0][0] <= at:
                world.advance(at)
            due = queue[0][0] if queue else math.inf
            live = ini.powered and ini.present_at(at)
            ini_pos = ini.position
            range_m = world.params.range_m
        if not live:
            continue
        mac = macs[k]
        dev = devices[mac]
        if dev.powered and dev.discoverable \
                and dist(ini_pos, dev.position) <= range_m:
            hit[k] = 1
            discovered.append((mac, at))
            # emit's append with the row pre-bound, stamped with the answer
            # instant: no line logged so far is later, and the clock and
            # ``_last_time`` catch up at ``inquiry_completed``.
            values += (at, len(ids), mac, dev.friendly_name)
            ids.append(_DISCOVERED)
    world.advance(start + duration)
    world.emit("inquiry_completed", initiator=initiator, count=len(discovered),
               macs=",".join(compress(macs, hit)))
    return discovered
