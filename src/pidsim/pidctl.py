"""Delivery controller: the stepped walkthrough and the proactive roster loop.

The stepped run mirrors a console demo (power check, names, inquiry,
service listing, one push).  The proactive run wraps the same machinery in
a timed loop: re-discover at an interval inside a window around course
start, verify roster membership, and push the file to every eligible
member exactly once, retrying link failures on later passes.

MACs are canonical here: ``Roster`` canonicalizes its members, and every
other MAC comes from the world or the scenario, which canonicalize theirs
where they enter.  Nothing below re-checks one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from .errors import OutOfRangeError, PiconetFullError, PoweredOffError
from .obexlite import PushSession, PutSequence, TransferOutcome
from .sdp import (
    ServiceCatalog,
    ServiceRecord,
    filter_ftp,
    search_services,
)
from .simnet import MacId, RadioParams, SimTime, SimWorld, start_inquiry

# Per-member report outcomes.
DELIVERED = "delivered"
NEVER_DISCOVERED = "never-discovered"
NO_FTP_SERVICE = "no-ftp-service"
LATE = "late"
REFUSED = "refused"
RETRIES_EXHAUSTED = "retries-exhausted"
PENDING = "pending"  # discovered, still undelivered when the window closed
NON_MEMBER = "non-member"  # discovered devices outside the roster

DEFAULT_WINDOW_HALF: SimTime = 240_000
DEFAULT_INQUIRY_INTERVAL: SimTime = 30_000


@dataclass(frozen=True)
class Roster:
    """Course membership plus the delivery window and late policy."""

    course_id: str
    members: frozenset[MacId]
    course_start: SimTime
    window_before: SimTime = DEFAULT_WINDOW_HALF
    window_after: SimTime = DEFAULT_WINDOW_HALF
    late_cutoff: SimTime | None = None
    max_retries: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "members",
                           frozenset(MacId(m) for m in self.members))
        if self.window_before < 0 or self.window_after < 0:
            raise ValueError("window halves must be non-negative")
        if self.course_start - self.window_before < 0:
            raise ValueError("window opens before the scenario epoch")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.late_cutoff is not None and not (
                self.window_start <= self.late_cutoff <= self.window_end):
            raise ValueError("late_cutoff must lie inside the delivery window")

    @classmethod
    def _from_checked(cls, members: frozenset[MacId], **fields) -> Roster:
        """The roster the constructor builds from members already canonical:
        the window and retries are checked, the members are not checked
        again."""
        roster = cls(members=frozenset(), **fields)
        object.__setattr__(roster, "members", members)
        return roster

    @property
    def window_start(self) -> SimTime:
        return self.course_start - self.window_before

    @property
    def window_end(self) -> SimTime:
        return self.course_start + self.window_after


@dataclass(frozen=True)
class MemberOutcome:
    mac: MacId
    outcome: str
    time: SimTime | None = None
    attempts: int = 0


@dataclass
class SessionState:
    """Mutable per-run bookkeeping.  ``close`` moves a member out of
    ``pending`` into ``closed`` exactly once, so the two stay disjoint and
    together cover the membership."""

    pending: set[MacId]
    attempts: dict[MacId, int] = field(default_factory=dict)
    first_seen: dict[MacId, SimTime] = field(default_factory=dict)
    closed: dict[MacId, MemberOutcome] = field(default_factory=dict)

    def close(self, mac: MacId, outcome: str, at: SimTime | None = None) -> None:
        self.pending.remove(mac)
        self.closed[mac] = MemberOutcome(mac, outcome, at,
                                         self.attempts.get(mac, 0))


@dataclass(frozen=True)
class IterationStats:
    index: int
    started_at: SimTime
    discovered: int
    newly_seen: int
    queried: int
    eligible: int
    attempted: int
    delivered: int


@dataclass
class DeliveryReport:
    """Per-session outcome: who got the file, who was skipped and why."""

    course_id: str
    members: tuple[MacId, ...]
    outcomes: dict[MacId, MemberOutcome]
    non_members: dict[MacId, SimTime]
    iterations: list[IterationStats]
    started_at: SimTime
    finished_at: SimTime

    @property
    def delivered_count(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.outcome == DELIVERED)

    @property
    def skipped_count(self) -> int:
        return sum(1 for o in self.outcomes.values()
                   if o.outcome not in (DELIVERED, NEVER_DISCOVERED, PENDING))

    @property
    def pending_count(self) -> int:
        return sum(1 for o in self.outcomes.values()
                   if o.outcome in (NEVER_DISCOVERED, PENDING))

    def delivered_macs(self) -> list[MacId]:
        return sorted(m for m, o in self.outcomes.items() if o.outcome == DELIVERED)

    def outcome_of(self, mac: MacId) -> str:
        if mac in self.outcomes:
            return self.outcomes[mac].outcome
        if mac in self.non_members:
            return NON_MEMBER
        raise KeyError(f"{mac} not covered by this report")

    def render_lines(self) -> list[str]:
        """Stable text form: one summary line, then members sorted by MAC,
        then discovered non-members, then per-iteration counters."""
        lines = [
            (f"report course={self.course_id} members={len(self.members)} "
             f"delivered={self.delivered_count} skipped={self.skipped_count} "
             f"pending={self.pending_count} start={self.started_at} "
             f"finish={self.finished_at}")
        ]
        for mac in self.members:
            o = self.outcomes[mac]
            line = f"member mac={mac} outcome={o.outcome}"
            if o.time is not None:
                line += f" t={o.time}"
            if o.attempts:
                line += f" attempts={o.attempts}"
            lines.append(line)
        for mac in sorted(self.non_members):
            lines.append(f"nonmember mac={mac} outcome={NON_MEMBER} "
                         f"first_seen={self.non_members[mac]}")
        for it in self.iterations:
            lines.append(
                f"iteration idx={it.index} start={it.started_at} "
                f"discovered={it.discovered} newly_seen={it.newly_seen} "
                f"queried={it.queried} eligible={it.eligible} "
                f"attempted={it.attempted} delivered={it.delivered}")
        return lines


def choose_push_target(ftp: set[MacId], state: SessionState) -> list[MacId]:
    """Pending members with a file-transfer record, in the order they were
    first discovered (ties by MAC); delivery walks this list.  Only members
    are ever queried, so ``ftp`` holds no one else, and ``run_proactive``
    drops a member from it once closed, so a pass walks only open ones."""
    eligible = [mac for mac in ftp if mac in state.pending]
    eligible.sort(key=lambda m: (state.first_seen[m], m))
    return eligible


def _attempt_push(world: SimWorld, local: MacId, target: MacId,
                  seq: PutSequence) -> TransferOutcome:
    """Open a link and push over it; status connect-failed when the link
    never opened."""
    try:
        link = world.connect(local, target)
    except (OutOfRangeError, PoweredOffError, PiconetFullError):
        world.emit("transfer_failed", mac=target, file=seq.name,
                   reason="connect-failed")
        return TransferOutcome("connect-failed", seq.name, seq.size, 0,
                               world.now, world.now)
    return PushSession(world, link).push_file(seq)


def run_proactive(world: SimWorld, roster: Roster, file: tuple[str, bytes],
                  params: RadioParams | None = None,
                  inquiry_interval: SimTime = DEFAULT_INQUIRY_INTERVAL,
                  *, local: MacId) -> DeliveryReport:
    """Run the delivery window: {inquire, query new members, filter, verify,
    push} on an interval until everyone pending is handled or time is up.

    Members are served exactly once; non-members are never served; link
    failures are retried on later passes up to the roster's retry budget.
    """
    seq = PutSequence.encode(*file)  # every attempt sends these frames
    if inquiry_interval <= 0:
        raise ValueError("inquiry_interval must be positive")
    # Kept only because perfbench/runner.py passes params=scenario.radio.
    if params is not None and params != world.params:
        raise ValueError("params must be None or world.params")
    world.device(local)  # fail fast on a missing client device

    state = SessionState(pending=set(roster.members))
    ftp: set[MacId] = set()  # open queried members with a file-transfer record
    non_members: dict[MacId, SimTime] = {}
    iterations: list[IterationStats] = []

    start = roster.window_start
    end = roster.window_end
    world.advance(max(world.now, start))
    next_start = world.now
    index = 0

    while state.pending:
        boundary = max(world.now, next_start)
        if boundary >= end:
            break
        world.advance(boundary)
        iter_started = world.now
        world.emit("iteration_started", index=index)

        discovered = start_inquiry(world, local)

        newly: list[MacId] = []
        for mac, seen_at in discovered:
            if mac in state.first_seen or mac in non_members:
                continue
            if mac in roster.members:
                state.first_seen[mac] = seen_at
                newly.append(mac)
            else:
                non_members[mac] = seen_at
                world.emit("member_rejected", mac=mac, reason=NON_MEMBER)

        for mac in sorted(newly):
            if roster.late_cutoff is not None \
                    and state.first_seen[mac] > roster.late_cutoff:
                state.close(mac, LATE)
                world.emit("member_skipped", mac=mac, reason=LATE)

        to_query = sorted(m for m in newly if m in state.pending)
        if to_query:
            catalog = search_services(world, local, to_query)
            answered = set(catalog.services) | set(catalog.empty)
            ftp.update(filter_ftp(catalog))
            for mac in to_query:
                if mac in answered and mac not in ftp:
                    state.close(mac, NO_FTP_SERVICE)
                    world.emit("member_skipped", mac=mac, reason=NO_FTP_SERVICE)

        targets = choose_push_target(ftp, state)
        delivered_now = 0
        for mac in targets:
            outcome = _attempt_push(world, local, mac, seq)
            if outcome.delivered:
                state.close(mac, DELIVERED, world.now)
                delivered_now += 1
            elif outcome.status == "refused":
                state.close(mac, REFUSED)
            else:
                state.attempts[mac] = state.attempts.get(mac, 0) + 1
                if state.attempts[mac] >= roster.max_retries:
                    state.close(mac, RETRIES_EXHAUSTED)
                    world.emit("member_skipped", mac=mac,
                               reason=RETRIES_EXHAUSTED)
            if mac not in state.pending:
                ftp.remove(mac)

        iterations.append(IterationStats(
            index, iter_started, len(discovered), len(newly),
            len(to_query), len(targets), len(targets), delivered_now))
        index += 1
        next_start = iter_started + inquiry_interval

    for mac in sorted(state.pending):  # still open when the window closed
        state.close(mac, PENDING if mac in state.first_seen else NEVER_DISCOVERED)
    members = tuple(sorted(roster.members))
    return DeliveryReport(
        course_id=roster.course_id,
        members=members,
        outcomes={mac: state.closed[mac] for mac in members},
        non_members=non_members,
        iterations=iterations,
        started_at=start,
        finished_at=world.now,
    )


# -- stepped walkthrough -------------------------------------------------


@dataclass
class StepConfig:
    """The walkthrough's inputs.  ``ask(prompt)`` returns the user's reply;
    None runs the walkthrough unattended."""

    local: MacId
    file_name: str = "cpi.txt"
    payload: bytes | None = None
    file_path: str | None = None
    target: MacId | None = None
    ask: Callable[[str], str] | None = None


@dataclass
class StepReport:
    lines: list[str] = field(default_factory=list)
    discovered: list[tuple[MacId, str]] = field(default_factory=list)
    catalog: ServiceCatalog | None = None
    ftp_targets: dict[MacId, ServiceRecord] = field(default_factory=dict)
    delivered_to: MacId | None = None
    outcome: TransferOutcome | None = None
    abort_reason: str | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def run_stepped(world: SimWorld, config: StepConfig) -> StepReport:
    """The eight-step console walkthrough: banner, power check, local
    identity, inquiry, device listing, service search, service listing,
    and one file push.  With ``config.ask`` set, each line is printed as it
    is said and ``ask`` prompts between steps and for the file path."""
    report = StepReport()

    def say(text: str) -> None:
        report.lines.append(text)
        if config.ask is not None:
            print(text)

    def pause() -> None:
        if config.ask is not None:
            config.ask("[enter to continue] ")

    local = config.local
    dev = world.device(local)

    say("***** Proactive Information Delivery: stepped walkthrough *****")
    pause()

    say("Step 1. Is the power on?")
    say(f"Power is {'on' if dev.powered else 'off'}")
    if not dev.powered:
        report.abort_reason = "local device is powered off"
        say("Aborting: local radio is powered off.")
        return report
    pause()

    say("Step 2. Local device name (this client):")
    say(dev.friendly_name)
    pause()

    say("Step 3. Local device address (this client):")
    say(str(local))
    pause()

    say("Step 4. Query for devices.")
    say("Starting device inquiry...")
    report.discovered = [(mac, world.device(mac).friendly_name)
                         for mac, _ in start_inquiry(world, local)]
    say(f"Inquiry complete; {len(report.discovered)} devices discovered")
    pause()

    say("Step 5. The following devices were discovered:")
    for i, (mac, name) in enumerate(report.discovered, start=1):
        say(f"Device {i}. {name} - MAC id: {mac}")
    pause()

    say("Step 6. Query the discovered devices for services offered.")
    say("Starting service inquiry...")
    catalog = search_services(world, local, [m for m, _ in report.discovered])
    report.catalog = catalog
    with_services = catalog.with_services()
    say(f"Service query complete; {len(with_services)} devices have services:")
    for mac in with_services:
        name = world.device(mac).friendly_name
        say(f"{name} - Number services: {len(catalog.services[mac])}")
    pause()

    say("Step 7. The following services were discovered:")
    for mac in with_services:
        say(world.device(mac).friendly_name)
        for record in catalog.services[mac]:
            say(f"Service {record.service_id}. {record.service_name} - "
                f"Connection URL: {record.connection_url.render()}")
    report.ftp_targets = filter_ftp(catalog)
    pause()

    say("Step 8. Transfer a file to a device.")
    if not report.ftp_targets:
        report.abort_reason = "no device offers the file-transfer service"
        say("No discovered device offers the file-transfer service; stopping.")
        return report

    file_name, payload, error = _resolve_step_file(config)
    if error is not None:
        report.abort_reason = error
        say(f"Error: {error}")
        return report

    target = config.target or min(report.ftp_targets)
    if target not in report.ftp_targets:
        report.abort_reason = f"target {target} offers no file-transfer service"
        say(f"Error: {report.abort_reason}")
        return report
    url = report.ftp_targets[target].connection_url
    say(f"Pushing {file_name!r} ({len(payload)} bytes) to "
        f"{world.device(target).friendly_name} via {url.render()}")
    outcome = _attempt_push(world, local, target,
                            PutSequence.encode(file_name, payload))
    report.outcome = outcome
    if outcome.delivered:
        report.delivered_to = target
        say(f"Transfer complete: {outcome.frames_sent} frames, "
            f"{outcome.duration} ms")
    else:
        report.abort_reason = outcome.status
        say(f"Transfer failed: {report.abort_reason}")
    return report


def _resolve_step_file(config: StepConfig) -> tuple[str, bytes, str | None]:
    """Work out (name, payload) for step 8; ``config.ask`` prompts for a
    path.  A bad path comes back as a clean error, never an exception."""
    path = config.file_path
    if config.ask is not None:
        prompt = f"File path [{path or 'inline payload'}]: "
        typed = config.ask(prompt).strip()
        if typed:
            path = typed
    if config.payload is not None and (path is None or path == config.file_path):
        return config.file_name, config.payload, None
    if path is None:
        return config.file_name, b"", "no file configured"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return config.file_name, b"", f"file-not-found: {path}"
    return os.path.basename(path), data, None
