"""Controller: stepped walkthrough, proactive loop, roster policy."""

import dataclasses
import os
import tracemalloc

import pytest

from pidsim import obexlite, pidctl, sdp, simnet
from pidsim.obexlite import CONNECT, PUT, PUT_FINAL, ObexServer
from pidsim.errors import UnknownDeviceError
from pidsim.pidctl import (
    DELIVERED,
    LATE,
    NEVER_DISCOVERED,
    NO_FTP_SERVICE,
    PENDING,
    REFUSED,
    RETRIES_EXHAUSTED,
    MemberOutcome,
    Roster,
    SessionState,
    StepConfig,
    choose_push_target,
    run_proactive,
    run_stepped,
)
from pidsim.scenario import load_scenario, shipped_fixture_path

from .conftest import LOCAL, ftp_record, make_device, make_world, mac, plain_record

FILE = ("cpi.txt", b"course packet index\n")


def _roster(members, **kwargs):
    defaults = dict(course_id="NCP-101", course_start=240_000,
                    window_before=240_000, window_after=240_000)
    defaults.update(kwargs)
    return Roster(members=frozenset(members), **defaults)


# -- roster ------------------------------------------------------------------


def test_verify_member_basics():
    roster = _roster([mac(1), mac(2)])
    assert mac(1) in roster.members
    assert mac(9) not in roster.members


def test_verify_member_canonicalizes_case():
    roster = _roster(["0019e3a20001"])
    assert simnet.MacId("0019E3A20001") in roster.members
    assert simnet.MacId("0019e3a20001") in roster.members


def test_roster_canonicalizes_member_case():
    roster = _roster(["0019e3a20001", mac(2)])
    assert roster.members == {"0019E3A20001", mac(2)}
    with pytest.raises(ValueError):
        _roster(["0019e3a2000g"])


def test_roster_validation():
    with pytest.raises(ValueError):
        _roster([mac(1)], course_start=100_000)  # window opens before epoch
    with pytest.raises(ValueError):
        _roster([mac(1)], late_cutoff=700_000)  # outside the window
    with pytest.raises(ValueError):
        _roster([mac(1)], max_retries=0)
    assert _roster([mac(1)], max_retries=1).max_retries == 1


# -- choose_push_target ----------------------------------------------------------


def test_choose_push_target_orders_by_discovery_time_then_mac():
    state = SessionState(pending={mac(1), mac(2), mac(3)})
    state.first_seen = {mac(1): 3_000, mac(2): 2_000, mac(3): 2_000}
    targets = choose_push_target({mac(1), mac(2), mac(3)}, state)
    assert targets == [mac(2), mac(3), mac(1)]


def test_choose_push_target_excludes_closed_members():
    state = SessionState(pending={mac(1), mac(2), mac(3)})
    state.first_seen = {mac(1): 100, mac(2): 200, mac(3): 300}
    state.close(mac(1), DELIVERED, 5_000)
    state.close(mac(3), REFUSED)
    assert choose_push_target({mac(1), mac(2), mac(3)}, state) == [mac(2)]


def test_a_lossy_run_walks_only_open_members_and_targets_the_same(monkeypatch):
    """Over classroom200 (link loss, refusals, scripted drops), each pass
    hands ``choose_push_target`` only open members, and it returns the list
    it returns over every queried file-transfer member so far."""
    scenario = load_scenario(
        os.path.join(os.path.dirname(__file__), "data", "classroom200.scn"))
    w = scenario.build_world(0)
    queried = set()

    def recording(ftp, state):
        queried.update(ftp)
        assert ftp <= state.pending
        targets = choose_push_target(ftp, state)
        assert targets == choose_push_target(queried, state)
        return targets

    monkeypatch.setattr(pidctl, "choose_push_target", recording)
    report = run_proactive(w, scenario.roster, scenario.resolve_payload(),
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)
    closed = {m for m, o in report.outcomes.items()
              if o.outcome in (DELIVERED, REFUSED, RETRIES_EXHAUSTED)}
    assert closed <= queried and len(closed) > 80


# -- stepped walkthrough ----------------------------------------------------------


def _office_world(seed=8):
    w = make_world(n_others=0, seed=seed)
    w.add_device(make_device(mac(1), "keyboard", 1.0, 0.0))
    w.add_device(make_device(mac(2), "remote", 1.5, 0.0,
                             services=[plain_record(mac(2))]))
    w.add_device(make_device(mac(3), "laptop", 2.0, 0.0, services=[
        plain_record(mac(3), service_id=1, name="OBEX"),
        ftp_record(mac(3), service_id=4),
    ]))
    return w


def test_run_stepped_full_walkthrough():
    w = _office_world()
    report = run_stepped(w, StepConfig(local=LOCAL, file_name="cpi.txt",
                                       payload=b"hello"))
    assert not report.aborted
    assert len(report.discovered) == 3
    assert report.ftp_targets and list(report.ftp_targets) == [mac(3)]
    assert report.delivered_to == mac(3)
    assert w.device(mac(3)).inbox["cpi.txt"] == b"hello"
    assert any("3 devices discovered" in line for line in report.lines)


def test_run_stepped_alone_in_the_world():
    w = make_world(n_others=0)
    report = run_stepped(w, StepConfig(local=LOCAL, payload=b"x"))
    assert report.aborted
    assert report.abort_reason == "no device offers the file-transfer service"
    assert report.discovered == []


def test_run_stepped_power_off_aborts_at_step_one():
    w = _office_world()
    w.device(LOCAL).powered = False
    report = run_stepped(w, StepConfig(local=LOCAL, payload=b"x"))
    assert report.aborted
    assert report.abort_reason == "local device is powered off"
    assert report.discovered == []


def test_run_stepped_bad_file_path_reports_cleanly():
    w = _office_world()
    report = run_stepped(w, StepConfig(local=LOCAL,
                                       file_path="/nonexistent/cpi.txt"))
    assert report.aborted
    assert report.abort_reason.startswith("file-not-found")
    assert w.device(mac(3)).inbox == {}


def test_run_stepped_reads_file_from_path(tmp_path):
    payload_file = tmp_path / "notes.txt"
    payload_file.write_bytes(b"week one")
    w = _office_world()
    report = run_stepped(w, StepConfig(local=LOCAL,
                                       file_path=str(payload_file)))
    assert not report.aborted
    # receivers see the base name, not the sender's directory layout
    assert w.device(mac(3)).inbox == {"notes.txt": b"week one"}
    # an inline payload wins over the configured path, and a path typed at
    # the prompt that differs from the configured one wins over the payload
    w = _office_world()
    run_stepped(w, StepConfig(local=LOCAL, payload=b"inline",
                              file_path=str(payload_file)))
    assert w.device(mac(3)).inbox == {"cpi.txt": b"inline"}
    w = _office_world()

    def typed(prompt):
        return str(payload_file) if "File path" in prompt else ""

    run_stepped(w, StepConfig(local=LOCAL, payload=b"inline", ask=typed))
    assert w.device(mac(3)).inbox == {"notes.txt": b"week one"}


def test_run_stepped_interactive_pauses_and_prompts():
    w = _office_world()
    prompts = []

    def fake_input(prompt):
        prompts.append(prompt)
        return ""

    report = run_stepped(w, StepConfig(local=LOCAL, payload=b"x", ask=fake_input))
    assert not report.aborted
    assert sum("enter" in p for p in prompts) >= 7
    assert any("File path" in p for p in prompts)


# -- proactive loop ----------------------------------------------------------------


def _classroom(n_members=3, seed=5, **roster_kwargs):
    w = make_world(n_others=0, seed=seed)
    members = []
    for i in range(1, n_members + 1):
        m = mac(i)
        members.append(m)
        w.add_device(make_device(m, f"student-{i:02d}", 1.0 + 0.3 * i, 0.0,
                                 services=[ftp_record(m)]))
    roster = _roster(members, **roster_kwargs)
    return w, roster


def test_run_proactive_serves_every_member_once():
    w, roster = _classroom(n_members=5)
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.delivered_count == 5
    assert report.pending_count == 0
    assert [report.outcomes[m].outcome for m in report.members] == [DELIVERED] * 5
    for m in report.members:
        assert w.device(m).inbox == {FILE[0]: FILE[1]}
    # exactly once, confirmed from the event log
    completed = [e for e in w.log if e.name == "transfer_completed"]
    assert len(completed) == 5


def test_run_proactive_empty_roster_exits_immediately():
    w = make_world(n_others=2)
    roster = _roster([])
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.members == ()
    assert report.iterations == []
    assert report.delivered_count == 0


def test_run_proactive_never_discovered_member():
    w, roster = _classroom(n_members=2)
    ghost = mac(77)  # on the roster, never in the world
    roster = dataclasses.replace(roster,
                                 members=roster.members | {ghost})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[ghost].outcome == NEVER_DISCOVERED
    assert report.delivered_count == 2
    # the ghost keeps the loop alive until the timer exit
    assert report.iterations[-1].started_at >= roster.window_end - 30_000


def test_run_proactive_non_member_never_served():
    w, roster = _classroom(n_members=2)
    intruder = mac(66)
    w.add_device(make_device(intruder, "intruder", 3.0, 0.0,
                             services=[ftp_record(intruder)]))
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.delivered_count == 2
    assert intruder not in report.delivered_macs()
    assert report.outcome_of(intruder) == "non-member"
    assert w.device(intruder).inbox == {}


def test_run_proactive_no_ftp_member():
    w, roster = _classroom(n_members=2)
    dummy = mac(8)
    w.add_device(make_device(dummy, "dummy", 4.0, 0.0))
    roster = dataclasses.replace(roster, members=roster.members | {dummy})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[dummy].outcome == NO_FTP_SERVICE
    assert report.delivered_count == 2


def test_run_proactive_late_arrival_with_cutoff():
    w, roster = _classroom(n_members=1, late_cutoff=240_000)
    late = mac(2)
    w.add_device(make_device(late, "latecomer", 2.0, 0.0, arrival=300_000,
                             services=[ftp_record(late)]))
    roster = dataclasses.replace(roster, members=roster.members | {late})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[late].outcome == LATE
    assert late not in report.delivered_macs()
    assert w.device(late).inbox == {}


def test_a_member_first_seen_at_the_late_cutoff_is_not_late():
    # "late" is first seen after the cutoff: at it is still on time.
    w, roster = _classroom(n_members=1)
    run_proactive(w, roster, FILE, local=LOCAL)
    seen = next(e.time for e in w.log if e.name == "device_discovered"
                and dict(e.fields)["mac"] == mac(1))
    assert 0 < seen < 240_000
    for cutoff, outcome in ((seen, DELIVERED), (seen - 1, LATE)):
        w, roster = _classroom(n_members=1, late_cutoff=cutoff)
        report = run_proactive(w, roster, FILE, local=LOCAL)
        assert report.outcomes[mac(1)].outcome == outcome, cutoff
        assert (w.device(mac(1)).inbox == {}) == (outcome == LATE)


def test_run_proactive_leaves_only_open_links():
    scenario = load_scenario(shipped_fixture_path("late_arrival"))
    w = scenario.build_world(0)
    run_proactive(w, scenario.roster, scenario.resolve_payload(),
                  inquiry_interval=scenario.inquiry_interval,
                  local=scenario.local)
    assert any(e.name == "link_connected" for e in w.log)
    assert all(link.open for link in w.links.values())
    assert w.links == {}  # every push closes its link


def test_run_proactive_params_must_be_the_worlds():
    w, roster = _classroom(n_members=1)
    other = dataclasses.replace(w.params, range_m=w.params.range_m + 1)
    with pytest.raises(ValueError, match="world.params"):
        run_proactive(w, roster, FILE, params=other, local=LOCAL)
    assert list(w.log) == [] and w.now == 0

    same = dataclasses.replace(w.params)  # equal values, another object
    report = run_proactive(w, roster, FILE, params=same, local=LOCAL)
    assert report.delivered_count == 1


def test_run_proactive_late_arrival_without_cutoff_is_served():
    w, roster = _classroom(n_members=1)
    late = mac(2)
    w.add_device(make_device(late, "latecomer", 2.0, 0.0, arrival=300_000,
                             services=[ftp_record(late)]))
    roster = dataclasses.replace(roster, members=roster.members | {late})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[late].outcome == DELIVERED


def test_run_proactive_member_discovered_before_cutoff_served_after_it():
    # The cutoff gates discovery, not transfer completion: discovery lands
    # inside the first inquiry window (<= 16 s), the big payload finishes
    # well after the 20 s cutoff, and the member still counts as served.
    w, roster = _classroom(n_members=1, late_cutoff=20_000)
    report = run_proactive(w, roster, ("big.bin", bytes(3_750_000)),
                           local=LOCAL)
    assert report.outcomes[mac(1)].outcome == DELIVERED
    assert report.outcomes[mac(1)].time > 20_000


def test_run_proactive_refusing_member():
    w, roster = _classroom(n_members=2)
    w.device(mac(2)).refuse_push = True
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[mac(1)].outcome == DELIVERED
    assert report.outcomes[mac(2)].outcome == REFUSED
    assert w.device(mac(2)).inbox == {}


def _power_off(target):
    def action(world):
        world.device(target).powered = False
    return action


@pytest.mark.parametrize("refuse", [False, True], ids=["accepting", "refusing"])
def test_target_switched_off_mid_push_is_a_lost_link(refuse):
    """A refusing target's reply is due after the session overhead; one
    switched off before then once raised PoweredOffError out of the run."""
    w = simnet.SimWorld(seed=1)
    w.add_device(make_device(LOCAL, "PID-CLIENT", 0.0, 0.0))
    w.add_device(make_device(mac(1), "student", 1.0, 0.0,
                             services=[ftp_record(mac(1))], refuse_push=refuse))
    w.schedule(18_050, _power_off(mac(1)))
    report = run_proactive(w, Roster("c", {mac(1)}, course_start=240_000),
                           ("f.txt", b"x" * 10), local=LOCAL)
    assert report.outcomes[mac(1)] == MemberOutcome(mac(1), RETRIES_EXHAUSTED,
                                                    attempts=3)
    failed = [e for e in w.log if e.name == "transfer_failed"]
    assert [dict(e.fields)["reason"] for e in failed] == [
        "link-lost", "connect-failed", "connect-failed"]
    if refuse:  # lost when the refusal was due
        assert failed[0].time == 18_000 + w.params.session_overhead


def test_run_stepped_target_switched_off_before_refusing_is_a_lost_link():
    w = _office_world()
    w.device(mac(3)).refuse_push = True
    started = run_stepped(w, StepConfig(local=LOCAL, payload=b"x")).outcome.started_at
    w = _office_world()
    w.device(mac(3)).refuse_push = True
    w.schedule(started + 50, _power_off(mac(3)))
    report = run_stepped(w, StepConfig(local=LOCAL, payload=b"x"))
    assert report.outcome.status == "link-lost"
    assert report.lines[-1] == "Transfer failed: link-lost"


def test_run_proactive_retries_then_succeeds():
    w, roster = _classroom(n_members=1)
    w.device(mac(1)).drop_transfers = 2
    report = run_proactive(w, roster, FILE, local=LOCAL)
    out = report.outcomes[mac(1)]
    assert out.outcome == DELIVERED
    assert out.attempts == 2
    assert len(report.iterations) >= 3


def test_run_proactive_retries_exhausted():
    w, roster = _classroom(n_members=1, max_retries=3)
    w.device(mac(1)).drop_transfers = 99
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[mac(1)].outcome == RETRIES_EXHAUSTED
    assert report.outcomes[mac(1)].attempts == 3
    assert w.device(mac(1)).inbox == {}
    # a budget of one ends the member at its first failure
    w, roster = _classroom(n_members=1, max_retries=1)
    w.device(mac(1)).drop_transfers = 1
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert report.outcomes[mac(1)].outcome == RETRIES_EXHAUSTED
    assert report.outcomes[mac(1)].attempts == 1
    assert w.device(mac(1)).inbox == {}


def test_run_proactive_checks_its_arguments_before_encoding(monkeypatch):
    w, roster = _classroom(n_members=1)
    encoded = []
    monkeypatch.setattr(pidctl.PutSequence, "encode",
                        lambda *file: encoded.append(file))
    with pytest.raises(ValueError, match="inquiry_interval must be positive"):
        run_proactive(w, roster, FILE, inquiry_interval=0, local=LOCAL)
    with pytest.raises(ValueError, match="world.params"):
        run_proactive(w, roster, FILE, params=simnet.RadioParams(range_m=1.0),
                      local=LOCAL)
    with pytest.raises(UnknownDeviceError):
        run_proactive(w, roster, FILE, local=mac(99))
    assert encoded == [] and list(w.log) == [] and w.now == 0


def test_run_proactive_random_loss_injection():
    # certain loss: every started transfer is lost, retries exhaust,
    # nothing lands
    classroom, roster = _classroom(n_members=2)
    w = simnet.SimWorld(seed=5, loss_probability=1.0)
    for device in classroom.devices.values():
        w.add_device(device)
    report = run_proactive(w, roster, FILE, local=LOCAL)
    started = [e for e in w.log if e.name == "transfer_started"]
    ended = [dict(e.fields)["reason"] for e in w.log
             if e.name.startswith("transfer_") and e.name != "transfer_started"]
    assert len(started) == 2 * roster.max_retries
    assert ended == ["link-lost"] * len(started)
    assert report.delivered_count == 0
    assert all(o.outcome == RETRIES_EXHAUSTED for o in report.outcomes.values())
    assert all(w.device(m).inbox == {} for m in roster.members)
    # loss draws come from the world RNG, so a given seed replays exactly
    w1, r1 = _classroom(n_members=3, seed=21)
    w1.loss_probability = 0.5
    first = run_proactive(w1, r1, FILE, local=LOCAL).render_lines()
    w2, r2 = _classroom(n_members=3, seed=21)
    w2.loss_probability = 0.5
    assert run_proactive(w2, r2, FILE, local=LOCAL).render_lines() == first


def test_run_proactive_conservation():
    w, roster = _classroom(n_members=4)
    w.device(mac(2)).refuse_push = True
    w.device(mac(3)).drop_transfers = 99
    ghost = mac(55)
    roster = dataclasses.replace(roster, members=roster.members | {ghost})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    assert (report.delivered_count + report.skipped_count
            + report.pending_count) == len(report.members) == 5


def test_run_proactive_terminates_at_window_end():
    w, roster = _classroom(n_members=1)
    ghost = mac(55)
    roster = dataclasses.replace(roster, members=roster.members | {ghost})
    report = run_proactive(w, roster, FILE, local=LOCAL)
    # one maximal iteration beyond the window end at most
    assert report.finished_at <= roster.window_end + 62_000
    last_start = report.iterations[-1].started_at
    assert last_start < roster.window_end


def test_run_proactive_report_render_is_stable():
    w, roster = _classroom(n_members=2, seed=5)
    lines1 = run_proactive(w, roster, FILE, local=LOCAL).render_lines()
    w2, roster2 = _classroom(n_members=2, seed=5)
    lines2 = run_proactive(w2, roster2, FILE, local=LOCAL).render_lines()
    assert lines1 == lines2
    assert lines1[0].startswith("report course=NCP-101 members=2 delivered=2")


def test_stepped_and_proactive_agree_on_static_world():
    """On a static single-pass scenario the proactive loop serves exactly
    the file-transfer-capable devices that step 8 lists."""
    w1 = _office_world(seed=13)
    stepped = run_stepped(w1, StepConfig(local=LOCAL, payload=FILE[1]))
    candidates = set(stepped.ftp_targets)

    w2 = _office_world(seed=13)
    roster = _roster([mac(1), mac(2), mac(3)])
    proactive = run_proactive(w2, roster, FILE, local=LOCAL)
    assert set(proactive.delivered_macs()) == candidates


def _recording_encodes(monkeypatch):
    """(names ``wire_frames`` encodes, frames sent grouped by session)."""
    encoded, sessions = [], []

    def wire_frames(name, payload, max_packet, _wire=obexlite.wire_frames):
        encoded.append(name)
        return _wire(name, payload, max_packet)

    def serve_push(self, raw, _serve=ObexServer.serve_push):
        if raw[0] == CONNECT:
            sessions.append([])
        elif raw[0] in (PUT, PUT_FINAL):
            sessions[-1].append(raw)
        return _serve(self, raw)

    monkeypatch.setattr(obexlite, "wire_frames", wire_frames)
    monkeypatch.setattr(ObexServer, "serve_push", serve_push)
    return encoded, sessions


def test_run_proactive_encodes_the_file_once(monkeypatch):
    """Retries and a refusal replay one encoding: every attempt sends the
    same frame objects, from the start of the one sequence."""
    w, roster = _classroom(n_members=3)
    w.device(mac(1)).drop_transfers = 2
    w.device(mac(2)).refuse_push = True
    encoded, sessions = _recording_encodes(monkeypatch)
    report = run_proactive(w, roster, ("big.bin", bytes(5000)), local=LOCAL)
    assert [(report.outcomes[m].outcome, report.outcomes[m].attempts)
            for m in report.members] == [(DELIVERED, 2), (REFUSED, 0),
                                         (DELIVERED, 0)]
    assert encoded == ["big.bin"]
    assert len(sessions) == 5  # two drops, one refusal, two deliveries
    full = max(sessions, key=len)
    assert len(full) > 1
    assert sorted(map(len, sessions)) == [0, 0, 1, len(full), len(full)]
    for frames in sessions:
        assert all(sent is raw for sent, raw in zip(frames, full))


def test_run_stepped_encodes_the_file_once(monkeypatch):
    w = _office_world()
    encoded, sessions = _recording_encodes(monkeypatch)
    report = run_stepped(w, StepConfig(local=LOCAL, payload=bytes(5000)))
    assert report.delivered_to == mac(3)
    assert encoded == ["cpi.txt"] and len(sessions) == 1


def test_run_holds_one_encoding_not_one_per_member():
    """Traced memory of a run over a 256 KB payload: the members' inboxes,
    the one held sequence and a margin, not a copy per member."""
    members = 4
    payload = bytes(256 << 10)
    w, roster = _classroom(n_members=members)
    tracemalloc.start()
    try:
        report = run_proactive(w, roster, ("big.bin", payload), local=LOCAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.delivered_count == members
    assert peak < (members + 2) * len(payload)


def test_session_state_invariant_checks():
    state = SessionState(pending={mac(1), mac(2)})
    state.attempts[mac(1)] = 2
    state.close(mac(1), DELIVERED, 5)
    state.close(mac(2), LATE)
    assert state.closed == {mac(1): MemberOutcome(mac(1), DELIVERED, 5, 2),
                            mac(2): MemberOutcome(mac(2), LATE)}
    assert state.pending == set()
    with pytest.raises(KeyError):
        state.close(mac(1), DELIVERED, 6)  # closed exactly once
    with pytest.raises(KeyError):
        state.close(mac(1), LATE)  # no longer pending
    assert state.closed[mac(1)].time == 5


# -- MACs are canonicalized where they enter, never again ---------------------


def test_device_lookup_takes_the_canonical_mac():
    w = make_world(n_others=1)
    assert w.device(mac(1)).mac == mac(1)
    with pytest.raises(UnknownDeviceError):
        w.device(mac(1).lower())


def test_classroom_run_makes_no_mac_check_and_builds_no_log_event(monkeypatch):
    """The proactive loop re-validates no MAC and builds no ``LogEvent``
    while it runs: every MAC was canonicalized when the scenario was
    parsed, and nothing it calls hands events back."""
    path = os.path.join(os.path.dirname(__file__), "data", "classroom200.scn")
    scenario = load_scenario(path)
    w = scenario.build_world(0)
    file = scenario.resolve_payload()
    calls = {"MacId": 0, "LogEvent": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    check_mac = counting("MacId", simnet.MacId)
    for module in (simnet, sdp, pidctl):
        monkeypatch.setattr(module, "MacId", check_mac)
    monkeypatch.setattr(simnet, "LogEvent", counting("LogEvent", simnet.LogEvent))
    report = run_proactive(w, scenario.roster, file,
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)
    monkeypatch.undo()
    assert report.delivered_count > 0 and len(w.log) > 1_000
    assert calls == {"MacId": 0, "LogEvent": 0}


# -- a link that never opens ---------------------------------------------------


def _lines_with(world, text):
    return [line for line in world.render_log().splitlines() if text in line]


def _first_push(world):
    """(time, target) of the first transfer_started event in the log."""
    event = next(e for e in world.log if e.name == "transfer_started")
    return event.time, dict(event.fields)["mac"]


def _ftp_pair(departures=(), seed=5):
    """The local client plus members mac(1) and mac(2), both with FTP;
    ``departures`` maps a member to its departure time."""
    w = make_world(n_others=0, seed=seed)
    for i in (1, 2):
        w.add_device(make_device(mac(i), f"student-{i:02d}", 1.0 + 0.3 * i, 0.0,
                                 services=[ftp_record(mac(i))],
                                 departure=dict(departures).get(mac(i))))
    return w


def test_run_proactive_member_gone_before_its_connect_stays_pending():
    """B is discovered and queried, then departs while A's long push runs:
    B's link never opens, which costs one attempt and leaves B pending."""
    payload = ("big.bin", bytes(375_000))  # ~1.1 s on air
    roster = _roster([mac(1), mac(2)], course_start=0, window_before=0,
                     window_after=20_000)
    w = _ftp_pair()
    run_proactive(w, roster, payload, local=LOCAL)
    started, first = _first_push(w)
    second = mac(2) if first == mac(1) else mac(1)

    w = _ftp_pair({second: started + 1})
    report = run_proactive(w, roster, payload, local=LOCAL)
    assert report.outcomes[first].outcome == DELIVERED
    assert report.outcomes[second].outcome == PENDING
    assert report.outcomes[second].attempts == 1
    assert len(report.iterations) == 1
    assert _lines_with(w, f"transfer_failed file=big.bin mac={second} "
                          "reason=connect-failed")
    assert f"member mac={second} outcome=pending attempts=1" \
        in report.render_lines()
    assert w.device(second).inbox == {}


def test_run_stepped_target_gone_before_its_connect():
    """The target answers the service search first, then departs while a
    later device is queried: step 8 reports the link that never opened."""
    config = StepConfig(local=LOCAL, target=mac(1), payload=b"hello")
    w = _ftp_pair()
    run_stepped(w, config)
    queried = next(e.time for e in w.log if e.name == "service_search_completed"
                   and dict(e.fields)["mac"] == mac(1))

    w = _ftp_pair({mac(1): queried + 1})
    report = run_stepped(w, config)
    assert mac(1) in report.ftp_targets
    assert report.aborted and report.delivered_to is None
    assert report.abort_reason == "connect-failed"
    assert report.outcome.status == "connect-failed"
    assert report.outcome.frames_sent == 0 and report.outcome.duration == 0
    assert report.lines[-1] == "Transfer failed: connect-failed"
    assert _lines_with(w, f"transfer_failed file=cpi.txt mac={mac(1)} "
                          "reason=connect-failed")
    assert w.device(mac(1)).inbox == {}
