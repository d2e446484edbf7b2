"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import random
import time

import pytest

from pidsim.cli import main as cli_main
from pidsim.metrics import (
    CourseUsage,
    campus_pages,
    pages_per_course,
    pages_to_reams,
    pages_to_trees,
)
from pidsim.obexlite import (
    CONTINUE,
    SUCCESS,
    Body,
    ConnectInfo,
    ConnectionId,
    EndOfBody,
    Length,
    Name,
    ObexFrame,
    ObexServer,
    decode_frame,
    encode_frame,
    put_frames,
)
from pidsim.pidctl import (
    Roster,
    StepConfig,
    run_proactive,
    run_stepped,
)
from pidsim.scenario import load_scenario, shipped_fixture_names, shipped_fixture_path
from pidsim.simnet import MacId, SimWorld

from .conftest import LOCAL, ftp_record, make_device, make_world, mac
from .reference_obex import reference_decode
from .test_obexlite import GOLDEN, _plain


def _report(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    for text, passed in checks:
        assert passed, f"criterion {number} ({label}): {text}"


FIG6_DEVICES = {
    MacId("000761571B00"): "Dell BT keyboard",
    MacId("0007616110B1"): "Dell BT Mouse",
    MacId("00150810BE00"): "Interlink VP6600 Media Remote Control",
    MacId("00164410697A"): "DELL BH200",
    MacId("00179A235EDD"): "EB-LAPTOP-D400",
}
LAPTOP = MacId("00179A235EDD")


def test_criterion_1_fig6_stepped_reproduction():
    scenario = load_scenario(shipped_fixture_path("fig6_classroom"))
    world = scenario.build_world(scenario.seed)
    started = time.perf_counter()
    report = run_stepped(world, StepConfig(
        local=scenario.local, file_name=scenario.file_name,
        payload=scenario.file_payload))
    elapsed = time.perf_counter() - started

    counts = sorted(len(v) for v in report.catalog.services.values())
    name, payload = scenario.resolve_payload()
    _report(1, "five-device stepped walkthrough", [
        ("exactly 5 devices discovered", len(report.discovered) == 5),
        ("published names and MACs", dict(report.discovered) == FIG6_DEVICES),
        ("service counts 1/4/7 on exactly 3 devices", counts == [1, 4, 7]),
        ("exactly one file-transfer target, the laptop",
         list(report.ftp_targets) == [LAPTOP]),
        ("file delivered to it",
         report.delivered_to == LAPTOP
         and world.device(LAPTOP).inbox.get(name) == payload),
        ("under one second wall time", elapsed < 1.0),
    ])


def test_criterion_2_live_test_reproduction():
    scenario = load_scenario(shipped_fixture_path("live_test"))
    world = scenario.build_world(scenario.seed)
    roster = scenario.roster
    started = time.perf_counter()
    report = run_proactive(world, roster, scenario.resolve_payload(),
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)
    elapsed = time.perf_counter() - started

    dummy = MacId("0019E3A20008")
    visitor = MacId("00A0C9B10001")
    _report(2, "classroom window run", [
        ("delivered = 7", report.delivered_count == 7),
        ("dummy outcome = no-ftp-service",
         report.outcome_of(dummy) == "no-ftp-service"),
        ("non-member outcome = non-member",
         report.outcome_of(visitor) == "non-member"),
        ("non-member got nothing", world.device(visitor).inbox == {}),
        ("eight-minute window overlapping course start",
         roster.window_end - roster.window_start == 480_000
         and roster.window_start < roster.course_start < roster.window_end),
        ("under one second wall time", elapsed < 1.0),
    ])


def test_criterion_3_savings_arithmetic(capsys):
    checks = [
        ("54 pages per week", pages_per_course(CourseUsage(18, 3, 1)) == 54),
        ("918 pages per course", pages_per_course(CourseUsage(18, 3, 17)) == 918),
        ("367,200 campus pages", campus_pages(800, "1/4", 1836) == 367_200),
        ("708 reams", pages_to_reams(367_200) == 708),
        ("44 trees", pages_to_trees(367_200) == 44),
        ("8,300 pages = 16 reams = 1 tree",
         pages_to_reams(8_300) == 16 and pages_to_trees(8_300) == 1),
    ]
    # the same figures through the command-line surface
    cli_main(["metrics", "--students", "18", "--pages", "3", "--weeks", "17"])
    course_out = capsys.readouterr().out
    cli_main(["metrics", "--campus", "800", "--fraction", "1/4",
              "--pages-each", "1836"])
    campus_out = capsys.readouterr().out
    cli_main(["metrics", "--pages-total", "8300"])
    ream_out = capsys.readouterr().out
    checks += [
        ("metrics command: course figures",
         "pages_per_week=54" in course_out and "pages=918" in course_out),
        ("metrics command: campus figures",
         all(s in campus_out for s in ("pages=367200", "reams=708", "trees=44"))),
        ("metrics command: ream/tree identity",
         "reams=16" in ream_out and "trees=1" in ream_out),
    ]
    with capsys.disabled():
        _report(3, "published savings figures, exact integers", checks)


def _random_frame(rng: random.Random) -> ObexFrame:
    opcode = rng.choice([0x80, 0x81, 0x02, 0x82, 0x90, 0xA0, 0xC0, 0xC3])
    headers = []
    for _ in range(rng.randrange(0, 5)):
        kind = rng.randrange(5)
        if kind == 0:
            text = "".join(chr(rng.randrange(32, 127))
                           for _ in range(rng.randrange(0, 24)))
            headers.append(Name(text))
        elif kind == 1:
            headers.append(Length(rng.randrange(0, 2**32)))
        elif kind == 2:
            headers.append(Body(rng.randbytes(rng.randrange(0, 80))))
        elif kind == 3:
            headers.append(EndOfBody(rng.randbytes(rng.randrange(0, 80))))
        else:
            headers.append(ConnectionId(rng.randrange(0, 2**32)))
    connect = None
    if opcode == 0x80:
        connect = ConnectInfo(rng.randrange(256), rng.randrange(256),
                              rng.randrange(65_536))
    return ObexFrame(opcode, tuple(headers), connect)


def test_criterion_4_codec_properties():
    rng = random.Random(20_090_705)
    mismatches = 0
    for i in range(10_000):
        frame = _random_frame(rng)
        raw = encode_frame(frame)
        decoded, rest = decode_frame(raw)
        if decoded != frame or rest != b"":
            mismatches += 1
        if i % 500 == 0:  # periodic independent cross-check
            plain, _ = reference_decode(raw)
            assert plain == _plain(frame)

    max_packet = 1024
    device = make_device(mac(1))
    server = ObexServer(device)
    reassembly_ok = True
    data_rng = random.Random(4)
    for size in range(0, 4 * max_packet + 1):
        payload = data_rng.randbytes(size)
        frames = put_frames("blob.bin", payload, max_packet)
        codes = [decode_frame(server.serve_push(encode_frame(f)))[0].opcode
                 for f in frames]
        if codes[:-1] != [CONTINUE] * (len(frames) - 1) or codes[-1] != SUCCESS:
            reassembly_ok = False
            break
        if device.inbox["blob.bin"] != payload:
            reassembly_ok = False
            break

    golden_ok = all(encode_frame(frame) == bytes.fromhex(hex_text)
                    for hex_text, frame in GOLDEN)
    connect_golden = encode_frame(ObexFrame(0x80, (), ConnectInfo()))

    _report(4, "codec bijection, reassembly, golden frames", [
        ("decode . encode identity over 10,000 frames", mismatches == 0),
        ("reassembly equality for sizes 0..4x max packet", reassembly_ok),
        ("golden hex fixtures byte-exact", golden_ok),
        ("hand-derived CONNECT bytes",
         connect_golden == bytes.fromhex("80000710000400")),
    ])


def test_criterion_5_piconet_cap_with_eight_plus_members():
    members = [mac(i) for i in range(1, 10)]  # nine eligible at once
    world = make_world(n_others=9, seed=6, ftp=True)
    roster = Roster(course_id="NCP-101", members=frozenset(members),
                    course_start=240_000)
    report = run_proactive(world, roster, ("cpi.txt", b"x" * 64), local=LOCAL)

    # replay the log and track concurrent slaves per master
    active: dict[str, set[str]] = {}
    peak = 0
    cap_ok = True
    for event in world.log:
        fields = dict(event.fields)
        if event.name == "link_connected":
            slaves = active.setdefault(fields["master"], set())
            slaves.add(fields["slave"])
            peak = max(peak, len(slaves))
            cap_ok = cap_ok and len(slaves) <= 7
        elif event.name == "link_closed":
            active.get(fields["master"], set()).discard(fields["slave"])

    _report(5, "sequential delivery respects the seven-slave cap", [
        ("never more than 7 concurrent slaves", cap_ok and peak <= 7),
        ("all nine members eventually served",
         report.delivered_count == 9
         and set(report.delivered_macs()) == set(members)),
    ])


def _strip_timing(log_text: str) -> list[str]:
    stripped = []
    for line in log_text.splitlines():
        parts = line.split(" ", 2)
        assert parts[0].startswith("t=") and parts[1].startswith("seq=")
        stripped.append(parts[2])
    return sorted(stripped)


def _delivered_set(path: str, seed: int | None):
    scenario = load_scenario(path)
    world = scenario.build_world(seed if seed is not None else scenario.seed)
    if scenario.mode == "stepped":
        report = run_stepped(world, StepConfig(
            local=scenario.local, file_name=scenario.file_name,
            payload=scenario.file_payload))
        delivered = {report.delivered_to} - {None}
    else:
        report = run_proactive(world, scenario.roster,
                               scenario.resolve_payload(),
                               inquiry_interval=scenario.inquiry_interval,
                               local=scenario.local)
        delivered = set(report.delivered_macs())
    return world.render_log(), delivered


def test_criterion_6_determinism_across_fixtures():
    checks = []
    for name in shipped_fixture_names():
        path = shipped_fixture_path(name)
        log_a, delivered_a = _delivered_set(path, None)
        log_b, delivered_b = _delivered_set(path, None)
        checks.append((f"{name}: same seed, byte-identical logs",
                       log_a == log_b))
        log_c, delivered_c = _delivered_set(path, 101)
        log_d, delivered_d = _delivered_set(path, 202)
        checks.append((f"{name}: different seeds change the log",
                       log_c != log_d))
        checks.append((f"{name}: different seeds differ only in timing/order",
                       _strip_timing(log_c) == _strip_timing(log_d)))
        checks.append((f"{name}: identical delivered sets across seeds",
                       delivered_a == delivered_c == delivered_d))
    _report(6, "determinism over shipped fixtures", checks)


def _random_proactive_case(case: int):
    rng = random.Random(778_000 + case)
    world = SimWorld(seed=case)
    world.add_device(make_device(LOCAL, "PID-CLIENT", 0.0, 0.0))
    members = set()
    ftp_macs = set()
    arrivals = {}
    n = rng.randint(1, 14)
    for i in range(1, n + 1):
        m = mac(i)
        is_member = rng.random() < 0.6
        has_ftp = rng.random() < 0.7
        arrival = rng.choice([0, 0, 0, rng.randrange(0, 520_000)])
        services = [ftp_record(m)] if has_ftp else []
        world.add_device(make_device(m, f"dev-{i:02d}", 1.0 + 0.4 * i, 0.0,
                                     arrival=arrival, services=services))
        arrivals[m] = arrival
        if is_member:
            members.add(m)
        if has_ftp:
            ftp_macs.add(m)
    if rng.random() < 0.3:
        members.add(mac(99))  # roster entry with no matching device
        arrivals[mac(99)] = None
    roster = Roster(course_id=f"case-{case}", members=frozenset(members),
                    course_start=240_000)
    return world, roster, ftp_macs, arrivals


def test_criterion_7_randomized_exactly_once_with_oracle():
    interval = 30_000
    worst_iteration = 16_000 + 14 * 2_000 + 14 * 101  # inquiry+search+pushes
    guaranteed_by = 480_000 - worst_iteration - interval

    for case in range(100):
        world, roster, ftp_macs, arrivals = _random_proactive_case(case)
        report = run_proactive(world, roster, ("cpi.txt", b"packet"),
                               inquiry_interval=interval, local=LOCAL)
        delivered = set(report.delivered_macs())

        # brute-force eligibility straight from the scenario
        must = {m for m in roster.members
                if m in ftp_macs and arrivals.get(m) is not None
                and arrivals[m] <= guaranteed_by}
        may = {m for m in roster.members
               if m in ftp_macs and arrivals.get(m) is not None
               and arrivals[m] < roster.window_end + 16_000}
        assert must <= delivered <= may, f"case {case}"

        # exclusion, exactly-once, conservation, termination
        assert delivered <= roster.members, f"case {case}"
        assert all(m in ftp_macs for m in delivered), f"case {case}"
        completions = [e for e in world.log if e.name == "transfer_completed"]
        done_macs = [dict(e.fields)["mac"] for e in completions]
        assert len(done_macs) == len(set(done_macs)) == len(delivered)
        assert (report.delivered_count + report.skipped_count
                + report.pending_count) == len(roster.members), f"case {case}"
        assert world.now <= roster.window_end + worst_iteration, f"case {case}"
        max_iterations = roster.window_end // interval + 2
        assert len(world.log) <= max_iterations * (6 * 15 + 10), f"case {case}"

    _report(7, "100 randomized runs against the brute-force oracle",
            [("all cases satisfied the oracle and the invariants", True)])


def test_criterion_8_late_policy():
    scenario = load_scenario(shipped_fixture_path("late_arrival"))
    late_mac = MacId("0019E3A20002")

    world = scenario.build_world(scenario.seed)
    report = run_proactive(world, scenario.roster, scenario.resolve_payload(),
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)

    no_cutoff = dataclasses.replace(scenario.roster, late_cutoff=None)
    world2 = scenario.build_world(scenario.seed)
    report2 = run_proactive(world2, no_cutoff, scenario.resolve_payload(),
                            inquiry_interval=scenario.inquiry_interval,
                            local=scenario.local)

    _report(8, "late cutoff policy", [
        ("late arriver marked late, not served",
         report.outcome_of(late_mac) == "late"
         and late_mac not in report.delivered_macs()
         and world.device(late_mac).inbox == {}),
        ("removing the cutoff serves the same member",
         late_mac in report2.delivered_macs()),
    ])
