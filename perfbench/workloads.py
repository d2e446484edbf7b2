"""Deterministic workload generator for the pidsim benchmark.

A workload seed picks one of ``SLOTS`` corpus slots (``seed % SLOTS``).  A
slot fixes one scenario file, one payload file and ``JOBS_PER_SLOT`` sim
seeds, all drawn from stdlib ``random`` seeded by (workload, slot).  The
corpus is finite so that every (workload, slot, sim seed) job has a log and
report digest recorded in ``digests.json``.  Counts (devices, members,
departures, refusals) are fixed per workload; only identities, positions
and times vary between slots, so every slot asks for the same work.
"""

from __future__ import annotations

import json
import math
import os
import random

SLOTS = 16
JOBS_PER_SLOT = 4
LOCAL_MAC = "001122334455"

FTP_SERVICE = {"id": 1, "name": "File Transfer Service", "channel": 9, "path": "ftp/"}
OTHER_SERVICE = {"id": 2, "name": "Serial Port", "channel": 3, "path": "spp/"}

# Every count below is exact for every slot.  ``why`` is the one-line reason
# the workload exists; BENCHMARK.json carries the same sentence.
WORKLOADS: dict[str, dict] = {
    "crowd_churn": {
        "why": ("~4000 devices arriving and departing through a 480 s window; "
                "inquiry fan-out, the event loop, service search and the "
                "per-MAC bookkeeping dominate, the push path does not"),
        "devices": 4000,
        "members": 3000,
        "after_window": 600,     # arrive after the window closes: stay pending
        "departing": 1200,
        "no_ftp_members": 150,
        "refusing": 0,
        "dropping": 0,
        "out_of_range": 0,
        "loss_probability": 0.0,
        "late_cutoff": None,
        "payload_bytes": 300,
        "radio": {"range_m": 30.0, "inquiry_duration": 4000,
                  "service_search_per_device": 20,
                  "link_rate_bps": 3_000_000, "session_overhead": 10},
        "inquiry_interval": 20_000,
        "arrival_span": (0, 450_000),
        "all_members_delivered": False,
    },
    "bulk_push": {
        "why": ("32 members take a ~1 MB payload with no loss, departure or "
                "refusal; frame chunking, the codec and the push session "
                "dominate, inquiry fan-out does not"),
        "devices": 40,
        "members": 32,
        "after_window": 0,
        "departing": 0,
        "no_ftp_members": 0,
        "refusing": 0,
        "dropping": 0,
        "out_of_range": 0,
        "loss_probability": 0.0,
        "late_cutoff": None,
        "payload_bytes": 1_000_000,
        "radio": {"range_m": 10.0, "inquiry_duration": 10_000,
                  "service_search_per_device": 1_000,
                  "link_rate_bps": 3_000_000, "session_overhead": 100},
        "inquiry_interval": 30_000,
        "arrival_span": (0, 60_000),
        # Lossless and everyone present: the delivered set is every member,
        # whatever the sim seed.
        "all_members_delivered": True,
    },
    "lossy_roster": {
        "why": ("~600 devices, seeded loss, scripted drops, refusals, members "
                "without file transfer and a late cutoff with a 64 KB payload; "
                "short pushes, retries and both failure paths"),
        "devices": 600,
        "members": 420,
        "after_window": 0,
        "departing": 90,
        "no_ftp_members": 42,
        "refusing": 60,
        "dropping": 60,
        "out_of_range": 60,
        "loss_probability": 0.15,
        "late_cutoff": 360_000,
        "payload_bytes": 65_536,
        "radio": {"range_m": 10.0, "inquiry_duration": 4000,
                  "service_search_per_device": 50,
                  "link_rate_bps": 24_000_000, "session_overhead": 20},
        "inquiry_interval": 20_000,
        "arrival_span": (0, 420_000),
        "all_members_delivered": False,
    },
}

COURSE_START = 240_000
WINDOW_HALF = 240_000


def slot_of(seed: int) -> int:
    return seed % SLOTS


def sim_seeds(workload: str, slot: int) -> list[int]:
    rng = random.Random(f"pidsim-bench:{workload}:{slot}:sim")
    return [rng.randrange(2**31) for _ in range(JOBS_PER_SLOT)]


def _macs(rng: random.Random, n: int) -> list[str]:
    seen = {LOCAL_MAC}
    out = []
    while len(out) < n:
        mac = f"{rng.getrandbits(48):012X}"
        if mac not in seen:
            seen.add(mac)
            out.append(mac)
    return out


def _position(rng: random.Random, r_min: float, r_max: float) -> list[float]:
    r = rng.uniform(r_min, r_max)
    a = rng.uniform(0.0, 2 * math.pi)
    return [round(r * math.cos(a), 3), round(r * math.sin(a), 3)]


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n times in [lo, hi), one in each of n equal strata, in random order.

    Every slot then gets the same spread of times, not only the same mean,
    so the work a job does (late members, departures mid-window) barely
    moves between slots.
    """
    step = (hi - lo) / max(n, 1)
    times = [lo + int((i + rng.random()) * step) for i in range(n)]
    rng.shuffle(times)
    return times


def build_scenario(workload: str, slot: int, payload_file: str) -> dict:
    """The scenario document for (workload, slot) as a JSON-ready dict."""
    p = WORKLOADS[workload]
    rng = random.Random(f"pidsim-bench:{workload}:{slot}")
    macs = _macs(rng, p["devices"])
    members = set(rng.sample(macs, p["members"]))
    # Disjoint role draws keep every count exact.
    roles_pool = list(macs)
    rng.shuffle(roles_pool)

    def take(k: int, pool: list[str]) -> set[str]:
        picked, rest = pool[:k], pool[k:]
        pool[:] = rest
        return set(picked)

    after_window = take(p["after_window"], roles_pool)
    out_of_range = take(p["out_of_range"], roles_pool)
    departing = take(p["departing"], roles_pool)
    member_pool = [m for m in roles_pool if m in members]
    rng.shuffle(member_pool)
    no_ftp = take(p["no_ftp_members"], member_pool)
    refusing = take(p["refusing"], member_pool)
    dropping = take(p["dropping"], member_pool)

    window_end = COURSE_START + WINDOW_HALF
    arrival = dict(zip(sorted(after_window), _stratified(
        rng, len(after_window), window_end + 1, window_end + 120_000)))
    for group in (members, set(macs) - members):
        # A fifth of each group is there from the start; the rest arrive
        # spread over arrival_span.
        present = sorted(group - after_window)
        rng.shuffle(present)
        at_start = len(present) // 5
        arrival.update((mac, 0) for mac in present[:at_start])
        arrival.update(zip(present[at_start:], _stratified(
            rng, len(present) - at_start, *p["arrival_span"])))
    stay = dict(zip(sorted(departing), _stratified(
        rng, len(departing), 20_000, 240_000)))

    range_m = p["radio"]["range_m"]
    devices = [{"mac": LOCAL_MAC, "name": "PID-CLIENT", "position": [0.0, 0.0]}]
    for i, mac in enumerate(macs):
        dev: dict = {"mac": mac, "name": f"dev-{i:05d}", "arrival": arrival[mac]}
        if mac in out_of_range:
            dev["position"] = _position(rng, range_m * 1.2, range_m * 2.0)
        else:
            dev["position"] = _position(rng, 0.5, range_m * 0.95)
        if mac in departing:
            dev["departure"] = arrival[mac] + stay[mac]
        if mac in refusing:
            dev["refuse_push"] = True
        if mac in dropping:
            dev["drop_transfers"] = 1 + i % 2
        if mac in no_ftp:
            dev["services"] = [OTHER_SERVICE] if i % 2 else []
        elif mac in members or rng.random() < 0.5:
            dev["services"] = [FTP_SERVICE, OTHER_SERVICE]
        devices.append(dev)
    rng.shuffle(devices)

    roster = {"course_id": f"BENCH-{workload}-{slot}", "members": sorted(members),
              "course_start": COURSE_START, "window_before": WINDOW_HALF,
              "window_after": WINDOW_HALF, "max_retries": 3}
    if p["late_cutoff"] is not None:
        roster["late_cutoff"] = p["late_cutoff"]
    return {
        "schema_version": 1,
        "mode": "proactive",
        "local": LOCAL_MAC,
        "radio": p["radio"],
        "loss_probability": p["loss_probability"],
        "devices": devices,
        "roster": roster,
        "inquiry_interval": p["inquiry_interval"],
        "file": {"name": "handout.bin", "path": payload_file},
        "usage": {"students": p["members"], "pages_per_week": 3, "weeks": 17},
    }


def build_payload(workload: str, slot: int) -> bytes:
    rng = random.Random(f"pidsim-bench:{workload}:{slot}:payload")
    return rng.randbytes(WORKLOADS[workload]["payload_bytes"])


def write_slot(workload: str, slot: int, directory: str) -> str:
    """Write the slot's scenario and payload files; returns the .scn path."""
    payload_name = f"{workload}-{slot}.payload"
    with open(os.path.join(directory, payload_name), "wb") as fh:
        fh.write(build_payload(workload, slot))
    path = os.path.join(directory, f"{workload}-{slot}.scn")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(build_scenario(workload, slot, payload_name), fh)
    return path
