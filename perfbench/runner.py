"""Run one workload's jobs in a fresh process, timing and checking each.

A job is one scenario file under one sim seed, driven through the same
public calls ``pidsim.cli.execute_scenario`` makes for a proactive
scenario, split so that set-up can be timed on its own.  Run as a script
with a manifest written by ``run.py``; results go to ``<out>.result.json``
and, with tracing on, the spans to ``<out>.spans``/``<out>.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

from pidsim import cli, metrics, pidctl, scenario
from pidsim.simnet import SimWorld

TRANSFER_COMPLETED = "transfer_completed"
REFERENCE_ITERATIONS = 300_000


def reference_s() -> float:
    """Host seconds for a fixed arithmetic loop: how fast the host runs right
    now.  It allocates nothing and calls nothing, so pidsim cannot move it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


@dataclass
class JobResult:
    setup_s: float
    run_s: float
    world: SimWorld
    report: pidctl.DeliveryReport
    file: tuple[str, bytes]
    members: frozenset
    log: bytes
    report_text: bytes


def run_job(path: str, seed: int) -> JobResult:
    """load -> build -> resolve payload (set-up), simulate, render.

    Calls go through module attributes so a tracer's wrappers are seen.
    """
    t0 = time.perf_counter()
    scen = scenario.load_scenario(path)
    world = scen.build_world(seed)
    name, payload = scen.resolve_payload()
    t1 = time.perf_counter()
    lines = [f"scenario={os.path.basename(path)} mode={scen.mode} seed={seed}"]
    report = pidctl.run_proactive(world, scen.roster, (name, payload),
                                  params=scen.radio,
                                  inquiry_interval=scen.inquiry_interval,
                                  local=scen.local)
    lines.extend(report.render_lines())
    savings = None
    if scen.usage is not None:
        savings = metrics.savings_report(report, scen.usage)
        lines.extend(savings.render_lines())
    artifacts = cli.RunArtifacts(lines, world, report, savings)
    log = artifacts.log_text().encode("utf-8")
    report_text = artifacts.report_text().encode("utf-8")
    t2 = time.perf_counter()
    return JobResult(t1 - t0, t2 - t0, world, report, (name, payload),
                     scen.roster.members, log, report_text)


def digest_pair(log: bytes, report_text: bytes) -> dict[str, str]:
    return {"log": hashlib.sha256(log).hexdigest(),
            "report": hashlib.sha256(report_text).hexdigest()}


def check_job(result: JobResult, expected: dict[str, str] | None,
              all_members_delivered: bool) -> list[str]:
    """Every output check for one job; returns the failures, if any."""
    errors = []
    got = digest_pair(result.log, result.report_text)
    if expected is None:
        errors.append("no recorded digest")
    else:
        for kind in ("log", "report"):
            if got[kind] != expected[kind]:
                errors.append(f"{kind} sha256 {got[kind]} != recorded "
                              f"{expected[kind]}")
    name, payload = result.file
    delivered = set(result.report.delivered_macs())
    for mac, device in result.world.devices.items():
        want = {name: payload} if mac in delivered else {}
        if device.inbox != want:
            errors.append(f"inbox of {mac} does not hold exactly "
                          f"{'the payload' if want else 'nothing'}")
    completed = sum(1 for ev in result.world.log if ev.name == TRANSFER_COMPLETED)
    if completed != result.report.delivered_count:
        errors.append(f"{completed} {TRANSFER_COMPLETED} lines but "
                      f"{result.report.delivered_count} delivered")
    if all_members_delivered and delivered != set(result.members):
        errors.append(f"delivered set misses {len(result.members) - len(delivered)} "
                      "members on a lossless workload")
    return errors


def main(manifest_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        m = json.load(fh)
    seeds = m["sim_seeds"]
    tracer = None
    if m["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    min_pairs = len(seeds) if tracer else 3
    records = []
    start = time.perf_counter()
    k = 0
    while k < min_pairs or time.perf_counter() - start < m["seconds"]:
        seed = seeds[k % len(seeds)]
        modes = [False] if tracer is None else [k % 2 == 1, k % 2 == 0]
        for traced in modes:
            gc.collect()
            ref_before = reference_s()
            if traced:
                tracer.job = k
                tracer.install()
            try:
                result = run_job(m["path"], seed)
            except Exception as exc:  # a raising job counts as failed
                result, errors = None, [f"raised {type(exc).__name__}: {exc}"]
            finally:
                if traced:
                    tracer.uninstall()
            rec = {"pair": k, "sim_seed": seed, "traced": traced,
                   "ref_s": (ref_before + reference_s()) / 2}
            if result is not None:
                errors = check_job(result, m["digests"].get(str(seed)),
                                   m["all_members_delivered"])
                rec.update(setup_s=result.setup_s, run_s=result.run_s,
                           events=len(result.world.log),
                           delivered=result.report.delivered_count,
                           payload_bytes=len(result.file[1]))
                if traced:
                    rec["discovered"] = sum(1 for ev in result.world.log
                                            if ev.name == "device_discovered")
            rec["errors"] = errors
            records.append(rec)
            del result
        k += 1
    if tracer is not None:
        tracer.write(m["out"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(m["out"] + ".result.json", "w", encoding="utf-8") as fh:
        json.dump({"jobs": records, "peak_rss_mb": rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
