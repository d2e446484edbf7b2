"""pidsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload crowd_churn --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Steps: replay the shipped fixtures through ``cli.execute_scenario`` and check
their recorded digests (untimed); generate the workload's scenario and
payload files from the seed into a scratch directory inside the checkout and
validate them with ``load_scenario`` (untimed); run the jobs in a fresh
process for ``--seconds`` (closed loop, one job at a time); check every
output; print one line per metric and, last, one JSON object.  Exits 1 when
any check fails and 2 when the checkout holds no pidsim sources.

End-to-end times are host seconds scaled to reference speed (see
``end_to_end``); the unscaled medians are printed as ``run_s.host`` and
``setup_s.host``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_SEEDS = (0, 1, 42)
DEADLINE_S = 170  # a run must end within 180 s
TAIL_SAMPLES = 10  # a tail percentile needs this many jobs beyond it
REFERENCE_S = 0.020  # runner.reference_s() on the 2-vCPU VM of baseline.json, fast phase

END_TO_END_UNITS = {
    "run_s": "s", "events_per_s": "events/s", "payload_mb_per_s": "MB/s",
    "setup_s": "s", "peak_rss_mb": "MB", "success_ratio": "ratio",
}

# Per-layer metric -> (unit, kind, key).  "self" is the per-job median self
# time of the span named by key, "layer" the same summed over every span of
# that layer, "mean" the per-job mean of an exact count over one pass of the
# job set, and "ratio" a quotient of such counts worked out in per_layer().
PER_LAYER = {
    "simnet.inquiry_s": ("s", "self", "simnet.inquiry"),
    "simnet.inquiry_calls": ("count", "mean", "simnet.inquiry.calls"),
    "simnet.events_scheduled": ("count", "mean", "simnet.events_scheduled"),
    "simnet.events_fired": ("count", "mean", "simnet.events_fired"),
    "simnet.inquiry_hit_ratio": ("ratio", "ratio", None),
    "simnet.advance_s": ("s", "self", "simnet.advance"),
    "simnet.check_invariants_calls": ("count", "mean", "simnet.check_invariants.calls"),
    "simnet.check_invariants_s": ("s", "self", "simnet.check_invariants"),
    "simnet.emit_s": ("s", "self", "simnet.emit"),
    "simnet.connect_s": ("s", "self", "simnet.connect"),
    "simnet.disconnect_s": ("s", "self", "simnet.disconnect"),
    "simnet.log_events": ("count", "mean", "log_events"),
    "simnet.self_s": ("s", "layer", "simnet"),
    "sdp.search_s": ("s", "self", "sdp.search"),
    "sdp.search_calls": ("count", "mean", "sdp.search.calls"),
    "sdp.devices_queried": ("count", "mean", "sdp.search.value"),
    "sdp.departed_ratio": ("ratio", "ratio", None),
    "sdp.filter_ftp_s": ("s", "self", "sdp.filter_ftp"),
    "obexlite.put_frames_s": ("s", "self", "obexlite.put_frames"),
    "obexlite.frames_built": ("count", "mean", "obexlite.put_frames.value"),
    "obexlite.frames_encoded": ("count", "mean", "obexlite.encode.calls"),
    "obexlite.frame_use_ratio": ("ratio", "ratio", None),
    "obexlite.encode_s": ("s", "self", "obexlite.encode"),
    "obexlite.decode_s": ("s", "self", "obexlite.decode"),
    "obexlite.codec_mb_per_s": ("MB/s", "ratio", None),
    "obexlite.serve_push_s": ("s", "self", "obexlite.serve_push"),
    "obexlite.push_file_s": ("s", "self", "obexlite.push_file"),
    "obexlite.pushes.delivered": ("count", "mean", "obexlite.pushes.delivered"),
    "obexlite.pushes.refused": ("count", "mean", "obexlite.pushes.refused"),
    "obexlite.pushes.link-lost": ("count", "mean", "obexlite.pushes.link-lost"),
    "obexlite.push_success_ratio": ("ratio", "ratio", None),
    "obexlite.self_s": ("s", "layer", "obexlite"),
    "pidctl.loop_s": ("s", "self", "pidctl.loop"),
    "pidctl.choose_push_target_s": ("s", "self", "pidctl.choose_push_target"),
    "pidctl.iterations": ("count", "mean", "pidctl.iterations"),
    "pidctl.push_attempts": ("count", "mean", "pidctl.push_attempts"),
    "pidctl.delivered": ("count", "mean", "pidctl.delivered"),
    "pidctl.attempts_per_delivery": ("ratio", "ratio", None),
    "scenario.load_s": ("s", "self", "scenario.load"),
    "scenario.build_world_s": ("s", "self", "scenario.build_world"),
    "scenario.resolve_payload_s": ("s", "self", "scenario.resolve_payload"),
    "scenario.devices": ("count", "mean", "scenario.devices"),
    "cli.render_s": ("s", "self", "cli.render"),
    "trace.overhead_ratio": ("ratio", "ratio", None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def preflight(digests: dict) -> list[str]:
    """Replay every shipped fixture at FIXTURE_SEEDS through execute_scenario;
    check the recorded digests and, for proactive fixtures, that the
    benchmark's own job produces the same bytes."""
    import runner
    from pidsim import cli, scenario

    errors = []
    for name in scenario.shipped_fixture_names():
        path = scenario.shipped_fixture_path(name)
        proactive = scenario.load_scenario(path).mode == "proactive"
        for seed in FIXTURE_SEEDS:
            art = cli.execute_scenario(path, seed)
            log = art.log_text().encode("utf-8")
            report = art.report_text().encode("utf-8")
            got = runner.digest_pair(log, report)
            want = digests.get(f"{name}/{seed}")
            if got != want:
                errors.append(f"fixture {name} seed {seed}: digests {got} != "
                              f"recorded {want}")
            if proactive:
                job = runner.run_job(path, seed)
                if (job.log, job.report_text) != (log, report):
                    errors.append(f"fixture {name} seed {seed}: benchmark job "
                                  "bytes differ from execute_scenario")
    return errors


def _run_child(manifest: dict, deadline: float) -> dict:
    path = manifest["out"] + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "runner.py"), path],
                   env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(manifest["out"] + ".result.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(jobs: list[dict], peak_rss_mb: float) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count) over the untraced jobs, plus printed-only
    ``fail_ratio``, the unscaled ``*.host`` medians and, with enough jobs,
    ``run_s.p90``.

    Times are scaled to reference speed: each job's host seconds times
    REFERENCE_S over the reference loop's time around that job.  The host's
    speed drifts by tens of percent over minutes, and the loop drifts with it.
    """
    ok = [j for j in jobs if "run_s" in j]
    scale = [REFERENCE_S / j["ref_s"] for j in ok]
    run_s = [j["run_s"] * f for j, f in zip(ok, scale)]
    total_s = sum(run_s)
    failed = sum(1 for j in jobs if j["errors"])
    n = len(ok)
    found = {
        "run_s": (statistics.median(run_s), n),
        "events_per_s": (_ratio(sum(j["events"] for j in ok), total_s), n),
        "payload_mb_per_s": (_ratio(sum(j["delivered"] * j["payload_bytes"]
                                        for j in ok), total_s) / 1e6, n),
        "setup_s": (statistics.median(j["setup_s"] * f for j, f in zip(ok, scale)), n),
        "peak_rss_mb": (peak_rss_mb, 1),
        "success_ratio": (_ratio(len(jobs) - failed, len(jobs)), len(jobs)),
        "fail_ratio": (_ratio(failed, len(jobs)), len(jobs)),
        "run_s.host": (statistics.median(j["run_s"] for j in ok), n),
        "setup_s.host": (statistics.median(j["setup_s"] for j in ok), n),
    }
    if n >= 10 * TAIL_SAMPLES:
        found["run_s.p90"] = (statistics.quantiles(run_s, n=10)[-1], n)
    return found


def per_layer(jobs: list[dict], per_job: dict[int, dict], n_seeds: int,
              errors: list[str]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count) from the traced jobs' spans."""
    traced = {j["pair"]: j for j in jobs if j["traced"] and "run_s" in j}
    for k, job in traced.items():
        per_job.setdefault(k, {}).update(log_events=job["events"],
                                         device_discovered=job["discovered"])
    # Exact counts repeat whenever a job (same scenario, same sim seed) runs
    # again in a later pass.
    exact = {k: {key: v for key, v in per_job[k].items()
                 if not key.endswith(".self_ns")} for k in traced}
    for k in traced:
        if k >= n_seeds and k % n_seeds in traced and exact[k] != exact[k % n_seeds]:
            errors.append(f"traced job {k}: exact counts differ from job "
                          f"{k % n_seeds}, which ran the same input")
    first_pass = [exact[k] for k in traced if k < n_seeds]

    def total(key: str) -> float:
        return sum(counts.get(key, 0) for counts in first_pass)

    def self_s(k: int, prefix: str) -> float:
        return sum(v for key, v in per_job[k].items()
                   if key.startswith(prefix) and key.endswith(".self_ns")) / 1e9

    codec_bytes = sum(per_job[k].get(f"obexlite.{op}.value", 0)
                      for k in traced for op in ("encode", "decode"))
    codec_s = sum(self_s(k, f"obexlite.{op}.") for k in traced
                  for op in ("encode", "decode"))
    untraced = [j["run_s"] for j in jobs if not j["traced"] and "run_s" in j]
    ratios = {
        # Inquiry-response events: what start_inquiry schedules, less its one
        # completion event per call.
        "simnet.inquiry_hit_ratio": _ratio(
            total("device_discovered"),
            total("simnet.inquiry_events_scheduled") - total("simnet.inquiry.calls")),
        "sdp.departed_ratio": _ratio(total("sdp.departed"), total("sdp.search.value")),
        "obexlite.frame_use_ratio": _ratio(total("obexlite.put_frames_encoded"),
                                           total("obexlite.put_frames.value")),
        "obexlite.codec_mb_per_s": _ratio(codec_bytes, codec_s) / 1e6,
        "obexlite.push_success_ratio": _ratio(total("obexlite.pushes.delivered"),
                                              total("obexlite.push_file.calls")),
        "pidctl.attempts_per_delivery": _ratio(
            total("pidctl.push_attempts"), total("pidctl.delivered_by_iteration")),
        "trace.overhead_ratio": _ratio(
            statistics.median(j["run_s"] for j in traced.values()),
            statistics.median(untraced)),
    }
    out = {}
    for name, (_, kind, key) in PER_LAYER.items():
        if kind == "self":
            value = statistics.median(self_s(k, key + ".self_ns") for k in traced)
        elif kind == "layer":
            value = statistics.median(self_s(k, key + ".") for k in traced)
        elif kind == "mean":
            value = total(key) / len(first_pass)
        else:
            value = ratios[name]
        out[name] = (value, len(traced))
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 tmp: str, digests: dict,
                 deadline: float) -> tuple[dict, int, int, list[str]]:
    """(metric -> (value, samples), jobs attempted, jobs failed, errors)."""
    import workloads
    from pidsim import scenario

    slot = workloads.slot_of(seed)
    path = workloads.write_slot(workload, slot, tmp)
    scenario.load_scenario(path)  # every generated file must validate
    seeds = workloads.sim_seeds(workload, slot)
    out = os.path.join(tmp, f"{workload}-{slot}")
    result = _run_child({
        "path": path, "sim_seeds": seeds, "seconds": seconds, "trace": trace,
        "out": out,
        "digests": {str(s): digests.get(f"{workload}/{slot}/{s}") for s in seeds},
        "all_members_delivered": workloads.WORKLOADS[workload]["all_members_delivered"],
    }, deadline)
    jobs = result["jobs"]
    errors = [f"{workload} seed {seed} (slot {slot}) sim seed {j['sim_seed']}"
              f"{' traced' if j['traced'] else ''}: {e}"
              for j in jobs for e in j["errors"]]
    failed = sum(1 for j in jobs if j["errors"])
    if not any("run_s" in j for j in jobs):
        return {}, len(jobs), failed, errors
    if trace:
        from tracer import analyse
        stats = {k: dict(v) for k, v in analyse(out).items()}
        found = per_layer(jobs, stats, len(seeds), errors)
        simnet, obex = found["simnet.self_s"][0], found["obexlite.self_s"][0]
        expect = {"crowd_churn": simnet > obex, "bulk_push": obex > simnet}
        if workload in expect:
            print(f"# {workload}: layer separation "
                  f"{'holds' if expect[workload] else 'DOES NOT hold'} "
                  f"(simnet self {simnet:.4f} s, obexlite self {obex:.4f} s)")
    else:
        found = end_to_end(jobs, result["peak_rss_mb"])
    return found, len(jobs), failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pidsim", "__init__.py")):
        print(f"error: no pidsim sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)

    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    started = time.monotonic()
    try:
        errors = preflight(digests["fixtures"])
        results, attempted, failed = {}, 0, 0
        for name in names:
            found, n, n_failed, errs = run_workload(
                name, args.seed, args.seconds, bool(args.trace), tmp,
                digests["jobs"], started + DEADLINE_S * len(names))
            results[name] = found
            attempted += n
            failed += n_failed
            errors += errs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    units = {**END_TO_END_UNITS, **{k: spec[0] for k, spec in PER_LAYER.items()},
             "fail_ratio": "ratio", "run_s.p90": "s", "run_s.host": "s",
             "setup_s.host": "s"}
    declared = PER_LAYER if args.trace else END_TO_END_UNITS
    for error in errors:
        print(f"FAIL {error}")
    metrics_out = {}
    for name, found in results.items():
        for metric, (value, samples) in found.items():
            print(f"{name:<13} {metric:<32} {value:>14.6f} {units[metric]:<9} n={samples}")
            if metric in declared:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics_out[key] = {"value": value, "unit": units[metric]}
    print(f"# {time.monotonic() - started:.1f} s wall")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
