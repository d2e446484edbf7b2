"""Record the log/report digests the benchmark checks every job against.

Usage, from the root of a source checkout::

    python3 perfbench/record.py            # add digests that are missing
    python3 perfbench/record.py --replace  # after an intended behaviour change

Covers the shipped fixtures at run.FIXTURE_SEEDS and every
(workload, slot, sim seed) job of the corpus.  Without ``--replace`` an
entry that already exists and differs is reported and left alone, and the
command exits 1: a mismatch is a behaviour change, never re-recorded
silently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replace", action="store_true",
                        help="overwrite entries that differ")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import run
    import runner
    import workloads
    from pidsim import cli, scenario

    digests = {"fixtures": {}, "jobs": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    mismatches = 0

    def put(table: str, key: str, got: dict) -> None:
        nonlocal mismatches
        old = digests[table].get(key)
        if old is not None and old != got:
            print(f"MISMATCH {table} {key}: recorded {old}, now {got}")
            mismatches += 1
            if not args.replace:
                return
        digests[table][key] = got

    for name in scenario.shipped_fixture_names():
        path = scenario.shipped_fixture_path(name)
        for seed in run.FIXTURE_SEEDS:
            art = cli.execute_scenario(path, seed)
            put("fixtures", f"{name}/{seed}",
                runner.digest_pair(art.log_text().encode("utf-8"),
                                   art.report_text().encode("utf-8")))
    tmp_root = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for workload in workloads.WORKLOADS:
            for slot in range(workloads.SLOTS):
                path = workloads.write_slot(workload, slot, tmp)
                all_delivered = workloads.WORKLOADS[workload]["all_members_delivered"]
                for seed in workloads.sim_seeds(workload, slot):
                    job = runner.run_job(path, seed)
                    got = runner.digest_pair(job.log, job.report_text)
                    errors = runner.check_job(job, got, all_delivered)
                    if errors:  # never record the output of a job that fails
                        print(f"FAIL {workload}/{slot}/{seed}: {errors}")
                        mismatches += 1
                        continue
                    put("jobs", f"{workload}/{slot}/{seed}", got)
                print(f"{workload} slot {slot} recorded", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if mismatches and not args.replace else 0


if __name__ == "__main__":
    sys.exit(main())
