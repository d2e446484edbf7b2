"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/sweep.py --seeds 0-9 --seconds 25 [--trace 1] \\
        [--workload crowd_churn ...] [--out sweep.json]

For every workload and end-to-end metric this prints the median of the
per-seed values and the spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
Runs are made one at a time.  ``--out`` keeps every run's JSON line together
with the host facts (``nproc``, Python version) a baseline needs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workload or list(workloads.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            if proc.returncode != 0 or not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()
                if args.trace == 0), flush=True)
    for workload, results in runs.items():
        metrics = results[0].get("metrics", {})
        for metric in metrics:
            values = [r["metrics"][metric]["value"] for r in results if "metrics" in r]
            if len(values) >= 2:
                print(f"{workload:<13} {metric:<32} median {statistics.median(values):>14.6g}"
                      f"  spread {spread(values):.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"nproc": os.cpu_count(), "python": platform.python_version(),
                       "seconds": args.seconds, "trace": args.trace, "runs": runs},
                      fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
