"""Command line front end: run scenarios, validate them, crunch savings.

Subcommands::

    pid-sim run <scenario.scn> [...] [--seed N] [--step] [--report DIR]
                                [--log FILE]
    pid-sim validate <scenario.scn>
    pid-sim metrics --students N --pages N --weeks N
    pid-sim metrics --campus N --fraction P/Q --pages-each N
    pid-sim metrics --pages-total N

Exit code is 0 unless something went wrong internally or the input was
invalid; undelivered roster members do not fail the process.  A scenario
of a batch runs in argument order; one that fails prints one error line
and sets the exit code to 1, and the others still run and report.
--step and --log take exactly one scenario; with several, --report DIR
keeps one log.txt per scenario in DIR/<file stem>/, so a batch whose
scenarios share a file stem is refused before any runs.  The seed is
--seed, else the scenario's own seed, else 0.  --step walks through a
stepped scenario, then writes --report/--log like any run; input that
ends early is one error line and writes no file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ScenarioError, SimError
from .metrics import (
    CourseUsage,
    SavingsSummary,
    campus_pages,
    pages_per_course,
    pages_to_reams,
    pages_to_trees,
    savings_report,
)
from .pidctl import DeliveryReport, StepConfig, StepReport, run_proactive, run_stepped
from .scenario import load_scenario, shipped_fixture_path
from .simnet import SimWorld

# Failures that end one scenario (or the command) with one ``error:`` line.
_CLEAN_ERRORS = (SimError, ValueError, ZeroDivisionError, OSError)


@dataclass
class RunArtifacts:
    """Everything one scenario run produces."""

    lines: list[str]  # stdout body, banner excluded
    world: SimWorld
    report: StepReport | DeliveryReport
    savings: SavingsSummary | None = None

    def log_text(self) -> str:
        return self.world.render_log()

    def report_text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pid-sim",
        description="Deterministic proactive-delivery simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one or more scenario files")
    run_p.add_argument("scenarios", nargs="+",
                       help="scenario file path, or the name of a shipped fixture")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--step", action="store_true",
                       help="interactive stepped mode: wait for enter between phases")
    run_p.add_argument("--report", metavar="DIR", default=None,
                       help="write log/report/savings files into DIR")
    run_p.add_argument("--log", metavar="FILE", default=None,
                       help="write the event log to FILE (one scenario only)")

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")

    met_p = sub.add_parser("metrics", help="page/ream/tree savings arithmetic")
    met_p.add_argument("--students", type=int)
    met_p.add_argument("--pages", type=int,
                       help="pages per student per week")
    met_p.add_argument("--weeks", type=int)
    met_p.add_argument("--campus", type=int, metavar="INSTRUCTORS")
    met_p.add_argument("--fraction", default="1/4",
                       help="heavy-teaching fraction, e.g. 1/4")
    met_p.add_argument("--pages-each", type=int,
                       help="pages per heavy instructor per semester")
    met_p.add_argument("--pages-total", type=int,
                       help="convert a raw page count to reams and trees")
    return parser


def _resolve_scenario_path(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    try:
        return shipped_fixture_path(arg)
    except ScenarioError:
        raise ScenarioError(f"no such scenario file or shipped fixture: {arg}") from None


def execute_scenario(path: str, seed_flag: int | None = None,
                     interactive: bool = False) -> RunArtifacts:
    """Run one scenario file and collect its artifacts."""
    scenario = load_scenario(path)
    seed = seed_flag if seed_flag is not None else scenario.seed or 0
    world = scenario.build_world(seed)
    lines: list[str] = [f"scenario={os.path.basename(path)} mode={scenario.mode} seed={seed}"]

    if scenario.mode == "stepped":
        config = StepConfig(local=scenario.local,
                            file_name=scenario.file_name,
                            payload=scenario.file_payload,
                            file_path=scenario.file_path,
                            target=scenario.step_target,
                            ask=input if interactive else None)
        try:
            report = run_stepped(world, config)
        except EOFError:
            raise ScenarioError("--step: input ended before the walkthrough "
                                "finished") from None
        lines.extend(report.lines)
        return RunArtifacts(lines, world, report)

    if interactive:
        raise ScenarioError("--step requires a stepped-mode scenario")
    name, payload = scenario.resolve_payload()
    report = run_proactive(world, scenario.roster, (name, payload),
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)
    lines.extend(report.render_lines())
    savings = None
    if scenario.usage is not None:
        savings = savings_report(report, scenario.usage)
        lines.extend(savings.render_lines())
    return RunArtifacts(lines, world, report, savings)


def _run_one(path: str, seed_flag: int | None, report_dir: str | None,
             log_file: str | None, interactive: bool) -> str:
    artifacts = execute_scenario(path, seed_flag, interactive)
    out = artifacts.report_text()
    # Rendering is the log's main cost: do it once for both files.
    log = artifacts.log_text() if log_file or report_dir else ""
    if log_file:
        Path(log_file).write_text(log, encoding="utf-8", newline="\n")
    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
        for name, text in (("log.txt", log), ("report.txt", out)):
            Path(report_dir, name).write_text(text, encoding="utf-8", newline="\n")
    return "" if interactive else out  # the walkthrough printed its lines live


def _cmd_run(args: argparse.Namespace) -> int:
    stems = [os.path.splitext(os.path.basename(arg))[0] for arg in args.scenarios]
    batch = len(stems) > 1
    if batch and args.step:
        raise ScenarioError("--step runs exactly one scenario")
    if batch and args.log:
        raise ScenarioError("--log writes one scenario's log; "
                            "use --report DIR for several")
    if batch and args.report:
        for stem in stems:
            if stems.count(stem) > 1:
                raise ScenarioError(f"--report DIR keeps one subdirectory per file "
                                    f"stem; two scenarios share the stem {stem!r}")
    status = 0
    for arg, stem in zip(args.scenarios, stems):
        report_dir = (os.path.join(args.report, stem) if batch and args.report
                      else args.report)
        try:
            sys.stdout.write(_run_one(_resolve_scenario_path(arg), args.seed,
                                      report_dir, args.log, args.step))
        except _CLEAN_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


def _cmd_validate(args: argparse.Namespace) -> int:
    path = _resolve_scenario_path(args.scenario)
    scenario = load_scenario(path)
    if scenario.mode == "proactive":
        scenario.resolve_payload()  # run reads the payload file up front too
    print(f"ok: {path} ({scenario.mode}, {len(scenario.devices)} devices)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.pages_total is not None:
        pages = args.pages_total
        if pages < 0:
            raise ScenarioError("--pages-total must be non-negative")
    elif args.campus is not None:
        if args.pages_each is None:
            raise ScenarioError("--campus needs --pages-each")
        fraction = Fraction(args.fraction)
        pages = campus_pages(args.campus, fraction, args.pages_each)
        print(f"assumptions instructors={args.campus} "
              f"heavy_fraction={fraction} pages_each={args.pages_each}")
    elif args.students is None or args.pages is None or args.weeks is None:
        raise ScenarioError(
            "metrics needs --students/--pages/--weeks, --campus/--pages-each, "
            "or --pages-total")
    else:
        usage = CourseUsage(args.students, args.pages, args.weeks)
        pages = pages_per_course(usage)
        print(f"assumptions students={usage.students} "
              f"pages_per_student_week={usage.pages_per_student_week} "
              f"weeks={usage.weeks}")
        print(f"pages_per_week={usage.students * usage.pages_per_student_week}")
    print(f"pages={pages}")
    print(f"reams={pages_to_reams(pages)}")
    print(f"trees={pages_to_trees(pages)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    print(f"pid-sim {__version__}")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_metrics(args)
    except _CLEAN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
