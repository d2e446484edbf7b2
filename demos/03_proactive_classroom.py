#!/usr/bin/env python3
"""Demo 3: the proactive classroom loop.

Loads the shipped classroom fixture (twelve devices, eight roster members,
two controls), runs the delivery window, and walks through the report:
who got the file, who was excluded, and what the run looked like per
discovery pass.
"""

from pidsim import CourseUsage, load_scenario, run_proactive, savings_report
from pidsim.scenario import shipped_fixture_path


def main():
    print("=" * 70)
    print("Demo 3: proactive delivery over a classroom window")
    print("=" * 70)

    scenario = load_scenario(shipped_fixture_path("live_test"))
    roster = scenario.roster
    print(f"\ncourse {roster.course_id}: {len(roster.members)} registered "
          f"member devices, window "
          f"{roster.window_start / 1000:.0f}s..{roster.window_end / 1000:.0f}s "
          f"around course start at {roster.course_start / 1000:.0f}s")

    world = scenario.build_world(scenario.seed)
    report = run_proactive(world, roster, scenario.resolve_payload(),
                           inquiry_interval=scenario.inquiry_interval,
                           local=scenario.local)

    print("\nPer-member outcomes:")
    for mac in report.members:
        out = report.outcomes[mac]
        when = f" at t={out.time} ms" if out.time is not None else ""
        print(f"  {world.device(mac).friendly_name:<22} {out.outcome}{when}")

    print("\nDiscovered but excluded (not on the roster):")
    for mac in sorted(report.non_members):
        print(f"  {world.device(mac).friendly_name:<22} first seen "
              f"t={report.non_members[mac]} ms")

    print("\nDiscovery passes:")
    for it in report.iterations:
        print(f"  pass {it.index}: start t={it.started_at:>6} ms, "
              f"{it.discovered} in range, {it.newly_seen} new members, "
              f"{it.delivered} served")

    summary = savings_report(report, scenario.usage or CourseUsage(18, 3, 17))
    print(f"\nPaper avoided this semester: {summary.pages} pages "
          f"(~{summary.reams} reams, ~{summary.trees} trees)")


if __name__ == "__main__":
    main()
