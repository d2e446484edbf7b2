"""Paper-versus-pixels arithmetic: page counts and ream/tree equivalents.

All conversions run in exact rational arithmetic and round once at the
end, half away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pidctl import DeliveryReport

PAGES_PER_TREE = 8300
REAMS_PER_TREE = 16


@dataclass(frozen=True)
class CourseUsage:
    students: int
    pages_per_student_week: int
    weeks: int

    def __post_init__(self) -> None:
        for name in ("students", "pages_per_student_week", "weeks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def round_half_away_from_zero(x: Fraction) -> int:
    if x >= 0:
        return int((2 * x + 1) // 2)
    return -int((2 * -x + 1) // 2)


def pages_per_course(usage: CourseUsage) -> int:
    return usage.students * usage.pages_per_student_week * usage.weeks


def campus_pages(instructors: int, heavy_fraction, pages_per_heavy_instructor: int) -> int:
    """Pages used campus-wide by the heavy-teaching fraction of instructors.

    ``heavy_fraction`` is exact (Fraction, or anything Fraction accepts,
    e.g. "1/4"); instructors times the fraction must come out whole.
    """
    frac = Fraction(heavy_fraction)
    if not 0 <= frac <= 1:
        raise ValueError("heavy_fraction must be within [0, 1]")
    if instructors < 0 or pages_per_heavy_instructor < 0:
        raise ValueError("counts must be non-negative")
    heavy = instructors * frac
    if heavy.denominator != 1:
        raise ValueError(
            f"{instructors} instructors times {frac} is not a whole number")
    return int(heavy) * pages_per_heavy_instructor


def pages_to_reams(pages: int) -> int:
    return round_half_away_from_zero(Fraction(pages * REAMS_PER_TREE, PAGES_PER_TREE))


def pages_to_trees(pages: int) -> int:
    return round_half_away_from_zero(Fraction(pages, PAGES_PER_TREE))


@dataclass(frozen=True)
class SavingsSummary:
    pages: int
    reams: int
    trees: int
    students_served: int
    pages_per_student_week: int
    weeks: int

    def render_lines(self) -> list[str]:
        return [
            ("savings assumptions: "
             f"served={self.students_served} "
             f"pages_per_student_week={self.pages_per_student_week} "
             f"weeks={self.weeks}"),
            f"savings pages={self.pages} reams={self.reams} trees={self.trees}",
        ]


def savings_report(report: "DeliveryReport", usage: CourseUsage) -> SavingsSummary:
    """Pages (and ream/tree equivalents) avoided by the deliveries made."""
    served = report.delivered_count
    pages = served * usage.pages_per_student_week * usage.weeks
    return SavingsSummary(pages, pages_to_reams(pages), pages_to_trees(pages), served,
                          usage.pages_per_student_week, usage.weeks)
