"""Savings arithmetic: exact rationals, rounding, published figures."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pidsim.metrics import (
    PAGES_PER_TREE,
    REAMS_PER_TREE,
    CourseUsage,
    campus_pages,
    pages_per_course,
    pages_to_reams,
    pages_to_trees,
    round_half_away_from_zero,
    savings_report,
)


def test_pages_per_course_published_values():
    assert pages_per_course(CourseUsage(18, 3, 17)) == 918
    assert pages_per_course(CourseUsage(18, 3, 1)) == 54
    assert pages_per_course(CourseUsage(0, 3, 17)) == 0


def test_campus_pages_published_value():
    assert campus_pages(800, Fraction(1, 4), 1836) == 367_200
    assert campus_pages(800, 0, 1836) == 0


def test_campus_pages_rejects_non_integral_split():
    with pytest.raises(ValueError):
        campus_pages(801, Fraction(1, 4), 1836)


def test_campus_pages_accepts_fraction_strings():
    assert campus_pages(800, "1/4", 1836) == 367_200
    with pytest.raises(ValueError):
        campus_pages(800, "5/4", 1836)


def test_ream_tree_conversions():
    assert pages_to_reams(367_200) == 708  # exact value 707.855...
    assert pages_to_trees(367_200) == 44   # exact value 44.24...
    assert pages_to_reams(8_300) == 16
    assert pages_to_trees(8_300) == 1
    assert pages_to_reams(0) == 0
    assert pages_to_trees(0) == 0


def test_conversion_constants_are_consistent():
    assert (PAGES_PER_TREE, REAMS_PER_TREE) == (8300, 16)
    pages_per_ream = Fraction(PAGES_PER_TREE, REAMS_PER_TREE)
    assert pages_to_reams(PAGES_PER_TREE) == REAMS_PER_TREE
    assert pages_to_reams(pages_per_ream.numerator) == pages_per_ream.denominator


def test_round_half_away_from_zero():
    assert round_half_away_from_zero(Fraction(5, 2)) == 3
    assert round_half_away_from_zero(Fraction(-5, 2)) == -3
    assert round_half_away_from_zero(Fraction(4999, 1000)) == 5
    assert round_half_away_from_zero(Fraction(44, 100)) == 0


def test_reams_and_trees_round_consistently():
    # reams/16 rounds to within one tree of the direct conversion
    for pages in range(0, 10_000_001, 12_345):
        trees_direct = pages_to_trees(pages)
        trees_via_reams = round_half_away_from_zero(
            Fraction(pages_to_reams(pages), REAMS_PER_TREE))
        assert abs(trees_direct - trees_via_reams) <= 1


@given(st.integers(0, 1000), st.integers(0, 100), st.integers(0, 60))
def test_pages_per_course_linear_in_each_argument(students, pages, weeks):
    base = pages_per_course(CourseUsage(students, pages, weeks))
    assert pages_per_course(CourseUsage(2 * students, pages, weeks)) == 2 * base
    assert pages_per_course(CourseUsage(students, 2 * pages, weeks)) == 2 * base
    assert pages_per_course(CourseUsage(students, pages, 2 * weeks)) == 2 * base


def test_usage_rejects_negative_counts():
    with pytest.raises(ValueError):
        CourseUsage(-1, 3, 17)


class _FakeReport:
    def __init__(self, delivered_count):
        self.delivered_count = delivered_count


def test_savings_report_counts_delivered_members():
    summary = savings_report(_FakeReport(7), CourseUsage(12, 3, 17))
    assert summary.pages == 357  # 7 * 3 * 17
    assert summary.students_served == 7
    summary = savings_report(_FakeReport(0), CourseUsage(12, 3, 17))
    assert summary.pages == 0
    summary = savings_report(_FakeReport(18), CourseUsage(18, 3, 17))
    assert summary.pages == pages_per_course(CourseUsage(18, 3, 17)) == 918


def test_savings_render_lines_are_stable():
    lines = savings_report(_FakeReport(7), CourseUsage(12, 3, 17)).render_lines()
    assert lines == [
        "savings assumptions: served=7 pages_per_student_week=3 weeks=17",
        "savings pages=357 reams=1 trees=0",
    ]
