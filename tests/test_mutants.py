"""The mutation sweep's mutants (``tests/mutants.py``); the sweep itself is
not run here."""

import ast
import glob
import os

import pytest

from .mutants import FLIPS, ROOT, mutants

SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "pidsim", "*.py")))


def test_one_mutant_per_comparison_operator_in_source_order():
    source = ("if not 0 <= seq < n and x is not None:\n"
              "    ok = (a\n"
              "          not in b) or c == d  # a < b\n")
    found = mutants("m.py", source)
    assert [str(m) for m in found] == [
        "m.py:1:10 <= -> <", "m.py:1:17 < -> <=", "m.py:1:27 is not -> is",
        "m.py:3:11 not in -> in", "m.py:3:26 == -> !="]
    assert found[2].apply(source).startswith(
        "if not 0 <= seq < n and x is None:\n")
    assert found[3].apply(source).splitlines()[2] \
        == "          in b) or c == d  # a < b"


def _ops(source: str) -> list[str]:
    ops = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in"}
    return [ops[type(op)] for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) for op in node.ops]


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_each_mutant_of_a_source_flips_exactly_its_operator(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    original = _ops(source)
    found = mutants(path, source)
    assert len(found) == len(original)
    for mutant in found:
        flipped = _ops(mutant.apply(source))
        changed = [(a, b) for a, b in zip(original, flipped) if a != b]
        assert changed == [(mutant.old, FLIPS[mutant.old])], str(mutant)
