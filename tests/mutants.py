"""Comparison-flip mutation sweep over the pidsim sources.

Usage, from the root of a source checkout::

    python3 tests/mutants.py                                  # every src file
    python3 tests/mutants.py --files src/pidsim/obexlite.py   # only these

Each mutant flips one comparison operator (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``).
The checkout is copied once into a temporary directory outside it; each
mutant is written into that copy and the tier-1 suite runs there with
``-x``, the mutated file's own test module first.  A mutant that the suite
passes survives, and is printed as ``file:line:column old -> new``.  A run that
exceeds its time limit counts as killed.  The checkout itself is never
written.  This is a tool, not a test: pytest does not collect it, and a
full sweep takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "is": "is not", "is not": "is", "in": "not in", "not in": "in"}
COPY_IGNORES = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                      ".pytest_cache", ".benchmarks")
MEMORY_LIMIT = 2 << 30  # address space of each suite run, in bytes


@dataclass(frozen=True)
class Mutant:
    path: str    # relative to the checkout
    line: int
    column: int  # 1-based, as editors count
    start: int   # character offsets of the operator in the source
    end: int
    old: str
    new: str

    def apply(self, source: str) -> str:
        return source[:self.start] + self.new + source[self.end:]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column} {self.old} -> {self.new}"


def mutants(path: str, source: str) -> list[Mutant]:
    """One mutant per comparison operator in ``source``, in source order."""
    lines = io.StringIO(source).readlines()
    line_starts = [0]
    for text in lines:
        line_starts.append(line_starts[-1] + len(text))

    def offset(line: int, byte_col: int) -> int:
        text = lines[line - 1].encode("utf-8")[:byte_col].decode("utf-8")
        return line_starts[line - 1] + len(text)

    # Comparison operator tokens by offset; "is not" and "not in" are two.
    ops = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.string in FLIPS or tok.string == "not":
            ops.append((line_starts[tok.start[0] - 1] + tok.start[1],
                        line_starts[tok.end[0] - 1] + tok.end[1], tok))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            lo = offset(left.end_lineno, left.end_col_offset)
            hi = offset(right.lineno, right.col_offset)
            span = [(s, e, tok) for s, e, tok in ops if lo <= s and e <= hi]
            old = " ".join(tok.string for _, _, tok in span)
            line, col = span[0][2].start
            found.append(Mutant(path, line, col + 1, span[0][0], span[-1][1],
                                old, FLIPS[old]))
    return sorted(found, key=lambda m: m.start)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_suite(copy: str, first: list[str], timeout: float | None) -> bool:
    """Whether tier-1, with ``-x`` and the modules in ``first`` run first,
    passes in ``copy``; a run past ``timeout`` seconds fails."""
    # No bytecode cache: a flip such as == to != keeps the file's size, and
    # a cached .pyc is checked only against size and whole-second mtime.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
               "no:cacheprovider", "--continue-on-collection-errors",
               *first, "tests"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", nargs="+", metavar="PATH",
                        help="source files to mutate, relative to the "
                             "checkout (default: every src/pidsim/*.py)")
    args = parser.parse_args(argv)
    package = os.path.join("src", "pidsim")
    files = args.files or sorted(
        os.path.join(package, name)
        for name in os.listdir(os.path.join(ROOT, package))
        if name.endswith(".py"))

    with tempfile.TemporaryDirectory(prefix="pidsim-mutants-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORES)
        started = time.monotonic()
        if not run_suite(copy, [], None):
            print("the unmutated suite fails; no sweep", file=sys.stderr)
            return 2
        timeout = 5 * (time.monotonic() - started) + 30
        survivors, total = [], 0
        for path in files:
            target = os.path.join(copy, path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            own = os.path.join("tests", "test_" + os.path.basename(path))
            first = [own] if os.path.exists(os.path.join(copy, own)) else []
            try:
                for mutant in mutants(path, source):
                    total += 1
                    with open(target, "w", encoding="utf-8") as fh:
                        fh.write(mutant.apply(source))
                    if run_suite(copy, first, timeout):
                        survivors.append(mutant)
                        print(mutant, flush=True)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(source)
        print(f"# {len(survivors)} of {total} mutants survived "
              f"in {time.monotonic() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
