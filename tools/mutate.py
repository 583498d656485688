"""One-line mutation check of a module against a set of test files.

    python3 tools/mutate.py src/expander_codes/linear_code.py \
        tests/test_linear_code.py tests/test_gf2.py [--function NAME ...]

Run from the root of a checkout. Each mutant changes one operator on one
line: a comparison ``<`` and ``<=`` swap, as do ``>`` and ``>=``; an
addition or subtraction of the literal 1 turns into the other; and ``^``
and ``|`` swap, in an expression or as ``^=`` and ``|=``, outside type
annotations. Only
operators inside the named functions are mutated when ``--function`` is
given (a method is named by its own name). Every mutant runs the tests
with ``pytest -x`` in a copy of ``src/``, ``tests/``, ``demos/`` and
``pyproject.toml`` made in a temporary directory, so the checkout is never
edited. A mutant is killed when a test fails or its run takes more than
``TIMEOUT_FACTOR`` times the unmutated run's wall time (and at least
``TIMEOUT_FLOOR`` seconds); a run that times out is killed with every
process it started, such as the demos ``tests/test_demos.py`` runs. A
mutant survives when every test passes; the survivors are printed at the
end, and the exit status is 1 when any survived.

Not collected by pytest and not run in CI: a run takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
SIGNS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
BITS = {ast.BitXor: ("^", "|"), ast.BitOr: ("|", "^")}  # also in ^= and |=
TIMEOUT_FACTOR = 5  # a mutant's run may take this many times the unmutated run
TIMEOUT_FLOOR = 10.0  # seconds, the least time a mutant's run is given


@dataclass(frozen=True)
class Mutant:
    line: int  # 1-based
    start: int  # column span of the source between the two operands
    end: int
    old: str
    new: str

    def apply(self, lines: list[str]) -> list[str]:
        text = lines[self.line - 1]
        gap = text[self.start:self.end]
        out = list(lines)
        out[self.line - 1] = text[:self.start] + gap.replace(self.old, self.new) + text[self.end:]
        return out


def _gap(left: ast.AST, right: ast.AST, old: str, new: str) -> Mutant | None:
    """The mutant replacing ``old`` by ``new`` between two operands, when
    both sit on one line."""
    if left.end_lineno != right.lineno:
        return None
    m = Mutant(right.lineno, left.end_col_offset, right.col_offset, old, new)
    return m if m.start < m.end else None


def mutants(source: str, functions: set[str]) -> list[Mutant]:
    """Every comparison, ± 1 and ``^``/``|`` swap in ``source``, in line
    order; with ``functions``, those inside a function of one of those
    names."""
    found = []
    tree = ast.parse(source)
    # an annotation is never evaluated here, so a swap in it could not be killed
    annotations = {id(a) for n in ast.walk(tree) for a in (
        getattr(n, "annotation", None), getattr(n, "returns", None)) if a is not None}

    def visit(node: ast.AST, inside: bool) -> None:
        if id(node) in annotations:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in functions
        if inside or not functions:
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for k, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        found.append(_gap(operands[k], operands[k + 1], *SWAPS[type(op)]))
            elif isinstance(node, ast.BinOp) and type(node.op) in SIGNS:
                if any(isinstance(x, ast.Constant) and x.value == 1 and type(x.value) is int
                       for x in (node.left, node.right)):
                    found.append(_gap(node.left, node.right, *SIGNS[type(node.op)]))
            elif isinstance(node, ast.BinOp) and type(node.op) in BITS:
                found.append(_gap(node.left, node.right, *BITS[type(node.op)]))
            elif isinstance(node, ast.AugAssign) and type(node.op) in BITS:
                found.append(_gap(node.target, node.value, *BITS[type(node.op)]))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    lines = source.splitlines(keepends=True)
    # the operator must be the one copy of its text between the operands
    out = [m for m in found
           if m is not None and lines[m.line - 1][m.start:m.end].count(m.old) == 1]
    return sorted(out, key=lambda m: (m.line, m.start))


def run_tests(work: Path, tests: list[str], timeout: float | None = None) -> str:
    """"passed", "failed" or "timeout" for one pytest run in ``work``. The
    run has a session of its own, so a timeout kills its whole process
    group: pytest and any process a test started."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=work, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout)
    except BaseException as exc:  # the timeout, or this tool interrupted
        os.killpg(proc.pid, signal.SIGKILL)  # pytest is not reaped yet: the group is its own
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            return "timeout"
        raise
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", help="source file to mutate, relative to the checkout")
    p.add_argument("tests", nargs="+", help="test files to run against each mutant")
    p.add_argument("--function", action="append", default=[],
                   help="mutate only inside functions of this name (repeatable)")
    args = p.parse_args(argv)

    module = Path(args.module)
    source = (ROOT / module).read_text()
    lines = source.splitlines(keepends=True)
    todo = mutants(source, set(args.function))
    print(f"{len(todo)} mutants of {module}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "demos"):  # the demos are run by a test
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / module
        start = time.perf_counter()
        if run_tests(work, args.tests) != "passed":
            print("the unmutated tests do not pass; no mutant run", file=sys.stderr)
            return 2
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * (time.perf_counter() - start))
        print(f"unmutated run passed; each mutant gets {timeout:.0f} s", flush=True)
        survivors = []
        for k, m in enumerate(todo, start=1):
            target.write_text("".join(m.apply(lines)))
            start = time.perf_counter()
            verdict = run_tests(work, args.tests, timeout)
            target.write_text(source)
            took = time.perf_counter() - start
            print(f"[{k}/{len(todo)}] {module}:{m.line} {m.old!r} -> {m.new!r}: "
                  f"{'survived' if verdict == 'passed' else 'killed (' + verdict + ')'}"
                  f" in {took:.1f} s", flush=True)
            if verdict == "passed":
                survivors.append(m)
    print(f"{len(survivors)} of {len(todo)} mutants survived")
    for m in survivors:
        print(f"  {module}:{m.line}: {m.old!r} -> {m.new!r}: {lines[m.line - 1].strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
