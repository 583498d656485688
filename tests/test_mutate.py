"""The operator swaps and literal changes that ``tools/mutate.py`` lists,
on short sources."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
)
mutate = sys.modules["mutate"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(mutate)


def _mutated(source, functions=()):
    """Each mutant of ``source`` as its mutated text."""
    lines = source.splitlines(keepends=True)
    return ["".join(m.apply(lines)) for m in mutate.mutants(source, set(functions))]


@pytest.mark.parametrize(
    "source, want",
    [
        ("x = a >> 2\n", ["x = a << 2\n", "x = a >> 3\n", "x = a >> 1\n"]),
        ("x = a << b\n", ["x = a >> b\n"]),
        ("x >>= 1\n", ["x <<= 1\n"]),
        ("x <<= k\n", ["x >>= k\n"]),
        ("x = a and b\n", ["x = a or b\n"]),
        ("x = a or b\n", ["x = a and b\n"]),
        ("x = a and (b) and c\n", ["x = a or (b) and c\n", "x = a and (b) or c\n"]),
        ("x = a ^ b\n", ["x = a | b\n"]),
        ("x |= b\n", ["x ^= b\n"]),
        ("x = a <= b\n", ["x = a < b\n"]),
        ("x = a - 1\n", ["x = a + 1\n"]),
        ("x = a == b\n", ["x = a != b\n"]),
        ("x = a != b\n", ["x = a == b\n"]),
        ("x = a == b != c\n", ["x = a != b != c\n", "x = a == b == c\n"]),
        ("x = min(a, b)\n", ["x = max(a, b)\n"]),
        ("x = max(xs, key=len)\n", ["x = min(xs, key=len)\n"]),
        ("x = min(max(a, b), c)\n", ["x = max(max(a, b), c)\n", "x = min(min(a, b), c)\n"]),
        ("x = f.min(a) + mins(a)\n", []),
        ("x = a[::-1][:n - k]\n", ["x = a[::][:n - k]\n", "x = a[::-1][:]\n"]),
        ("x = a[i:j:k]\n", ["x = a[:j:k]\n", "x = a[i::k]\n", "x = a[i:j:]\n"]),
        # decimal integer literals from 2 to 1000, one larger and one smaller
        ("x = f(3, 0, 1)\n", ["x = f(4, 0, 1)\n", "x = f(2, 0, 1)\n"]),
        ("x = 1000 * y\n", ["x = 1001 * y\n", "x = 999 * y\n"]),
        ("x = 1001 * 0x10 * True * 2.0 * 'a'\n", []),
    ],
)
def test_each_swap_is_listed(source, want):
    assert _mutated(source) == want


def test_swaps_stay_inside_the_named_function_and_out_of_annotations():
    source = (
        "def f(a: int = 1 << 2) -> bool:\n"
        "    return a >> 1 and a\n"
        "def g(a: 1 >> 2):\n"
        "    return a << 1 or a\n"
    )
    in_f = [
        source.replace("= 1 << 2", "= 1 >> 2"),  # a default is evaluated
        source.replace("= 1 << 2", "= 1 << 3"),
        source.replace("= 1 << 2", "= 1 << 1"),
        source.replace("a >> 1 and", "a << 1 and"),
        source.replace("a >> 1 and", "a >> 1 or"),
    ]
    assert _mutated(source, ["f"]) == in_f
    assert _mutated(source) == in_f + [
        source.replace("a << 1 or", "a >> 1 or"),
        source.replace("a << 1 or", "a << 1 and"),
    ]
