"""The erasure solve's GF(2) kernel (`_echelon`, `_solve`) against brute force.

A system is a list of rows over ``cols`` unknowns; bit ``cols`` of a row is
its right-hand side, the column the callers fix to 1.
"""

from hypothesis import example, given, settings, strategies as st

from expander_codes._util import _echelon, _solve


@st.composite
def systems(draw):
    cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << (cols + 1)) - 1), max_size=8))
    return cols, rows


def _satisfies(rows, cols, x) -> bool:
    return all((row & (x | 1 << cols)).bit_count() % 2 == 0 for row in rows)


@settings(max_examples=500, derandomize=True, database=None)
@given(systems())
@example((1, [0b10]))  # inconsistent: 0 = 1
@example((2, [0b001, 0b110, 0b111]))  # unique: x0 = 0, x1 = 1
@example((3, [0b0011, 0b1110]))  # underdetermined: x2 free
def test_echelon_and_solve_match_brute_force(system):
    cols, rows = system
    one = 1 << cols
    brute = {x for x in range(1 << cols) if _satisfies(rows, cols, x)}
    pivots = _echelon(rows)
    for col, row in pivots.items():
        assert (row & -row).bit_length() - 1 == col
    if cols in pivots:  # inconsistent
        assert brute == set()
        return
    free = [c for c in range(cols) if c not in pivots]
    fixeds = [
        sum(1 << c for k, c in enumerate(free) if assignment >> k & 1)
        for assignment in range(1 << len(free))
    ]
    solutions = set()
    for fixed in fixeds:
        x = _solve(pivots, one | fixed) ^ one
        assert x & ~((1 << cols) - 1) == 0
        assert x & sum(1 << c for c in free) == fixed
        assert _satisfies(rows, cols, x)
        solutions.add(x)
    # unique (no free column) and underdetermined systems alike: the free
    # columns parametrize exactly the brute-force solution set
    assert solutions == brute
    assert len(brute) == 1 << len(free)



@settings(max_examples=300, derandomize=True, database=None)
@given(systems(), st.integers(1, 10))
@example((2, [0b001, 0b001, 0b110, 0b111]), 2)  # stops before the last row
def test_echelon_with_a_limit_keeps_the_first_pivots(system, limit):
    cols, rows = system
    full = _echelon(rows)
    it = iter(rows)
    got = _echelon(it, limit)
    # the first ``limit`` pivots of the full run, with the same rows
    assert got == dict(list(full.items())[:limit])
    read = len(rows) - len(list(it))
    if len(full) >= limit:
        # it stops at the row that made the limit-th pivot
        assert len(_echelon(rows[: read - 1])) == limit - 1
    else:
        assert read == len(rows)
