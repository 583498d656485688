"""The package's one GF(2) elimination step (`_reduce`) against brute force,
in both of its layouts.

The code basis packs each check-matrix column above bit N, with its own
index below: a residue that keeps a check is a pivot, and one below 2^N is a
kernel word. The erasure solve holds an equation's right-hand side, the
constant its callers fix to 1, at bit 0 and unknown j at bit j + 1: a
residue of exactly 1 is the equation 0 = 1.
"""

from hypothesis import example, given, settings, strategies as st

from expander_codes._util import _reduce


def _eliminate(rows, limit=None) -> dict[int, int]:
    """Every nonzero residue of ``rows`` keyed as a pivot by its bit length,
    read in order; with a ``limit``, reading stops once it holds that many."""
    pivots: dict[int, int] = {}
    for row in rows:
        row = _reduce(pivots, row)
        if row:
            pivots[row.bit_length()] = row
            if len(pivots) == limit:
                break
    return pivots


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 8))
    return n, m, draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))


@settings(max_examples=300, derandomize=True, database=None)
@given(matrices())
def test_packed_columns_give_the_kernel(matrix):
    n, m, columns = matrix
    kernel = set()
    for x in range(1 << n):
        s = 0
        for i, col in enumerate(columns):
            if x >> i & 1:
                s ^= col
        if not s:
            kernel.add(x)
    pivots: dict[int, int] = {}
    basis = []
    for i, col in enumerate(columns):
        v = _reduce(pivots, col << n | 1 << i)
        assert v.bit_length() not in pivots  # no pivot left at its top bit
        if v >> n:
            pivots[v.bit_length()] = v
        else:
            basis.append(v)
    assert all(key > n for key in pivots)
    # the free columns carry the identity: each word sets its own and no other
    free = [v.bit_length() - 1 for v in basis]
    free_mask = sum(1 << f for f in free)
    assert [v & free_mask for v in basis] == [1 << f for f in free]
    assert free == sorted(free)
    span = {0}
    for v in basis:
        span |= {word ^ v for word in span}
    assert span == kernel
    assert len(kernel) == 1 << (n - len(pivots))


@st.composite
def systems(draw):
    cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << (cols + 1)) - 1), max_size=8))
    return cols, rows


def _satisfies(rows, x) -> bool:
    """Whether the unknowns ``x`` (at bits 1 and up) satisfy every row."""
    return all((row & (x | 1)).bit_count() % 2 == 0 for row in rows)


@settings(max_examples=500, derandomize=True, database=None)
@given(systems())
@example((1, [0b01]))  # inconsistent: 0 = 1
@example((2, [0b010, 0b101, 0b111]))  # unique: x0 = 0, x1 = 1
@example((3, [0b0110, 0b1101]))  # underdetermined: x2 free
def test_equation_rows_match_brute_force(system):
    cols, rows = system
    brute = {x for x in range(0, 2 << cols, 2) if _satisfies(rows, x)}
    pivots = _eliminate(rows)
    if 1 in pivots:  # a row reduced to the constant alone: 0 = 1
        assert brute == set()
        return
    # the rank of a consistent system sets the size of its solution set
    assert len(brute) == 1 << (cols - len(pivots))
    free = [j for j in range(1, cols + 1) if j + 1 not in pivots]
    solutions = set()
    for assignment in range(1 << len(free)):
        x = 1 | sum(1 << j for i, j in enumerate(free) if assignment >> i & 1)
        for key in sorted(pivots):  # back-substituted from the lowest pivot up
            if (pivots[key] & x).bit_count() & 1:
                x |= 1 << (key - 1)
        assert _satisfies(rows, x)
        solutions.add(x ^ 1)
    # unique (no free unknown) and underdetermined systems alike: the free
    # unknowns parametrize exactly the brute-force solution set
    assert solutions == brute


@settings(max_examples=300, derandomize=True, database=None)
@given(systems(), st.integers(1, 10))
@example((2, [0b010, 0b010, 0b101, 0b111]), 2)  # stops before the last row
def test_stopping_at_k_pivots_reads_the_prefix_of_a_full_run(system, limit):
    cols, rows = system
    full = _eliminate(rows)
    it = iter(rows)
    got = _eliminate(it, limit)
    # the first ``limit`` pivots of the full run, with the same rows
    assert list(got.items()) == list(full.items())[:limit]
    read = len(rows) - len(list(it))
    if len(full) >= limit:
        # it stops at the row that made the limit-th pivot
        assert len(_eliminate(rows[: read - 1])) == limit - 1
    else:
        assert read == len(rows)
