"""The one mask-to-position walker, `_util.mask_to_indices`, its item
selector `_util.select`, and the one position-to-mask builder,
`_util.indices_to_mask`, against the lowest-bit strip and the `|=` loop; and
the syndrome kernel built on them and on the graph's syndrome tables,
against per-check parity."""

import functools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from expander_codes import (
    BipartiteGraph,
    ExpanderParams,
    ExperimentConfig,
    InvalidInput,
    Word,
    collisions,
    experiments,
    gen_left_regular,
    neighbors,
    odd_neighbors,
    plant_errors,
    sample_codeword,
    unique_neighbors,
    viderman_decode,
)
from expander_codes._util import indices_to_mask, mask_to_indices, select
from expander_codes.experiments import run_trial
from expander_codes.linear_code import syndrome_bits


def _strip(mask):
    """The lowest-bit strip the walker replaces as the only algorithm."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _spread(rng, k, n):
    """A mask of k set bits among the n lowest positions."""
    return sum(1 << i for i in rng.sample(range(n), k))


def test_fixed_masks():
    rng = random.Random(1)
    masks = [0, 1, 1 << 63, 1 << 64, 1 << 10**4]
    # set-bit counts on both sides of the strip cut, sparse and dense
    for k in (255, 256, 257):
        masks += [_spread(rng, k, k), _spread(rng, k, 2 * k), _spread(rng, k, 10**4)]
    for mask in masks:
        assert mask_to_indices(mask) == _strip(mask)


def test_random_masks_at_every_density():
    rng = random.Random(2)
    for n in (1, 7, 8, 9, 63, 64, 65, 500, 2000, 1 << 14):
        for density in (1 / 1000, 1 / 100, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1):
            mask = int("".join("1" if rng.random() < density else "0" for _ in range(n)), 2)
            assert mask_to_indices(mask) == _strip(mask), (n, density)


def _selected(mask, items):
    return tuple(items[i] for i in _strip(mask))


def test_select_matches_the_strip_at_every_density():
    rng = random.Random(9)
    for n in (1, 7, 8, 9, 63, 64, 65, 500, 2000, 1 << 14):
        items = [rng.getrandbits(40) for _ in range(n + 5)]  # longer than the mask
        for density in (1 / 1000, 1 / 100, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1):
            mask = int("".join("1" if rng.random() < density else "0" for _ in range(n)), 2)
            assert tuple(select(mask, items)) == _selected(mask, items), (n, density)
            assert tuple(select(mask, range(n))) == mask_to_indices(mask), (n, density)


def test_select_on_both_sides_of_the_crossover():
    # masks of at most max(8, min(256, N/8)) set bits strip into a list, and
    # denser ones are read by compress; the top bit fixes N at n
    rng = random.Random(10)
    for n in (9, 12, 60, 64, 200, 512, 2000, 2048, 4000, 1 << 14):
        items = [object() for _ in range(n)]
        k0 = max(8, min(256, n >> 3))
        for k in range(k0 - 2, min(n, k0 + 2) + 1):
            mask = 1 << (n - 1) | _spread(rng, k - 1, n - 1)
            got = select(mask, items)
            assert isinstance(got, list) == (k <= k0), (n, k)
            assert tuple(got) == _selected(mask, items), (n, k)
            assert mask_to_indices(mask) == _strip(mask), (n, k)
    assert list(select(0, [])) == []


def _parity(g, bits):
    """Per-check parity of ``bits``: the oracle for the syndrome kernel."""
    return sum(((g.right_masks[c] & bits).bit_count() & 1) << c for c in range(g.m_right))


@pytest.fixture(scope="module")
def big_graph():
    return gen_left_regular(2000, 1500, 6, 3)


def test_syndrome_bits_is_per_check_parity(big_graph):
    g = big_graph
    rng = random.Random(4)
    codeword = sample_codeword(g, 5)
    words = [
        0,
        rng.getrandbits(2000),  # dense: about 1000 of 2000 bits
        codeword.bits,
        plant_errors(codeword, rng.sample(range(2000), 3)).bits,
        plant_errors(codeword, rng.sample(range(2000), 300)).bits,
        _spread(rng, 3, 2000),  # sparse
        _spread(rng, 256, 2000),
    ]
    for bits in words:
        assert syndrome_bits(g, bits) == _parity(g, bits)
    assert syndrome_bits(g, codeword.bits) == 0


def test_syndrome_bits_is_per_check_parity_on_dense_words():
    n, m = 4000, 3000
    g = gen_left_regular(n, m, 6, 11)
    rng = random.Random(12)
    words = [(1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)]
    words += [_spread(rng, k, n) for k in (255, 256, 257, 999, 1000, 1001)]  # around both cuts
    for bits in words:
        assert syndrome_bits(g, bits) == _parity(g, bits), bits.bit_count()


def _edge_graphs():
    """Graphs whose N is, or falls short of, a multiple of four (so the last
    run of four bits is partial): with no checks, with no edges, and with
    both."""
    for n in (0, 1, 2, 3, 4, 5, 7, 9, 2001):
        yield BipartiteGraph(n, 0, 0, [()] * n)  # M = 0
        yield BipartiteGraph(n, 5, 0, [()] * n)  # D = 0
        if n:
            yield gen_left_regular(n, max(3, 3 * n // 4), 3, n)


@pytest.mark.parametrize("g", list(_edge_graphs()), ids=lambda g: f"{g.n_left}-{g.m_right}-{g.d_left}")
def test_syndrome_tables_on_both_sides_of_the_cut(g):
    # a word of at most N/4 set bits folds the selected masks and builds no
    # table; a denser one reads the table, which is then built
    n = g.n_left
    rng = random.Random(n)
    tail = (1 << n) - 1 ^ (1 << (n & ~3)) - 1  # every bit of the last partial run
    words = [0, (1 << n) - 1, tail, 1 << n - 1 if n else 0]
    words += [_spread(rng, k, n) for k in (n // 4 - 1, n // 4, n // 4 + 1) if 0 <= k <= n]
    for bits in words:
        fresh = BipartiteGraph(g.n_left, g.m_right, g.d_left, g.adj)
        assert syndrome_bits(fresh, bits) == _parity(g, bits), bits
        assert ("_nibble_syndromes" in vars(fresh)) == (bits.bit_count() > n // 4), bits


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 2001])
def test_syndrome_table_entries(n):
    g = gen_left_regular(n, max(3, 3 * n // 4), 3, n)
    tables = g._nibble_syndromes
    assert len(tables) == (n + 3) // 4
    parity_checked = {0, len(tables) // 2, len(tables) - 1}  # the last run may be partial
    for j, table in enumerate(tables):
        width = min(4, n - 4 * j)
        assert len(table) == 1 << width
        assert table[0] == 0
        # a one-bit entry is the left mask itself, not a copy
        assert all(table[1 << k] is g.left_masks[4 * j + k] for k in range(width))
        if j in parity_checked:
            for v, entry in enumerate(table):
                assert entry == _parity(g, v << 4 * j), (j, v)


@pytest.fixture
def table_builds(monkeypatch):
    """Grows by one entry, the graph, per syndrome table built."""
    builds = []
    build = BipartiteGraph._nibble_syndromes.func

    def counting(g):
        builds.append(g)
        return build(g)

    prop = functools.cached_property(counting)
    prop.__set_name__(BipartiteGraph, "_nibble_syndromes")
    monkeypatch.setattr(BipartiteGraph, "_nibble_syndromes", prop)
    return builds


def test_syndrome_table_is_built_once_on_the_first_dense_syndrome(table_builds):
    g = gen_left_regular(512, 384, 6, 2)
    rng = random.Random(13)
    for k in (0, 3, 80, 128):
        syndrome_bits(g, _spread(rng, k, 512))
    assert table_builds == []
    codeword = sample_codeword(g, 1)
    for errors in (2, 3):
        y = plant_errors(codeword, rng.sample(range(512), errors))
        assert viderman_decode(g, y, ExpanderParams(Fraction(1, 50), Fraction(1, 6))).word == codeword
    dense = rng.getrandbits(512)
    assert syndrome_bits(g, dense) == _parity(g, dense)
    assert table_builds == [g]


def test_perfbench_sweep_cells_build_no_syndrome_table(table_builds):
    # the graph and cells of perfbench/workloads.py's sweep at its seed, 1:
    # every error word (at most 80 bits; erasure trials set none) and every
    # flip mask has at most N/4 = 128 set bits. Under other seeds ss-flip at
    # radius 80 can flip more than 128 bits at once, and then reads the table
    rng = random.Random("sweep:1")
    g = gen_left_regular(512, 384, 6, rng.getrandbits(32))
    cells = (
        ("viderman", "uniform-random-set", (2, 5, 10, 20, 30, 40, 60)),
        ("ss-flip", "uniform-random-set", (2, 10, 20, 40, 80)),
        ("erasure", "uniform-random-set", (10, 60, 120, 180, 240)),
        ("viderman", "low-expansion-greedy", (2, 5, 10, 20)),
    )
    for algo, model, radii in cells:
        for r in radii:
            cfg = ExperimentConfig(algo, r, r, trials=1, model=model, seed=rng.getrandbits(32),
                                   alpha=Fraction(1, 50), eps=Fraction(1, 6))
            assert len(experiments.sweep(cfg, g)) == 1
    assert table_builds == []


def _or_loop(indices):
    """The `|=` loop, the builder's only algorithm before the digit buffer."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _random_positions(rng, n, density):
    """Each position of [0, n) with probability ``density``, shuffled, with a
    few repeated."""
    out = [i for i in range(n) if rng.random() < density]
    out += rng.sample(out, min(3, len(out)))
    rng.shuffle(out)
    return out


def test_builder_matches_or_loop_at_every_density():
    rng = random.Random(6)
    for n in (1, 7, 8, 9, 63, 64, 65, 200, 500, 2000, 1 << 14):
        for density in (1 / 1000, 1 / 100, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1):
            positions = _random_positions(rng, n, density)
            assert indices_to_mask(positions, n) == _or_loop(positions), (n, density)


def test_builder_on_both_sides_of_the_crossover():
    rng = random.Random(7)
    for n in (1, 12, 60, 200, 512, 2000, 8000, 1 << 14):
        k0 = math.isqrt(3 * n)  # the loop serves k * k < 3n positions
        for k in range(max(0, k0 - 2), min(n, k0 + 2) + 1):
            positions = rng.sample(range(n), k)
            mask = indices_to_mask(positions, n)
            assert mask == _or_loop(positions), (n, k)
            assert mask_to_indices(mask) == tuple(sorted(positions))
            # the extreme positions land on the top and the lowest bit
            ends = [n - 1] + [0] * (k - 1)
            assert indices_to_mask(ends, n) == _or_loop(ends), (n, k)


def test_builder_inputs():
    assert indices_to_mask([], 0) == 0
    assert indices_to_mask((), 5) == 0
    assert indices_to_mask(iter(()), 5) == 0
    assert indices_to_mask([3, 3, 3], 4) == 0b1000
    assert indices_to_mask([2] * 500, 3) == 0b100  # duplicates past the crossover
    assert indices_to_mask((0, 2), 3) == 0b101
    assert indices_to_mask(range(0, 900, 3), 900) == _or_loop(range(0, 900, 3))
    assert indices_to_mask(frozenset({1, 4}), 5) == 0b10010
    # a generator is read once, on either side of the crossover
    for positions in ([1, 5], list(range(0, 2000, 2))):
        gen = (i for i in positions)
        assert indices_to_mask(gen, 2000) == _or_loop(positions)
        assert next(gen, None) is None


def test_builder_round_trip():
    rng = random.Random(8)
    for n in (1, 64, 500, 2000, 1 << 14):
        for density in (1 / 1000, 1 / 16, 1 / 2, 1):
            mask = int("".join("1" if rng.random() < density else "0" for _ in range(n)), 2)
            assert indices_to_mask(mask_to_indices(mask), n) == mask, (n, density)


@pytest.mark.parametrize("n", [1, 5, 100, 2000])
@pytest.mark.parametrize("many", [False, True])
def test_out_of_range_position_raises_on_both_paths(n, many):
    good = list(range(n)) * (4 if many else 0) + [n - 1]
    for bad in (-1, -n, n, n + 5, 2**62, -(2**70)):
        with pytest.raises(InvalidInput, match=f"position {bad} out of range"):
            indices_to_mask(good + [bad], n)
    # the first bad position is named, whatever comes after it
    with pytest.raises(InvalidInput, match=f"position {n} out of range"):
        indices_to_mask([n, -1] + good, n)
    with pytest.raises(InvalidInput, match="position 0 out of range"):
        indices_to_mask([0] * (n if many else 1), 0)


_G24 = gen_left_regular(24, 18, 6, 1)
_POSITION_ENTRIES = {
    "from_support": lambda p: Word.from_support(24, p),
    "plant_errors": lambda p: plant_errors(Word.zero(24), p),
    "neighbors": lambda p: neighbors(_G24, p),
    "unique_neighbors": lambda p: unique_neighbors(_G24, p),
    "odd_neighbors": lambda p: odd_neighbors(_G24, p),
    "collisions": lambda p: collisions(_G24, p),
}


@pytest.mark.parametrize("entry", sorted(_POSITION_ENTRIES))
@pytest.mark.parametrize(
    "positions, bad",
    # 21 positions of 24 are past the k*k < 3n crossover: the digit buffer
    # meets the float, where the other lists fail in the range check or the
    # OR loop
    [(["a"], "a"), ([1.5], 1.5), ([None], None), ([*range(20), 2.5], 2.5)],
    ids=["str", "float", "none", "float-in-buffer"],
)
def test_non_integer_position_raises_invalid_input(entry, positions, bad):
    with pytest.raises(InvalidInput, match=re.escape(f"position {bad!r} is not an integer")):
        _POSITION_ENTRIES[entry](positions)


@pytest.mark.parametrize(
    "position", [2**62, 2**70, 10**8, -1, 3], ids=["2^62", "2^70", "10^8", "-1", "n"]
)
def test_from_support_range_checks_before_allocating(position):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput):
            Word.from_support(3, [position])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 10^8 would be a 12.5 MB int


@pytest.mark.parametrize("position", [-1, 2**62, 24])
def test_run_trial_range_checks_errors(position):
    g = gen_left_regular(24, 18, 6, 1)
    cfg = ExperimentConfig("viderman", 0, 1, alpha="1/12", eps="1/8")
    with pytest.raises(InvalidInput):
        run_trial(cfg, g, 1, 0, [position])
    assert run_trial(cfg, g, 1, 0, [23, 23]).errors == 1  # a repeat counts once
