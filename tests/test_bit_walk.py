"""The one mask-to-position walker, `_util.mask_to_indices`, and the syndrome
kernel built on it, against the lowest-bit strip and per-check parity."""

import random

import pytest

from expander_codes import gen_left_regular, plant_errors, sample_codeword
from expander_codes._util import mask_to_indices
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
        want = sum(((g.right_masks[c] & bits).bit_count() & 1) << c for c in range(g.m_right))
        assert syndrome_bits(g, bits) == want
    assert syndrome_bits(g, codeword.bits) == 0
