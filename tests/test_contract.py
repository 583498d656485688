"""Property test of the decoder outcome contract on random tiny codes.

Every registered decoder, called through `dispatch_decode`, must return on
success a zero-syndrome word whose Hamming distance to the input is the
reported `corrected` count and which lies in the brute-force list
`enumerate_list(g, y, floor(radius))` whenever a radius is declared. The
erasure decoder's success must be the unique codeword that agrees with the
known bits.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from expander_codes import (
    Word,
    enumerate_list,
    gen_left_regular,
    nullspace,
    sample_codeword,
)
from expander_codes.experiments import DECODER_NAMES, ExperimentConfig, dispatch_decode
from expander_codes.linear_code import syndrome_bits

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, min(4, n)))
    m = draw(st.integers(d, n))
    g = gen_left_regular(n, m, d, draw(st.integers(0, 2**16)))
    planted = sample_codeword(g, draw(st.integers(0, 2**16))).bits
    errors = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3)))
    y = planted ^ sum(1 << i for i in errors)
    erased = draw(st.integers(0, (1 << n) - 1))
    cfg = dict(
        alpha=Fraction(1, draw(st.sampled_from([12, 6, 3, 2]))),
        eps=Fraction(1, draw(st.sampled_from([16, 10, 8]))),
        beta=Fraction(1, 12),
        eta=draw(st.sampled_from([Fraction(1, 20), Fraction(1, 4)])),
        slack=draw(st.sampled_from([Fraction(0), Fraction(1, 7)])),
    )
    return g, y, erased, cfg


def _check_erasure(g, y_bits, erased):
    word = Word(g.n_left, y_bits & ~erased, erased)
    cfg = ExperimentConfig("erasure", 0, 0)
    out = dispatch_decode(cfg, g, word)
    completions = [
        c for c in nullspace(g).iter_codewords() if (c ^ y_bits) & ~erased == 0
    ]
    if out.ok:
        assert completions == [out.word.bits]
        assert out.corrected == erased.bit_count()
    else:
        assert len(completions) != 1


@SETTINGS
@given(instances())
def test_outcome_contract(instance):
    g, y_bits, erased, params = instance
    y = Word(g.n_left, y_bits)
    for name in DECODER_NAMES:
        if name == "erasure":
            _check_erasure(g, y_bits, erased)
            continue
        out = dispatch_decode(ExperimentConfig(name, 0, 0, **params), g, y)
        assert out.algorithm == name
        if not out.ok:
            continue
        assert syndrome_bits(g, out.word.bits) == 0, name
        assert out.corrected == (out.word.bits ^ y_bits).bit_count(), name
        if out.radius is not None:
            assert out.corrected <= out.radius, name
            assert out.word in enumerate_list(g, y, math.floor(out.radius)), name
