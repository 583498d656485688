"""Property test of the decoder outcome contract on random tiny codes.

Every registered decoder, called through `dispatch_decode`, must return on
success a zero-syndrome word whose Hamming distance to the input is the
reported `corrected` count and which lies in the brute-force list
`enumerate_list(g, y, floor(radius))` whenever a radius is declared. The
erasure decoder's success must be the unique codeword that agrees with the
known bits.

A second property checks that an outcome depends only on the error pattern:
decoding c + e for a codeword c gives the outcome for e alone, its word
shifted by c. Sweeps decode e alone on that ground.

A third property checks Viderman's guarantee: on a graph that
`verify_expander` certifies with strict slack, `viderman_decode` finds the
unique codeword inside the baseline radius.

A seeded metamorphic check adds that no outcome depends on vertex labels:
renaming the bits and the checks of a graph and its word renames the
outcome's word and leaves every other field as it was.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from expander_codes import (
    BipartiteGraph,
    ExpanderParams,
    Word,
    enumerate_list,
    gen_left_regular,
    nullspace,
    sample_codeword,
    verify_expander,
    viderman_decode,
)
from expander_codes.experiments import DECODER_NAMES, ExperimentConfig, dispatch_decode
from expander_codes.linear_code import syndrome_bits
from conftest import gen_four_cycle_free, gray_walk

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, min(4, n)))
    m = draw(st.integers(d, n))
    g = gen_left_regular(n, m, d, draw(st.integers(0, 2**16)))
    planted = sample_codeword(g, draw(st.integers(0, 2**16))).bits
    errors = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3)))
    e = sum(1 << i for i in errors)
    erased = draw(st.integers(0, (1 << n) - 1))
    cfg = dict(
        alpha=Fraction(1, draw(st.sampled_from([12, 6, 3, 2]))),
        eps=Fraction(1, draw(st.sampled_from([16, 10, 8]))),
        beta=Fraction(1, 12),
        eta=draw(st.sampled_from([Fraction(1, 20), Fraction(1, 4)])),
        slack=draw(st.sampled_from([Fraction(0), Fraction(1, 7)])),
    )
    return g, planted, e, erased, cfg


def _check_erasure(g, y_bits, erased):
    word = Word(g.n_left, y_bits & ~erased, erased)
    cfg = ExperimentConfig("erasure", 0, 0)
    out = dispatch_decode(cfg, g, word)
    completions = [
        c for c in gray_walk(nullspace(g).basis) if (c ^ y_bits) & ~erased == 0
    ]
    if out.ok:
        assert completions == [out.word.bits]
        assert out.corrected == erased.bit_count()
    else:
        assert len(completions) != 1


@SETTINGS
@given(instances())
def test_outcome_contract(instance):
    g, planted, e, erased, params = instance
    y_bits = planted ^ e
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


@SETTINGS
@given(instances())
def test_outcome_depends_only_on_the_error_pattern(instance):
    g, c, e, erased, params = instance
    n = g.n_left
    for name in DECODER_NAMES:
        if name == "erasure":
            on_c, on_zero = Word(n, c & ~erased, erased), Word(n, 0, erased)
        else:
            on_c, on_zero = Word(n, c ^ e), Word(n, e)
        cfg = ExperimentConfig(name, 0, 0, **params)
        want = dispatch_decode(cfg, g, on_zero)
        if want.word is not None:
            want = replace(want, word=Word(n, want.word.bits ^ c))
        assert dispatch_decode(cfg, g, on_c) == want, name


def _strictly_certified(g, params) -> bool:
    """``verify_expander`` passes and no size s <= alpha*N meets the bound
    (1 - eps)*D*s with equality."""
    cert = verify_expander(g, params)
    need = (1 - params.eps) * g.d_left
    return cert.passed and all(
        cert.profile.min_at(s) > need * s for s in range(1, cert.profile.s_max + 1)
    )


def _baseline_radius(params, n):
    eps = params.eps
    return math.floor((1 - 3 * eps) / (1 - 2 * eps) * math.floor(params.alpha * n))


@st.composite
def strict_instances(draw):
    # four-cycle-free graphs: random tiny left-regular ones almost never
    # clear the bound strictly at a radius of one error or more
    n = draw(st.integers(10, 16))
    m = draw(st.integers(n - 3, n))
    g = gen_four_cycle_free(n, m, 3, draw(st.integers(0, 2**16)), restarts=3)
    assume(g is not None)
    eps = draw(st.sampled_from([Fraction(1, 6), Fraction(1, 5), Fraction(1, 4)]))
    params = ExpanderParams(Fraction(2, n), eps)
    radius = _baseline_radius(params, n)
    assume(radius >= 1 and _strictly_certified(g, params))
    planted = sample_codeword(g, draw(st.integers(0, 2**16))).bits
    errors = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=radius))
    return g, params, planted, planted ^ sum(1 << i for i in errors)


@SETTINGS
@given(strict_instances())
def test_viderman_finds_the_unique_codeword_in_the_baseline_radius(instance):
    g, params, planted, y_bits = instance
    y = Word(g.n_left, y_bits)
    assert enumerate_list(g, y, _baseline_radius(params, g.n_left)) == [
        Word(g.n_left, planted)
    ]
    out = viderman_decode(g, y, params)
    assert out.ok, (out.reason, out.path)
    assert out.word.bits == planted


def test_strict_slack_excludes_the_equality_case():
    # two bits share a check, so |Gamma(S)| = 3 = (1 - eps)*D*s at s = 2:
    # certified, but only at equality, and viderman's suspect list outgrows
    # the erasure capacity on a single error
    g = gen_left_regular(16, 14, 2, 5)
    params = ExpanderParams(Fraction(2, 16), Fraction(1, 4))
    assert verify_expander(g, params).passed
    assert not _strictly_certified(g, params)
    assert _baseline_radius(params, 16) == 1
    planted = sample_codeword(g, 0).bits
    out = viderman_decode(g, Word(16, planted ^ 1), params)
    assert (out.status, out.reason, out.path) == (
        "failure", "no-candidate", "list-exceeds-capacity"
    )


def _renamed(mask, names):
    """``mask`` with bit i moved to bit ``names[i]``."""
    return sum(1 << names[i] for i in range(len(names)) if mask >> i & 1)


def test_outcomes_do_not_depend_on_labels():
    # eta = 1/5 runs guess-flip-scaled at its unscaled fallback; at eta =
    # 1/100 a word of N <= 30 can take seconds
    cfgs = [ExperimentConfig(name, 0, 0, alpha=Fraction(1, 12), eps=Fraction(1, 8),
                             beta=Fraction(1, 12), eta=Fraction(1, 5))
            for name in DECODER_NAMES]
    rng = random.Random(16)
    for seed in range(400):
        n = rng.choice((12, 16, 20, 24, 30))
        g = gen_left_regular(n, 3 * n // 4, 6, seed)
        bits, checks = list(range(n)), list(range(g.m_right))
        rng.shuffle(bits)
        rng.shuffle(checks)
        adj = [()] * n
        for i, row in enumerate(g.adj):
            adj[bits[i]] = sorted(checks[c] for c in row)
        h = BipartiteGraph(n, g.m_right, g.d_left, adj)
        e = sum(1 << i for i in rng.sample(range(n), rng.randint(0, 5)))
        for cfg in cfgs:
            if cfg.algorithm == "erasure":
                y, y_renamed = Word(n, 0, e), Word(n, 0, _renamed(e, bits))
            else:
                y, y_renamed = Word(n, e), Word(n, _renamed(e, bits))
            want = dispatch_decode(cfg, g, y)
            if want.word is not None:
                want = replace(want, word=Word(
                    n, _renamed(want.word.bits, bits), _renamed(want.word.erasures, bits)))
            assert dispatch_decode(cfg, h, y_renamed) == want, (seed, cfg.algorithm)
