"""Dual-route checks: fast implementations against blunt enumeration.

Every oracle here iterates the full 2^N word space, so these stay on graphs
with at most ~10 bits.
"""

import random

from expander_codes import (
    Word,
    decode_erasures,
    gen_left_regular,
    min_distance_bruteforce,
    nullspace,
    syndrome,
    union_graph,
)
from conftest import cyc_graph, gray_walk, tri3_graph


def _all_codewords(g):
    return [
        bits
        for bits in range(1 << g.n_left)
        if syndrome(g, Word(g.n_left, bits)).is_zero
    ]


def _tiny_graphs():
    yield tri3_graph()
    yield cyc_graph(5)
    yield union_graph(tri3_graph(), cyc_graph(4))
    for seed in range(6):
        yield gen_left_regular(9, 6, 3, seed)


def test_nullspace_counts_match_enumeration():
    for g in _tiny_graphs():
        ns = nullspace(g)
        brute = _all_codewords(g)
        assert len(brute) == 1 << ns.dimension
        assert sorted(gray_walk(ns.basis)) == brute


def test_min_distance_matches_enumeration():
    for g in _tiny_graphs():
        brute = [bits for bits in _all_codewords(g) if bits]
        if not brute:
            continue
        expected = min(bits.bit_count() for bits in brute)
        assert min_distance_bruteforce(g).distance == expected


def test_erasure_decoder_matches_completion_count():
    # success iff exactly one codeword agrees with the known bits
    rng = random.Random(12)
    for g in _tiny_graphs():
        words = _all_codewords(g)
        for _ in range(30):
            c = words[rng.randrange(len(words))]
            mask = rng.getrandbits(g.n_left)
            known = c & ~mask
            completions = [w for w in words if (w & ~mask) == known]
            out = decode_erasures(g, Word(g.n_left, known, mask))
            assert len(completions) >= 1
            if len(completions) == 1:
                assert out.ok and out.word.bits == completions[0]
            else:
                assert not out.ok and out.reason == "stalled"


def test_erasure_decoder_rejects_corrupt_known_bits():
    # flipping a non-erased bit of a codeword must poison the system unless
    # the flipped word still completes to some codeword
    rng = random.Random(5)
    for g in _tiny_graphs():
        words = _all_codewords(g)
        for _ in range(20):
            c = words[rng.randrange(len(words))]
            mask = rng.getrandbits(g.n_left)
            flip = rng.randrange(g.n_left)
            if (mask >> flip) & 1:
                continue
            known = (c ^ (1 << flip)) & ~mask
            completions = [w for w in words if (w & ~mask) == known]
            out = decode_erasures(g, Word(g.n_left, known, mask))
            if not completions:
                assert not out.ok and out.reason == "not-a-codeword"
            elif len(completions) == 1:
                assert out.ok and out.word.bits == completions[0]
            else:
                assert not out.ok and out.reason == "stalled"
