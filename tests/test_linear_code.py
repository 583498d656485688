import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from expander_codes import (
    BipartiteGraph,
    BudgetExceeded,
    DistanceResult,
    ExpanderParams,
    InvalidInput,
    InvalidParameters,
    NullspaceBasis,
    Word,
    distance_lower_bound,
    enumerate_list,
    gen_left_regular,
    is_codeword,
    min_distance_bruteforce,
    nullspace,
    odd_neighbors,
    parse_word,
    plant_errors,
    sample_codeword,
    syndrome,
    union_graph,
)
from expander_codes import linear_code
from expander_codes._util import _echelon, _solve
from conftest import cyc_graph, gray_walk


class TestWord:
    def test_string_round_trip(self):
        w = parse_word("10?1")
        assert (w.n, w.bits, w.erasures) == (4, 0b1001, 0b0100)
        assert str(w) == "10?1"

    def test_bad_symbol(self):
        with pytest.raises(InvalidInput):
            parse_word("10x")

    def test_erased_positions_carry_no_value(self):
        with pytest.raises(InvalidInput):
            Word(3, 0b010, 0b010)

    def test_negative_length(self):
        with pytest.raises(InvalidInput):
            Word(-1, 0)

    def test_negative_support_position(self):
        with pytest.raises(InvalidInput):
            Word.from_support(3, [-1])

    def test_distance_needs_full_words(self):
        with pytest.raises(InvalidInput):
            parse_word("1?1").distance(parse_word("111"))


class TestSyndrome:
    def test_zero_word(self, tri3):
        assert syndrome(tri3, Word.zero(3)).is_zero

    def test_single_and_double(self, tri3):
        s = syndrome(tri3, parse_word("110"))
        assert s.unsatisfied() == (1, 2)  # 011
        assert syndrome(tri3, parse_word("111")).is_zero

    def test_erasures_rejected(self, tri3):
        with pytest.raises(InvalidInput):
            syndrome(tri3, parse_word("1?1"))

    def test_codeword_iff_no_odd_neighbors(self):
        rng = random.Random(3)
        for seed in range(30):
            g = gen_left_regular(10, 7, 3, seed)
            for _ in range(10):
                w = Word(10, rng.getrandbits(10))
                assert syndrome(g, w).is_zero == (
                    odd_neighbors(g, w.support()) == set()
                )


class TestNullspace:
    def test_tri3(self, tri3):
        ns = nullspace(tri3)
        assert ns.rank == 2
        assert ns.basis == (0b111,)
        assert ns.rate() == Fraction(1, 3)

    def test_cycles(self):
        for length in (4, 6, 9):
            ns = nullspace(cyc_graph(length))
            assert ns.rank == length - 1
            assert ns.basis == ((1 << length) - 1,)

    def test_union_block_structure(self, tri3):
        ns = nullspace(union_graph(tri3, tri3))
        assert set(ns.basis) == {0b000111, 0b111000}
        assert sorted(gray_walk(ns.basis)) == [0, 0b000111, 0b111000, 0b111111]

    def test_every_basis_element_is_codeword(self):
        for seed in range(10):
            g = gen_left_regular(14, 9, 3, seed)
            ns = nullspace(g)
            assert ns.rank <= g.m_right
            assert ns.rate() >= 1 - Fraction(g.m_right, g.n_left)
            for vec in ns.basis:
                assert is_codeword(g, Word(14, vec))

    def test_highest_bits_are_the_free_columns(self):
        # the list walk reads each basis word's free column off its top bit
        for seed in range(10):
            g = gen_left_regular(20, 12, 6, seed)
            basis = nullspace(g).basis
            free = [vec.bit_length() - 1 for vec in basis]
            pivots = _echelon(g.right_masks)
            assert free == [f for f in range(20) if f not in pivots]
            free_mask = sum(1 << f for f in free)
            assert [vec & free_mask for vec in basis] == [1 << f for f in free]

    @pytest.mark.parametrize("dim", [*range(11), 12, 13, 16])
    def test_walk_yields_the_span_once_zero_first(self, dim):
        # the low dim bits of the basis form an identity, so it is independent
        # and a sum's low dim bits say which basis words it sums
        rng = random.Random(dim)
        basis = tuple((1 << k) | (rng.getrandbits(6) << dim) for k in range(dim))
        span = {0}
        for vec in basis:
            span |= {word ^ vec for word in span}
        ns = NullspaceBasis(dim + 6, 6, basis)
        levels = [list(ns.sums(0, w, w, dim)) for w in range(dim + 1)]
        identity = (1 << dim) - 1
        for w, level in enumerate(levels):
            assert len(level) == math.comb(dim, w)
            assert {(word & identity).bit_count() for word in level} == {w}
        walked = list(itertools.chain.from_iterable(levels))
        assert walked[0] == 0
        assert len(walked) == 1 << dim
        assert set(walked) == span
        # one call over every count lists the same span, the zero word first
        walked = list(ns.sums(0, 0, dim, dim))
        assert walked[0] == 0
        assert len(walked) == 1 << dim
        assert set(walked) == span

    @pytest.mark.parametrize("seed, digest", [
        (1, "c70d055721261806e052e8da700d809412f705f6e2c4f678476e68718a1d3869"),
        (2, "5bdd0384ee24fad77395074abd64f9f203b333ec5c1380a054ee1be6116d9855"),
    ])
    def test_golden_basis_digest(self, seed, digest):
        # the reduced basis is unique, and sampled codewords and sweep CSV
        # bytes depend on it bit for bit
        text = nullspace(gen_left_regular(512, 384, 6, seed)).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


    def test_basis_is_computed_once_per_graph(self, eliminations):
        g = gen_left_regular(96, 72, 6, 1)
        ns = nullspace(g)
        assert nullspace(g) is ns
        sample_codeword(g, 0)
        # both walks read the cached basis before refusing its dimension
        with pytest.raises(BudgetExceeded):
            min_distance_bruteforce(g, budget=0)
        with pytest.raises(BudgetExceeded):
            enumerate_list(g, Word.zero(96), 1, budget=0)
        assert len(eliminations) == 1
        # the cached basis is the one a fresh elimination of an equal graph gives
        fresh = gen_left_regular(96, 72, 6, 1)
        assert fresh == g and fresh is not g
        pivots = _echelon(fresh.right_masks)
        free = (1 << f for f in range(fresh.n_left) if f not in pivots)
        assert ns == NullspaceBasis(96, len(pivots), _solve(pivots, *free))

    def test_sampled_codewords_are_pinned(self):
        # the words a sweep plants come from the cached basis bit for bit
        g = gen_left_regular(96, 72, 6, 1)
        digests = [
            hashlib.sha256(str(sample_codeword(g, seed)).encode()).hexdigest()
            for seed in (0, 1)
        ]
        assert digests == [
            "830bce2d93f0090b1b0279343fdd9745302c02e06a4da1ccc010bd10fe28d7f4",
            "dee4bf8e14cbc905c848d0d72db67ccc7de933c8cf827589099e623011c562b1",
        ]


class TestMinDistance:
    def test_tri3(self, tri3):
        res = min_distance_bruteforce(tri3)
        assert res.distance == 3
        assert res.witness.bits == 0b111

    def test_cyc7(self):
        assert min_distance_bruteforce(cyc_graph(7)).distance == 7

    def test_union_takes_block_min(self, tri3):
        g = union_graph(tri3, cyc_graph(4))
        assert min_distance_bruteforce(g).distance == 3

    def test_budget(self, tri3):
        g = union_graph(tri3, tri3)
        with pytest.raises(BudgetExceeded):
            min_distance_bruteforce(g, budget=1)

    def test_distance_is_walked_once_per_graph(self, monkeypatch):
        walks = []
        walk = linear_code._least_weight
        monkeypatch.setattr(linear_code, "_least_weight", lambda g: walks.append(g) or walk(g))

        def refusal(g, budget):
            with pytest.raises(BudgetExceeded) as info:
                min_distance_bruteforce(g, budget=budget)
            return str(info.value), info.value.required

        g = gen_left_regular(26, 12, 6, 3)
        k = nullspace(g).dimension
        before = refusal(g, k - 1)
        assert before == (f"code dimension {k} exceeds budget {k - 1} (required budget {k})", k)
        assert walks == []
        res = min_distance_bruteforce(g, budget=k + 5)
        assert min_distance_bruteforce(g, budget=k) is res and walks == [g]
        # a cached distance is still refused below the dimension, in the same words
        assert refusal(g, k - 1) == before
        assert refusal(g, 0) == (f"code dimension {k} exceeds budget 0 (required budget {k})", k)
        # the cached result is the walk of a freshly built equal graph
        fresh = gen_left_regular(26, 12, 6, 3)
        assert fresh == g and fresh is not g
        assert min_distance_bruteforce(fresh, budget=k) == res and walks == [g, fresh]
        # a trivial code is refused before the budget, and is never walked
        trivial = gen_left_regular(8, 8, 3, 6)
        assert nullspace(trivial).dimension == 0
        for budget in (-1, 0, 24):
            with pytest.raises(InvalidParameters):
                min_distance_bruteforce(trivial, budget=budget)
        assert walks == [g, fresh]


def test_walk_callers_match_gray_walk():
    rng = random.Random(21)
    dims = set()
    for _ in range(40):
        d = rng.randint(2, 6)
        n = rng.randint(d + 2, 18)
        g = gen_left_regular(n, rng.randint(d, n), d, rng.getrandbits(16))
        basis = nullspace(g).basis
        dims.add(len(basis))
        if basis:
            best_w = best_bits = None
            for word in itertools.islice(gray_walk(basis), 1, None):
                w = word.bit_count()
                if best_w is None or w < best_w or (w == best_w and word < best_bits):
                    best_w, best_bits = w, word
            expected = DistanceResult(best_w, Word(n, best_bits))
            assert min_distance_bruteforce(g) == expected
        y = Word(n, rng.getrandbits(n))
        for radius in (0, 3, n):
            hits = sorted(b for b in gray_walk(basis) if (b ^ y.bits).bit_count() <= radius)
            assert enumerate_list(g, y, radius) == [Word(n, b) for b in hits]
        if basis:
            # both callers refuse through the one check, in the same words
            text = f"code dimension {len(basis)} exceeds budget {len(basis) - 1} "
            text += f"(required budget {len(basis)})"
            for call in (min_distance_bruteforce, lambda g, budget: enumerate_list(g, y, 0, budget)):
                with pytest.raises(BudgetExceeded) as info:
                    call(g, budget=len(basis) - 1)
                assert str(info.value) == text
    # odd and even dimensions, both sides of a split
    assert {1, 2, 3}.issubset(dims) and max(dims) >= 10


def _check_callers(g, centers):
    # both callers against the Gray walk of the whole span; ``centers`` holds
    # (y, radii) pairs for the list walk
    n, basis = g.n_left, nullspace(g).basis
    span = list(gray_walk(basis))
    if basis:
        w, bits = min((word.bit_count(), word) for word in span[1:])
        assert min_distance_bruteforce(g) == DistanceResult(w, Word(n, bits))
    for y, radii in centers:
        dists = [(word ^ y.bits).bit_count() for word in span]
        for radius in radii:
            hits = sorted(word for word, dist in zip(span, dists) if dist <= radius)
            assert enumerate_list(g, y, radius) == [Word(n, b) for b in hits], radius


@pytest.mark.parametrize("n, m, seed", [
    (30, 21, 1),  # dimension 10, distance 8
    (30, 20, 1),  # dimension 11, distance 7
    (28, 14, 0),  # dimension 15, distance 4
    (30, 15, 0),  # dimension 16, distance 4
    (30, 15, 2),  # dimension 16, distance 5
])
def test_information_set_walk_matches_gray_walk(n, m, seed):
    # distance >= 4: the distance walk crosses several weight levels before
    # it stops, and the list walk stops short of the span below radius dim
    g = gen_left_regular(n, m, 6, seed)
    dim = nullspace(g).dimension
    rng = random.Random(seed)
    planted = sample_codeword(g, seed).bits
    near = [0, 1, 2, 3, Fraction(7, 2), 4, 5]
    _check_callers(g, [
        (Word(n, planted), near + [dim - 1, dim, n, 10**9]),
        (Word(n, planted ^ _error_mask(rng, n, 2)), near),
        (Word(n, planted ^ _error_mask(rng, n, 4)), near + [8]),
        (Word(n, rng.getrandbits(n)), near + [6, 7, 8]),
    ])


@pytest.mark.parametrize("n, m, d, seed", [(12, 6, 3, 3), (14, 8, 3, 8), (16, 9, 4, 32)])
def test_distance_walk_lists_the_level_of_the_least_weight(n, m, d, seed):
    # a sum of one word already weighs 2, yet the smallest weight-2 codeword
    # sums two: a walk that stopped once w reached the least weight found
    # would return the wrong witness
    g = gen_left_regular(n, m, d, seed)
    res = min_distance_bruteforce(g)
    basis = nullspace(g).basis
    assert min(vec.bit_count() for vec in basis) == 2
    free_mask = sum(1 << (vec.bit_length() - 1) for vec in basis)
    assert (res.distance, (res.witness.bits & free_mask).bit_count()) == (2, 2)
    _check_callers(g, [(Word(n, random.Random(seed).getrandbits(n)), [0, 1, 2, 3])])


@pytest.mark.parametrize("seed", range(3))
def test_information_set_walk_matches_gray_walk_on_d32_codes(seed):
    # the certify benchmark's shape: dimension 19, distance 4
    g = gen_left_regular(32, 14, 6, seed)
    assert nullspace(g).dimension == 19
    rng = random.Random(seed)
    y = Word(32, sample_codeword(g, seed).bits ^ _error_mask(rng, 32, 3))
    _check_callers(g, [(y, [0, 1, 3, Fraction(7, 2), 4])])


def test_list_walk_of_a_dimension_0_code():
    g = BipartiteGraph(3, 3, 1, ((0,), (1,), (2,)))  # every bit its own check
    assert nullspace(g).dimension == 0
    radii = [0, 1, Fraction(3, 2), 2, 3, 10**9]
    _check_callers(g, [(Word(3, bits), radii) for bits in range(8)])
    assert enumerate_list(g, Word(3, 0b101), 2) == [Word.zero(3)]
    assert enumerate_list(g, Word(3, 0b101), 1) == []


def test_list_radius_may_be_any_nonnegative_real():
    # a codeword at distance 4 is out at radius 7/2: the walk bounds the
    # weight of its sums by floor(radius), and the filter by radius itself
    g = gen_left_regular(30, 15, 6, 0)
    c = sample_codeword(g, 5)
    y = Word(30, c.bits ^ 0b1111)
    assert c in enumerate_list(g, y, 4)
    assert c not in enumerate_list(g, y, Fraction(7, 2))
    assert enumerate_list(g, y, Fraction(7, 2)) == enumerate_list(g, y, 3)
    assert enumerate_list(g, y, 3.5) == enumerate_list(g, y, 3)
    assert enumerate_list(g, y, float("inf")) == enumerate_list(g, y, 30)
    for bad in (-1, Fraction(-1, 2), float("nan")):
        with pytest.raises(InvalidParameters):
            enumerate_list(g, y, bad)


def _error_mask(rng, n, k):
    return sum(1 << i for i in rng.sample(range(n), k))


class TestDistanceLowerBound:
    def test_headline(self):
        p = ExpanderParams(Fraction(1, 10), Fraction(1, 10))
        assert distance_lower_bound(p, 10, 1000).headline == 500

    def test_headline_near_half(self):
        # eps -> 1/2 sends the headline to alpha*N
        p = ExpanderParams(Fraction(1, 10), Fraction(499, 1000))
        assert distance_lower_bound(p, 10, 1000).headline == Fraction(
            1, 10
        ) * 1000 * Fraction(1000, 998)

    def test_tri3_certified_floor(self, tri3):
        p = ExpanderParams(Fraction(2, 3), Fraction(1, 4))
        bound = distance_lower_bound(p, 2, 3)
        assert bound.certified_floor == 2
        assert min_distance_bruteforce(tri3).distance >= bound.certified_floor

    def test_certified_floor_respected_on_verified_graphs(self, decode_instances):
        for inst in decode_instances:
            bound = distance_lower_bound(
                inst.params, inst.graph.d_left, inst.graph.n_left
            )
            assert inst.distance >= bound.certified_floor


class TestSampling:
    def test_tri3_uniform_over_seeds(self, tri3):
        seen = {sample_codeword(tri3, seed).bits for seed in range(64)}
        assert seen == {0, 0b111}

    def test_samples_are_codewords(self):
        g = gen_left_regular(14, 9, 3, 2)
        for seed in range(20):
            assert is_codeword(g, sample_codeword(g, seed))

    def test_plant_errors(self):
        c = parse_word("000")
        assert str(plant_errors(c, [1])) == "010"
        w = parse_word("1011")
        assert plant_errors(plant_errors(w, [0, 3]), [0, 3]) == w

    def test_plant_rejects_bad_positions(self):
        with pytest.raises(InvalidInput):
            plant_errors(parse_word("000"), [3])
        with pytest.raises(InvalidInput):
            plant_errors(parse_word("000"), [1, 1])
