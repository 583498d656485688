import math
import random
from fractions import Fraction

import pytest

from expander_codes import (
    ConvergenceFailed,
    InvalidInput,
    InvalidParameters,
    Word,
    enumerate_list,
    gen_left_regular,
    improved_radius,
    johnson_radius,
    min_distance_bruteforce,
    nullspace,
    parse_word,
    sample_codeword,
    tau_profile,
    threshold_claim_check,
    union_graph,
)
from conftest import cyc_graph, tri3_graph


class TestJohnson:
    def test_zero(self):
        assert johnson_radius(0) == 0

    def test_perfect_square_is_exact(self):
        assert johnson_radius(Fraction(18, 100)) == Fraction(1, 10)
        assert isinstance(johnson_radius(Fraction(18, 100)), Fraction)

    def test_boundary(self):
        assert johnson_radius(Fraction(1, 2)) == Fraction(1, 2)
        assert johnson_radius(0.5) == 0.5

    def test_above_half_rejected(self):
        with pytest.raises(InvalidParameters):
            johnson_radius(0.51)

    def test_monotone_and_below_delta(self):
        values = [float(johnson_radius(d / 100)) for d in range(1, 51)]
        assert values == sorted(values)
        for d, r in zip(range(1, 51), values):
            assert r <= d / 100 + 1e-15


class TestImprovedRadius:
    def test_worked_example(self):
        b = improved_radius(Fraction(5, 100), 9)
        assert b.regime == "fixed-point"
        assert b.rho_star >= (0.05 / 2) / (1 - 0.04 / 9)
        assert b.residual <= 1e-12

    def test_non_convergence_is_typed(self):
        # a negative tolerance no residual can meet forces the branch
        with pytest.raises(ConvergenceFailed, match="did not converge") as info:
            improved_radius(Fraction(5, 100), 9, tol=-1.0)
        assert not isinstance(info.value, InvalidParameters)

    def test_mixture_identity(self):
        b = improved_radius(Fraction(4, 100), 20)
        assert b.regime == "fixed-point"
        assert b.n_h * b.theta + (1 - b.n_h) * b.e == pytest.approx(
            b.rho_star, abs=1e-12
        )

    def test_large_dmax_falls_back_to_half_delta(self):
        delta = 0.05
        b = improved_radius(delta, 10**6)
        assert b.regime == "fallback"
        assert b.rho_star == pytest.approx(delta / 2, rel=1e-6)

    def test_beats_johnson_under_claim_conditions(self):
        # one representative point; the 100-point grid runs in acceptance
        delta = Fraction(1, 25)
        d_r = math.floor(1 / (0.665 * float(delta)))
        d_max = math.floor(1.1 * d_r)
        b = improved_radius(delta, d_max, alpha=2 * delta * Fraction(1, 8),
                            eps=Fraction(1, 8), d_r=d_r)
        assert all(b.claim_conditions.values())
        assert b.rho_star > b.johnson_r

    def test_floor_bound_all_regimes(self):
        for d_max in (2, 5, 9, 40, 1000):
            b = improved_radius(Fraction(1, 30), d_max)
            assert b.rho_star >= float(Fraction(1, 60)) / (1 - 0.04 / d_max) - 1e-15


class TestThresholdClaim:
    def test_claim_point(self):
        rep = threshold_claim_check(Fraction(1, 100), Fraction(1, 10), 33, 30)
        assert rep.delta == Fraction(1, 20)
        assert all(c.holds for c in rep.conditions)
        assert rep.johnson_below.applicable and rep.johnson_below.holds
        # Taylor: r is at most 1.06 * delta/2 = 0.0265
        assert float(rep.johnson_below.lhs) <= 1.06 * float(rep.delta) / 2
        assert rep.theta_above.applicable and rep.theta_above.holds
        # theta >= (0.9/1.1) * 0.3325 * (alpha/eps) ~ 0.272 * alpha/eps
        assert rep.theta_above.lhs >= Fraction(272, 1000) * Fraction(1, 10)

    @pytest.mark.parametrize("d_max, d_r", [(33, 0), (0, 30)])
    def test_non_positive_degree(self, d_max, d_r):
        with pytest.raises(InvalidParameters):
            threshold_claim_check(Fraction(1, 100), Fraction(1, 10), d_max, d_r)

    def test_improved_radius_huge_delta(self):
        with pytest.raises(InvalidParameters):
            improved_radius(Fraction(10**400), 9)

    def test_improved_radius_zero_eps(self):
        with pytest.raises(InvalidParameters):
            improved_radius(Fraction(1, 20), 9, alpha=Fraction(1, 10), eps=0)

    def test_gate_failure_makes_no_assertion(self):
        rep = threshold_claim_check(Fraction(2, 100), Fraction(1, 10), 33, 30)
        assert not all(c.holds for c in rep.conditions)
        assert not rep.johnson_below.applicable


class TestEnumerateList:
    def test_tri3_radius_one(self, tri3):
        lst = enumerate_list(tri3, parse_word("000"), 1)
        assert [w.bits for w in lst] == [0]

    def test_tri3_radius_two(self, tri3):
        lst = enumerate_list(tri3, parse_word("100"), 2)
        assert [w.bits for w in lst] == [0, 0b111]

    def test_unique_decoding_region(self):
        for g in (tri3_graph(), cyc_graph(5), union_graph(tri3_graph(), tri3_graph())):
            d = min_distance_bruteforce(g).distance
            radius = math.ceil(d / 2) - 1
            for bits in range(1 << g.n_left):
                assert len(enumerate_list(g, Word(g.n_left, bits), radius)) <= 1


class TestTauProfile:
    def test_tri3_example(self, tri3):
        y = parse_word("100")
        lst = enumerate_list(tri3, y, 2)
        prof = tau_profile(tri3, y, lst)
        assert prof.tau == (1, 1, 1)
        assert prof.sum_tau == 3
        assert prof.triple_count == 3
        assert prof.triple_lower_bound == math.comb(2, 2) * 3
        assert prof.triple_count >= prof.triple_lower_bound
        assert prof.gamma_odd_consistent
        assert prof.gamma_odd_size == 2  # odd neighbors of 100: checks 0 and 2

    def test_singleton_list(self, tri3):
        prof = tau_profile(tri3, parse_word("100"), [Word.zero(3)])
        assert set(prof.tau) <= {0, 1}
        assert prof.triple_count == 0

    def test_non_codeword_rejected(self, tri3):
        with pytest.raises(InvalidInput):
            tau_profile(tri3, parse_word("100"), [parse_word("100")])

    def test_overstated_distance_rejected(self, tri3):
        y = parse_word("100")
        lst = enumerate_list(tri3, y, 2)
        with pytest.raises(InvalidInput):
            tau_profile(tri3, y, lst, d_min=50)

    def test_distance_read_from_the_graph_matches_an_explicit_one(self):
        # tau_profile reads d_min from the graph's cached distance; it equals
        # the profile given that distance, also on a freshly built graph
        rng = random.Random(4)
        g = gen_left_regular(28, 12, 6, 1)
        c = sample_codeword(g, 2)
        d_min = min_distance_bruteforce(gen_left_regular(28, 12, 6, 1)).distance
        for k in (1, 2, 3):
            y = Word(28, c.bits ^ sum(1 << i for i in rng.sample(range(28), k)))
            lst = enumerate_list(g, y, 4)
            assert len(lst) >= 2
            prof = tau_profile(g, y, lst)
            assert prof == tau_profile(g, y, lst, d_min=d_min)
            assert prof == tau_profile(gen_left_regular(28, 12, 6, 1), y, lst)
            assert prof.d_min == d_min

    def test_sum_tau_bounded_by_radius(self):
        g = cyc_graph(6)
        rng = random.Random(0)
        for _ in range(20):
            y = Word(6, rng.getrandbits(6))
            radius = rng.randint(0, 4)
            lst = enumerate_list(g, y, radius)
            if not lst:
                continue
            prof = tau_profile(g, y, lst)
            assert prof.sum_tau <= radius * prof.list_size

    def test_heavy_matches_fraction_cut(self):
        # tau[i] >= theta * L compared exactly in Fractions, per position.
        # theta * L = 9 L / (10 D_max) is an integer only for L a multiple of
        # 10, so prefixes of 10 and 20 codewords reach the equality case
        rng = random.Random(3)
        ties = below = 0
        for case in range(150):
            n = rng.randint(3, 14)
            d = rng.choice((1, 2, 3))
            g = gen_left_regular(n, rng.randint(d, max(d, n // 2)), d, case)
            if nullspace(g).dimension == 0:
                continue
            y = Word(n, rng.getrandbits(n))
            lst = enumerate_list(g, y, rng.randint(0, n))
            for size in {len(lst), 10, 20}:
                if not 0 < size <= len(lst):
                    continue
                prof = tau_profile(g, y, lst[:size])
                cut = prof.theta * size
                assert prof.heavy == tuple(i for i in range(n) if prof.tau[i] >= cut)
                ties += cut in prof.tau
                below += math.floor(cut) in prof.tau and math.floor(cut) < cut
        assert ties and below
