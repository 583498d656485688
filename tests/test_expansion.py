import math
import random
from fractions import Fraction

import pytest

import expander_codes.expansion as expansion
from expander_codes import (
    BipartiteGraph,
    BudgetExceeded,
    ExpanderParams,
    InvalidInput,
    InvalidParameters,
    collisions,
    complete_graph,
    cycle_graph,
    gen_biregular,
    gen_left_regular,
    measure_profile,
    neighbors,
    odd_neighbors,
    parameter_facts,
    profile_to_csv,
    tradeoff_bound_first,
    tradeoff_bound_second,
    union_graph,
    unique_neighbors,
    vertex_edge_graph,
    verify_expander,
)
from expander_codes.expansion import FactCheck
from conftest import cyc_graph


class TestNeighborSets:
    def test_single_vertex(self, tri3):
        assert neighbors(tri3, [0]) == {0, 2}
        assert unique_neighbors(tri3, [0]) == {0, 2}
        assert odd_neighbors(tri3, [0]) == {0, 2}

    def test_pair(self, tri3):
        assert neighbors(tri3, [0, 1]) == {0, 1, 2}
        assert unique_neighbors(tri3, [0, 1]) == {1, 2}
        assert odd_neighbors(tri3, [0, 1]) == {1, 2}

    def test_whole_set(self, tri3):
        assert unique_neighbors(tri3, [0, 1, 2]) == set()
        assert odd_neighbors(tri3, [0, 1, 2]) == set()

    def test_out_of_range(self, tri3):
        with pytest.raises(InvalidInput):
            neighbors(tri3, [3])

    def test_containments_random(self):
        rng = random.Random(0)
        for seed in range(20):
            g = gen_left_regular(12, 8, 3, seed)
            s = rng.sample(range(12), rng.randint(1, 6))
            nb = neighbors(g, s)
            uq = unique_neighbors(g, s)
            od = odd_neighbors(g, s)
            assert uq <= od <= nb
            # counting identity: |unique| >= 2|Gamma| - D|S|
            assert len(uq) >= 2 * len(nb) - g.d_left * len(s)

    def test_monotone_in_set(self):
        rng = random.Random(1)
        for seed in range(20):
            g = gen_left_regular(12, 8, 3, seed)
            s = rng.sample(range(12), 4)
            assert neighbors(g, s[:2]) <= neighbors(g, s)


class TestProfile:
    def test_tri3_exhaustive(self, tri3):
        prof = measure_profile(tri3, 3)
        assert prof.min_neighbors == (2, 3, 3)
        assert prof.mode == "exhaustive"
        # witnesses attain the minima exactly
        for s in range(1, 4):
            assert len(neighbors(tri3, prof.witnesses[s - 1])) == prof.min_at(s)

    def test_cyc5(self):
        prof = measure_profile(cyc_graph(5), 5)
        assert prof.min_neighbors == (2, 3, 4, 5, 5)

    def test_singleton_is_degree(self):
        for seed in range(5):
            g = gen_left_regular(10, 7, 4, seed)
            assert measure_profile(g, 1).min_at(1) == 4

    def test_min_neighbors_nondecreasing(self):
        for seed in range(5):
            g = gen_left_regular(10, 7, 3, seed)
            prof = measure_profile(g, 10)
            assert list(prof.min_neighbors) == sorted(prof.min_neighbors)

    def test_budget_refusal(self):
        g = gen_left_regular(20, 12, 3, 0)
        with pytest.raises(BudgetExceeded) as exc:
            measure_profile(g, 20, budget=100)
        assert exc.value.required == 2**20 - 1

    def test_sampled_budget_refusal(self):
        # the budget bounds the trials * s_max subsets a sampled run draws
        g = gen_left_regular(20, 12, 3, 0)
        with pytest.raises(BudgetExceeded) as exc:
            measure_profile(g, 3, mode="sampled", trials=4, budget=11)
        assert exc.value.required == 12
        assert measure_profile(g, 3, mode="sampled", trials=4, budget=12).trials == 4
        with pytest.raises(BudgetExceeded):
            verify_expander(
                g, ExpanderParams(Fraction(3, 20), Fraction(1, 4)), "sampled",
                trials=4, budget=11,
            )

    def test_sampled_upper_bounds_exhaustive(self):
        g = gen_left_regular(12, 8, 3, 3)
        exact = measure_profile(g, 4)
        sampled = measure_profile(g, 4, mode="sampled", trials=300, seed=1)
        assert sampled.mode == "sampled" and sampled.trials == 300
        for s in range(1, 5):
            assert sampled.min_at(s) >= exact.min_at(s)

    def test_edgeless_measured_eps_raises(self):
        prof = measure_profile(BipartiteGraph(3, 2, 0, ((),) * 3), 2)
        assert prof.min_neighbors == (0, 0)
        with pytest.raises(InvalidInput, match="no edges"):
            prof.measured_eps()

    def test_csv_export(self, tri3):
        text = profile_to_csv(measure_profile(tri3, 2))
        lines = text.strip().splitlines()
        assert lines[0] == "size,min_neighbors,expansion_ratio,witness,mode"
        assert lines[1] == "1,2,2,0,exhaustive"
        assert lines[2].startswith("2,3,3/2,")


def _full_profile(g, s_max):
    """The exhaustive walk before branch and bound: every subset, in DFS order."""
    n = g.n_left
    masks = g.left_masks
    best = [None] * (s_max + 1)
    wit = [None] * (s_max + 1)
    stack_members = []

    def rec(start, depth, cur):
        for v in range(start, n):
            merged = cur | masks[v]
            stack_members.append(v)
            size = depth + 1
            cnt = merged.bit_count()
            if best[size] is None or cnt < best[size]:
                best[size] = cnt
                wit[size] = tuple(stack_members)
            if size < s_max:
                rec(v + 1, size, merged)
            stack_members.pop()

    rec(0, 0, 0)
    return expansion.ExpansionProfile(
        n, g.d_left, s_max, tuple(best[1:]), tuple(wit[1:]), "exhaustive"
    )


def _certify_graphs():
    """(graph, s_max) shaped like perfbench's certify inputs, seeded as its seed 1."""
    rng = random.Random("certify:1")
    shapes = (
        (24, 18, 6), (32, 24, 4), (36, 27, 5), (36, 27, 5),
        (26, 12, 4), (30, 13, 4), (32, 14, 4), (28, 12, 4),
    )
    return [(gen_left_regular(n, m, 6, rng.getrandbits(32)), s) for n, m, s in shapes]


def _tiny_graphs():
    """(graph, s_max) for 320 seeded left-regular graphs with D from 1 to 6,
    tie-heavy unions and vertex-edge graphs, and an edgeless graph."""
    rng = random.Random(11)
    cases = []
    for seed in range(320):
        d = 1 + seed % 6
        n = rng.randint(2, 10)
        g = gen_left_regular(n, rng.randint(d, d + 6), d, seed)
        cases.append((g, rng.randint(1, n)))
    twin = gen_left_regular(5, 6, 3, 1)
    cases.append((union_graph(twin, twin), 6))
    cases.append((union_graph(cyc_graph(4), cyc_graph(3)), 7))
    cases.append((vertex_edge_graph(complete_graph(5)), 5))
    cases.append((vertex_edge_graph(cycle_graph(8)), 8))
    cases.append((BipartiteGraph(4, 2, 0, ((),) * 4), 4))
    return cases


_EPS_GRID = (Fraction(1, 100), Fraction(1, 6), Fraction(1, 3), Fraction(49, 100))


class TestBranchAndBound:
    def _assert_matches_full_walk(self, monkeypatch, cases):
        verdicts = set()
        for g, s_max in cases:
            pruned = measure_profile(g, s_max)
            full = _full_profile(g, s_max)
            assert pruned.min_neighbors == full.min_neighbors
            assert pruned.witnesses == full.witnesses
            assert profile_to_csv(pruned) == profile_to_csv(full)
            params = [
                ExpanderParams(Fraction(s, g.n_left), e)
                for s in {max(1, s_max // 2), s_max}
                for e in _EPS_GRID
            ]
            got = [verify_expander(g, p) for p in params]
            with monkeypatch.context() as m:
                m.setattr(expansion, "_profile_exhaustive", _full_profile)
                want = [verify_expander(g, p) for p in params]
            assert got == want
            verdicts.update(r.passed for r in got)
        assert verdicts == {True, False}

    def test_certify_graphs_match_full_walk(self, monkeypatch):
        self._assert_matches_full_walk(monkeypatch, _certify_graphs())

    def test_tiny_graphs_match_full_walk(self, monkeypatch):
        self._assert_matches_full_walk(monkeypatch, _tiny_graphs())

    def test_visits_a_tenth_of_the_subsets(self):
        class CountingMasks(tuple):
            reads = 0

            def __getitem__(self, i):
                CountingMasks.reads += 1
                return tuple.__getitem__(self, i)

        g, s_max = _certify_graphs()[2]
        assert (g.n_left, s_max) == (36, 5)
        g.__dict__["left_masks"] = CountingMasks(g.left_masks)
        total = sum(math.comb(36, s) for s in range(1, 6))
        measure_profile(g, s_max)
        assert 0 < CountingMasks.reads < total // 10
        # the budget still counts every subset, not the ones the walk visits
        with pytest.raises(BudgetExceeded) as exc:
            measure_profile(g, s_max, budget=total - 1)
        assert exc.value.required == total


class TestVerify:
    def test_tri3_pass_small_alpha(self, tri3):
        assert verify_expander(tri3, ExpanderParams(Fraction(1, 3), Fraction(1, 10))).passed

    def test_tri3_counterexample(self, tri3):
        res = verify_expander(tri3, ExpanderParams(Fraction(2, 3), Fraction(1, 5)))
        assert not res.passed
        assert res.failing_size == 2
        assert len(res.counterexample) == 2
        assert len(neighbors(tri3, res.counterexample)) == 3  # 3 < ceil(0.8*4)

    def test_tri3_pass_at_quarter(self, tri3):
        assert verify_expander(tri3, ExpanderParams(Fraction(2, 3), Fraction(1, 4))).passed


class TestTradeoffBounds:
    def setup_method(self):
        self.params = ExpanderParams(Fraction(1, 10), Fraction(1, 10))

    def test_first_at_k1_is_definition(self):
        b = tradeoff_bound_first(self.params, d=10, n=100, k=1)
        assert b.slack == 0
        assert b.bound_edges == Fraction(9, 10) * 10 * 10  # (1-eps)*D*alphaN

    def test_first_eps_zero(self):
        p = ExpanderParams(Fraction(1, 10), Fraction(1, 10**9))
        b = tradeoff_bound_first(p, d=10, n=100, k=3)
        assert b.bound_edges == pytest.approx(10 * 30, abs=1e-3)

    def test_first_worked_example(self):
        b = tradeoff_bound_first(self.params, d=10, n=100, k=2)
        assert b.size == 20
        assert b.bound_edges == 160 - Fraction(20, 9)
        assert b.slack == Fraction(20, 9)

    def test_first_rejects_small_k(self):
        with pytest.raises(InvalidParameters):
            tradeoff_bound_first(self.params, 10, 100, Fraction(1, 2))

    def test_second_worked_example(self):
        # normalized D*alpha*N = 1: use D=10, alpha*N=1/10... simpler n=100,
        # alpha=1/100, d=1 -> D*alpha*N = 1
        p = ExpanderParams(Fraction(1, 100), Fraction(1, 10))
        b = tradeoff_bound_second(p, d=1, n=100, k=6)
        assert b.bound_edges == Fraction(111, 40)  # 2.775
        assert b.slack == 0

    def test_second_range_flag(self):
        p = self.params
        # eps = 1/10: LP range is [5, (1+sqrt(1-2/15))/(1/5)]
        assert not tradeoff_bound_second(p, 10, 100, 2).in_lp_range
        assert tradeoff_bound_second(p, 10, 100, 5).in_lp_range
        assert tradeoff_bound_second(p, 10, 100, Fraction(19, 2)).in_lp_range
        assert not tradeoff_bound_second(p, 10, 100, 12).in_lp_range

    def test_coincidence_at_half_inverse_eps(self):
        for eps in (Fraction(1, 10), Fraction(1, 6), Fraction(1, 4)):
            p = ExpanderParams(Fraction(1, 10), eps)
            k = 1 / (2 * eps)
            second = tradeoff_bound_second(p, d=7, n=200, k=k)
            leading = (1 - eps * k) * 7 * k * p.alpha * 200
            assert second.bound_edges == leading == 7 * p.alpha * 200 / (4 * eps)

    def test_bound_never_exceeds_total_degree(self):
        for k in (Fraction(3, 2), 2, 3, 5):
            b = tradeoff_bound_first(self.params, 10, 100, k)
            assert b.bound_edges <= 10 * b.size
            b2 = tradeoff_bound_second(self.params, 10, 100, k)
            assert b2.bound_edges <= 10 * k * self.params.alpha * 100


class TestParameterFacts:
    def test_tri3_equality_case(self, tri3):
        facts = parameter_facts(1, Fraction(1, 2), d=2, d_r=2, m=3, n=3)
        assert facts.eps_min.holds and facts.eps_min.margin == 0

    def test_unattainable_eps(self):
        facts = parameter_facts(Fraction(1, 100), Fraction(1, 20), d=10, d_r=8, m=10, n=100)
        assert not facts.eps_min.holds

    @pytest.mark.parametrize("alpha, eps", [(Fraction(1, 10), 0), (0, Fraction(1, 10))])
    def test_non_positive_alpha_or_eps(self, alpha, eps):
        with pytest.raises(InvalidParameters):
            parameter_facts(alpha, eps, 6, 8, 10, 10)

    def test_ratio_fact(self):
        facts = parameter_facts(Fraction(1, 100), Fraction(1, 10), d=10, d_r=8, m=10, n=100)
        assert facts.alpha_ratio.holds  # 1/40 <= 1/8
        assert facts.alpha_ratio.margin == Fraction(1, 8) - Fraction(1, 40)

    def test_sharp_form_on_generated_graph(self):
        g = gen_biregular(60, 30, 5, seed=3)
        assert g.d_right_avg == 10
        facts = parameter_facts(
            Fraction(1, 20), Fraction(1, 4), d=5, d_r=g.d_right_avg, m=30, n=60
        )
        assert facts.alpha_ratio_sharp.applicable
        assert facts.alpha_ratio_sharp.holds
        # sharp form implies the plain form here
        assert facts.alpha_ratio.holds


class TestFactCheck:
    def test_comparisons_match_hand_built_checks(self):
        rng = random.Random(0)
        ties = 0
        for _ in range(400):
            lhs = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rhs = lhs if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            ties += lhs == rhs
            applicable, note = rng.random() < 0.5, rng.choice(["", "a note"])
            assert FactCheck.at_least("c", lhs, rhs, applicable=applicable, note=note) == (
                FactCheck("c", applicable, lhs >= rhs, lhs, rhs, lhs - rhs, note))
            assert FactCheck.at_most("c", lhs, rhs, applicable=applicable, note=note) == (
                FactCheck("c", applicable, lhs <= rhs, lhs, rhs, rhs - lhs, note))
        assert ties > 50


class TestCollisions:
    def test_examples(self, tri3):
        assert collisions(tri3, [0]).collisions == 0
        assert collisions(tri3, [0]).gamma == 0
        r = collisions(tri3, [0, 1])
        assert (r.collisions, r.gamma) == (1, Fraction(1, 4))
        r = collisions(tri3, [0, 1, 2])
        assert (r.collisions, r.gamma) == (3, Fraction(1, 2))

    def test_empty_set(self, tri3):
        assert collisions(tri3, []).gamma == 0

    def test_edgeless_graph_raises(self):
        g = BipartiteGraph(3, 2, 0, ((),) * 3)
        assert collisions(g, []).gamma == 0
        with pytest.raises(InvalidInput, match="no edges"):
            collisions(g, [0, 2])

    def test_containment(self):
        rng = random.Random(7)
        for seed in range(20):
            g = gen_left_regular(12, 8, 3, seed)
            f = rng.sample(range(12), 6)
            sub = rng.sample(f, 3)
            assert collisions(g, sub).collisions <= collisions(g, f).collisions
