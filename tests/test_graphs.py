import random
from fractions import Fraction

import pytest

from expander_codes import (
    BipartiteGraph,
    ExpanderParams,
    GenerationFailed,
    GraphFormatError,
    InvalidParameters,
    RegularGraph,
    complete_graph,
    gen_biregular,
    gen_left_regular,
    load,
    random_regular_graph,
    store,
    union_graph,
    vertex_edge_graph,
)
from conftest import cyc_graph, tri3_graph


class TestGenLeftRegular:
    def test_forced_single_edge(self):
        g = gen_left_regular(1, 1, 1, seed=5)
        assert g.adj == ((0,),)

    def test_complete_lists_when_d_equals_m(self):
        g = gen_left_regular(3, 3, 3, seed=11)
        assert all(row == (0, 1, 2) for row in g.adj)

    def test_deterministic_for_fixed_seed(self):
        a = gen_left_regular(100, 50, 4, seed=7)
        b = gen_left_regular(100, 50, 4, seed=7)
        assert a == b
        assert a != gen_left_regular(100, 50, 4, seed=8)

    def test_degree_above_m_rejected(self):
        with pytest.raises(InvalidParameters):
            gen_left_regular(4, 3, 4, seed=0)

    def test_adjacency_invariants(self):
        for seed in range(10):
            g = gen_left_regular(20, 11, 5, seed)
            for row in g.adj:
                assert len(row) == 5
                assert all(0 <= r < 11 for r in row)
                assert sorted(set(row)) == list(row)


class TestGenBiregular:
    @pytest.mark.parametrize("n,m,d,want", [(4, 2, 1, 2), (6, 4, 2, 3)])
    def test_right_degrees(self, n, m, d, want):
        g = gen_biregular(n, m, d, seed=1)
        assert set(g.right_degrees) == {want}

    def test_right_degree_histogram_single_spike(self):
        g = gen_biregular(60, 30, 5, seed=3)
        assert g.right_degrees == (10,) * 30

    def test_indivisible_rejected(self):
        with pytest.raises(InvalidParameters):
            gen_biregular(5, 3, 2, seed=0)

    def test_budget_exhaustion_reports_attempts(self):
        # d == m forces every draw to be {0, 1}; with one resample per vertex
        # and one restart, some seed must trip the budget
        with pytest.raises(GenerationFailed) as exc:
            for seed in range(50):
                gen_biregular(8, 2, 2, seed, max_attempts=1, restarts=1)
        assert exc.value.attempts >= 1

    def test_reasonable_parameters_succeed(self):
        g = gen_biregular(12, 9, 3, seed=7)
        assert set(g.right_degrees) == {4}


class TestVertexEdge:
    def test_tri3_fixture(self):
        g = tri3_graph()
        assert (g.n_left, g.m_right, g.d_left) == (3, 3, 2)
        # check i joins bits i and i+1 mod 3
        assert g.right_adj == ((0, 1), (1, 2), (0, 2))

    def test_cycle_shape(self):
        g = cyc_graph(7)
        assert (g.n_left, g.m_right, g.d_left) == (7, 7, 2)
        assert g.d_right_avg == 2
        assert g.d_max == 2

    def test_k4(self):
        g = vertex_edge_graph(complete_graph(4))
        assert (g.n_left, g.m_right, g.d_left) == (4, 6, 3)
        assert set(g.right_degrees) == {2}

    def test_right_degree_always_two(self):
        from expander_codes import random_regular_graph

        for seed in range(5):
            h = random_regular_graph(8, 3, seed)
            g = vertex_edge_graph(h)
            assert set(g.right_degrees) == {2}
            assert g.d_max == 2


def _pairing_loop(n, d, seed, max_attempts):
    """The stub pairing that tested each pair for a loop or a repeated edge
    itself, before ``random_regular_graph`` left that to ``RegularGraph``:
    its graph, or None where it gave up."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        edges, seen = [], set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                break
            seen.add(key)
            edges.append(key)
        else:
            return RegularGraph(n, d, tuple(edges))
    return None


class TestRandomRegular:
    def test_matches_the_pairing_loop(self):
        # a budget of 20 pairings keeps the many failures cheap
        outcomes = set()
        for n in range(3, 16):
            for d in range(1 + n % 2, n, 1 + n % 2):  # n*d even
                for seed in range(6):
                    want = _pairing_loop(n, d, seed, 20)
                    try:
                        got = random_regular_graph(n, d, seed, max_attempts=20)
                    except GenerationFailed as exc:
                        assert want is None and exc.attempts == 20, (n, d, seed)
                    else:
                        assert got == want, (n, d, seed)
                    outcomes.add(want is None)
        assert outcomes == {False, True}


class TestUnion:
    def test_index_shift(self):
        g = union_graph(cyc_graph(3), cyc_graph(4))
        assert (g.n_left, g.m_right) == (7, 7)
        # left vertex 3 is the first vertex of the 4-cycle block
        assert all(3 <= r < 7 for r in g.adj[3])

    def test_empty_unit(self):
        g = cyc_graph(5)
        empty = BipartiteGraph(0, 0, 2, ())
        assert union_graph(g, empty) == g
        assert union_graph(empty, g) == g

    def test_degree_mismatch(self):
        with pytest.raises(InvalidParameters):
            union_graph(tri3_graph(), vertex_edge_graph(complete_graph(4)))


class TestStoreLoad:
    def test_tri3_exact_format(self):
        assert store(tri3_graph()) == "3 3 2\n0 2\n0 1\n1 2\n"

    def test_round_trip_random(self):
        for seed in range(20):
            g = gen_left_regular(12, 7, 3, seed)
            assert load(store(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n3 3 2\n0 2\n# interior\n0 1\n1 2\n"
        assert load(text) == tri3_graph()

    def test_duplicate_neighbor_is_parse_error(self):
        with pytest.raises(GraphFormatError) as exc:
            load("3 3 2\n0 0\n0 1\n1 2\n")
        assert exc.value.line == 2

    def test_out_of_range_index(self):
        with pytest.raises(GraphFormatError):
            load("3 3 2\n0 5\n0 1\n1 2\n")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError) as exc:
            load("3 3\n")
        assert exc.value.line == 1

    def test_missing_rows(self):
        with pytest.raises(GraphFormatError):
            load("3 3 2\n0 2\n0 1\n")


class TestParams:
    def test_validation(self):
        ExpanderParams(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(InvalidParameters):
            ExpanderParams(0, Fraction(1, 4))
        with pytest.raises(InvalidParameters):
            ExpanderParams(Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("alpha", ["abc", "1/0", "-3/0", "", float("nan"),
                                       float("inf")])
    def test_uninterpretable_alpha(self, alpha):
        with pytest.raises(InvalidParameters):
            ExpanderParams(alpha, "1/8")

    def test_s_max(self):
        p = ExpanderParams(Fraction(1, 3), Fraction(1, 10))
        assert p.s_max(10) == 3
        with pytest.raises(InvalidParameters):
            p.s_max(2)

    def test_derived_right_stats(self):
        g = tri3_graph()
        assert g.d_right_avg == Fraction(2)
        assert g.d_max == 2
        assert g.d_max >= -(-g.n_left * g.d_left // g.m_right)
