import bisect
import itertools
import math
import random
import sys
import traceback
import tracemalloc
from fractions import Fraction

import pytest

from expander_codes import (
    BipartiteGraph,
    DecodeOutcome,
    ErasureConfig,
    ExpanderParams,
    FindConfig,
    FindTrace,
    GuessSchedule,
    InvalidInput,
    InvalidParameters,
    Word,
    collisions,
    decode_erasures,
    find_suspects,
    fixed_find_and_decode,
    flip_decode_ss,
    flip_round,
    gen_left_regular,
    guess_expansion_decode_grid,
    guess_expansion_decode_poly,
    guess_flip_decode,
    min_distance_bruteforce,
    parse_word,
    plant_errors,
    sample_codeword,
    scaled_guess_flip_decode,
    syndrome,
    unique_neighbors,
    viderman_decode,
)
from expander_codes import decoders
from expander_codes.decoders import (
    ExpansionGuess,
    _at_least,
    _cut,
    _cut_steps,
    _find_and_erase,
    _flip_cuts,
)
from expander_codes.linear_code import syndrome_bits
from conftest import cyc_graph


class TestFindConfig:
    def test_plain_threshold_exactness(self):
        h = FindConfig.from_delta(Fraction(1, 4)).effective_threshold(4)  # (1/2) * d
        assert 2 >= h and not 1 >= h

    def test_sqrt_threshold_exactness(self):
        # delta = sqrt(1/16) = 1/4 exactly: same admissions as plain 1/4
        h = FindConfig(Fraction(1, 16), 0).effective_threshold(4)
        for c in range(5):
            assert (c >= h) == (c >= FindConfig.from_delta(Fraction(1, 4)).effective_threshold(4))

    def test_effective_threshold(self):
        assert FindConfig.from_delta(0).effective_threshold(4) == 4
        assert FindConfig.from_delta(Fraction(1, 4)).effective_threshold(4) == 2
        assert FindConfig(0, Fraction(49, 100)).effective_threshold(50) == 1

    def test_from_delta_range(self):
        with pytest.raises(InvalidParameters):
            FindConfig.from_delta(Fraction(1, 2))

    def test_admits_is_the_effective_threshold_cut(self):
        # a count c passes c >= (1 - 2*(sqrt(q) + s))*D, that is
        # (D - c)/(2D) - s <= sqrt(q), exactly when c >= effective_threshold
        qs = (0, Fraction(1, 100), Fraction(1, 16), Fraction(1, 9),
              Fraction(3, 50), Fraction(1, 5), Fraction(1, 4))
        ss = (0, Fraction(1, 10), Fraction(1, 8), Fraction(1, 4),
              Fraction(2, 5), Fraction(49, 100))
        for q in qs:
            for s in ss:
                cfg = FindConfig(q, s)
                for d in (1, 2, 3, 4, 5, 6, 7, 8, 50):
                    h = cfg.effective_threshold(d)
                    for c in range(d + 1):
                        gap = Fraction(d - c, 2 * d) - s
                        assert (gap <= 0 or gap * gap <= q) == (c >= h), (q, s, d, c)

    def test_degree_zero_admits_every_count(self):
        # (1 - 2 delta) * 0 = 0: count 0 passes, with no division by D
        assert FindConfig().effective_threshold(0) == 0
        assert FindConfig(Fraction(1, 9), Fraction(1, 3)).effective_threshold(0) == 0


def _scan_cut(d, q, s):
    """The former FindConfig.effective_threshold: the first count in [0, D]
    that the former admits passes, comparing t - s with sqrt(q) squared."""
    for c in range(d + 1):
        t = Fraction(d - c, 2 * d)
        if t <= s:
            return c
        diff = t - s
        if q >= diff * diff:
            return c
    return d + 1


def _rational(rng, top, at_most):
    """A random rational in [0, at_most] with denominator up to ``top``."""
    den = rng.randint(1, top)
    return Fraction(rng.randint(0, int(den * at_most)), den)


class TestCut:
    def test_matches_scan_on_random_thresholds(self):
        rng = random.Random(31)
        degrees = list(range(1, 65)) + [1000]
        for n in range(3000):
            top = 10**6 if n % 10 else 2**70  # every tenth past 2^64
            d = degrees[n % len(degrees)] if n < 2 * len(degrees) else rng.randint(1, 64)
            q, s = _rational(rng, top, Fraction(1, 4)), _rational(rng, top, Fraction(1, 2))
            if n % 7 == 0:
                q = Fraction(0)
            assert _cut(d, q, s) == _scan_cut(d, q, s), (d, q, s)

    def test_large_delta_cuts_to_zero(self):
        for d in (1, 2, 7, 64, 1000):
            for s in (Fraction(1, 2), Fraction(3, 5), Fraction(7), Fraction(2**65 + 1, 2**65)):
                assert _cut(d, 0, s) == _scan_cut(d, Fraction(0), s) == 0
            assert _cut(d, Fraction(1, 4), 0) == _cut(d, Fraction(5), Fraction(1, 3)) == 0
            assert _cut(d, 0, 0) == d

    def test_perfect_square_boundaries(self):
        # q = ((D - c)/(2D) - s)^2 puts sqrt(q) exactly on the count c, so the
        # scan stops at c; a hair below it, at c + 1. The scan costs O(D) per
        # boundary, so D = 1000 checks those two known answers only
        rng = random.Random(32)
        hair = Fraction(1, 10**30)
        for d in list(range(1, 65)) + [1000]:
            for s in (Fraction(0), Fraction(1, 7), _rational(rng, 10**6, Fraction(1, 2))):
                for c in range(d + 1):
                    root = Fraction(d - c, 2 * d) - s
                    q = root * root
                    if d <= 64:
                        assert _cut(d, q, s) == _scan_cut(d, q, s), (d, q, s)
                        if q:
                            assert _cut(d, q - hair, s) == _scan_cut(d, q - hair, s), (d, q, s)
                    if root > 0:
                        assert (_cut(d, q, s), _cut(d, q - hair, s)) == (c, c + 1), (d, q, s)

    def test_flip_cuts_are_the_former_ceils(self):
        rng = random.Random(33)
        for _ in range(2000):
            d = rng.randint(0, 64)
            # ss-flip: tf in (1/2, 1] gives ceil(tf D) with s = (1 - tf)/2
            den = rng.randint(1, 10**6)
            tf = Fraction(rng.randint(den // 2 + 1, den), den)
            assert _cut(d, 0, (1 - tf) / 2) == math.ceil(tf * d), (d, tf)
            # flip_round and the guess-flip cuts: gamma in [0, 1] gives
            # ceil((1 - 3 gamma) D), which _at_least reads as 0 when negative
            gamma = _rational(rng, 10**6, 1)
            assert _cut(d, 0, 3 * gamma / 2) == max(0, math.ceil((1 - 3 * gamma) * d)), (d, gamma)
        for d in range(0, 13):
            for tf in (Fraction(1, 2) + Fraction(1, 10**9), Fraction(2, 3), Fraction(1)):
                assert _cut(d, 0, (1 - tf) / 2) == math.ceil(tf * d)
            for gamma in (Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(1)):
                assert _cut(d, 0, 3 * gamma / 2) == max(0, math.ceil((1 - 3 * gamma) * d))

    def test_flip_round_flips_at_the_former_cut(self, decode_instances):
        rng = random.Random(34)
        for inst in decode_instances:
            g = inst.graph
            for _ in range(10):
                y = Word(g.n_left, rng.getrandbits(g.n_left))
                gamma = _rational(rng, 60, 1)
                word, rep = flip_round(g, y, gamma)
                need = (1 - 3 * gamma) * g.d_left
                l0 = _at_least(g, syndrome_bits(g, y.bits), [math.ceil(need)])[0]
                assert word.bits == y.bits ^ l0 and rep.threshold == need


def _three_branch_find(g, y, cfg, order="ascending", seed=None, prefer=None):
    """The former pick loop of find_suspects: a seeded choice, max or min over
    the pending vertices (preferred ones first), rescanned on every pick."""
    rng = random.Random(seed) if order == "random" else None
    pref = frozenset(prefer) if prefer is not None else frozenset()
    h = cfg.effective_threshold(g.d_left)
    r_mask = syndrome_bits(g, y.bits)
    counts = [(m & r_mask).bit_count() for m in g.left_masks]
    in_l = [False] * g.n_left
    pending = {i for i in range(g.n_left) if counts[i] >= h}
    added = []
    while pending:
        pick_from = pending & pref or pending
        if rng is not None and len(pick_from) > 1:
            i = rng.choice(sorted(pick_from))
        elif order == "descending" and not (pending & pref):
            i = max(pick_from)
        else:
            i = min(pick_from)
        pending.discard(i)
        in_l[i] = True
        added.append(i)
        new_checks = g.left_masks[i] & ~r_mask
        r_mask |= g.left_masks[i]
        for c in range(g.m_right):
            if (new_checks >> c) & 1:
                for u in g.right_adj[c]:
                    counts[u] += 1
                    if not in_l[u] and counts[u] >= h:
                        pending.add(u)
    return FindTrace(tuple(added), sum(1 << i for i in added), r_mask)


class TestFindSuspects:
    def test_no_unsatisfied_checks(self, tri3):
        trace = find_suspects(tri3, Word.zero(3), FindConfig.from_delta(0))
        assert trace.order == ()

    def test_tri3_delta_zero(self, tri3):
        trace = find_suspects(tri3, parse_word("100"), FindConfig.from_delta(0))
        assert trace.l_set == {0}
        assert trace.r_mask == 0b101  # R = checks 0 and 2

    def test_growth_monotone(self, decode_instances):
        # R is the unsatisfied checks and the checks of L, and it closes L:
        # every vertex outside L has fewer than h checks in R
        g = decode_instances[0].graph
        y = Word.from_support(g.n_left, [0, 3])
        cfg = FindConfig.from_delta(Fraction(1, 3))
        trace = find_suspects(g, y, cfg)
        r_mask = syndrome_bits(g, y.bits)
        for i in trace.order:
            r_mask |= g.left_masks[i]
        assert trace.r_mask == r_mask and trace.size > 0
        h = cfg.effective_threshold(g.d_left)
        for i in range(g.n_left):
            assert ((g.left_masks[i] & r_mask).bit_count() >= h) == (i in trace.l_set), i

    def test_prefer_positions_are_range_checked(self):
        g = gen_left_regular(10, 6, 3, 0)
        y = Word.from_support(10, [2])
        cfg = FindConfig.from_delta(Fraction(1, 4))
        for prefer in ([100, -3], [9, 10], [-1]):
            with pytest.raises(InvalidInput):
                find_suspects(g, y, cfg, prefer=prefer)
        # a non-integer position fails as it does in every other position list
        for call in (lambda: find_suspects(g, y, cfg, prefer=["a"]),
                     lambda: Word.from_support(10, ["a"])):
            with pytest.raises(TypeError):
                call()
        assert find_suspects(g, y, cfg, prefer=[9, 0]).l_set == find_suspects(g, y, cfg).l_set

    def test_tri3_delta_quarter(self, tri3):
        trace = find_suspects(
            tri3, parse_word("100"), FindConfig.from_delta(Fraction(1, 4))
        )
        assert trace.l_set == {0, 1, 2}

    def test_order_independence_disciplines(self):
        rng = random.Random(0)
        for case in range(300):
            g = gen_left_regular(10, 7, 3, case % 20)
            y = Word(10, rng.getrandbits(10))
            cfg = FindConfig.from_delta(Fraction(rng.randrange(0, 12), 24))
            runs = [
                find_suspects(g, y, cfg, order="ascending").l_set,
                find_suspects(g, y, cfg, order="descending").l_set,
                find_suspects(g, y, cfg, order="random", seed=case).l_set,
            ]
            assert runs[0] == runs[1] == runs[2]

    def test_heap_picks_match_three_branch_loop(self):
        rng = random.Random(5)
        graphs = []
        for seed in range(60):
            n = rng.randint(1, 40)
            d = rng.randint(1, 6)
            graphs.append(gen_left_regular(n, rng.randint(d, max(d, n)), d, seed))
        cfgs = [
            FindConfig(Fraction(0), Fraction(1, 2)),  # h = 0
            FindConfig(Fraction(1, 4), Fraction(0)),  # h = 0 through the sqrt
            FindConfig.from_delta(0),  # h = D
        ]
        seen = set()
        for case in range(1200):
            g = graphs[case % len(graphs)]
            n, d = g.n_left, g.d_left
            codeword = sample_codeword(g, case)
            errors = rng.sample(range(n), rng.randint(0, n))
            y = plant_errors(codeword, errors)
            if case % 3 == 0:
                cfg = rng.choice(cfgs)
            else:
                cfg = FindConfig(Fraction(rng.randrange(0, 9), 64), Fraction(rng.randrange(0, 13), 24))
            h = cfg.effective_threshold(d)
            prefer = rng.choice([None, errors, rng.sample(range(n), rng.randint(0, n))])
            seen.add((h == 0, h == d, syndrome_bits(g, y.bits) == 0, prefer is None))
            for order in ("ascending", "descending", "random"):
                got = find_suspects(g, y, cfg, order=order, seed=case, prefer=prefer)
                ref = _three_branch_find(g, y, cfg, order=order, seed=case, prefer=prefer)
                if order == "ascending" or (order == "descending" and prefer is None):
                    assert got == ref, (case, order)
                assert (got.l_mask, got.r_mask) == (ref.l_mask, ref.r_mask), (case, order)
        # h = 0, h = D and an empty syndrome, each with and without prefer
        for flag in range(3):
            for p in (False, True):
                assert any(key[flag] and key[3] == p for key in seen), (flag, p)

    def test_errors_contained_when_unique_neighbor_condition_holds(self, decode_instances):
        inst = decode_instances[0]
        g, eps = inst.graph, inst.eps
        cfg = FindConfig.from_delta(eps)
        need = (1 - 2 * eps) * g.d_left
        for f in itertools.combinations(range(g.n_left), 2):
            precondition = all(
                len(unique_neighbors(g, sub)) >= need * len(sub)
                for r in (1, 2)
                for sub in itertools.combinations(f, r)
            )
            if not precondition:
                continue
            trace = find_suspects(g, Word.from_support(g.n_left, f), cfg)
            assert set(f) <= trace.l_set

    def test_errors_first_ordering_realizable(self, decode_instances):
        inst = decode_instances[0]
        g, eps = inst.graph, inst.eps
        cfg = FindConfig.from_delta(eps)
        need = (1 - 2 * eps) * g.d_left
        checked = 0
        for f in itertools.combinations(range(g.n_left), 2):
            precondition = all(
                len(unique_neighbors(g, sub)) >= need * len(sub)
                for r in (1, 2)
                for sub in itertools.combinations(f, r)
            )
            if not precondition:
                continue
            trace = find_suspects(g, Word.from_support(g.n_left, f), cfg, prefer=f)
            # progress at every one of the first |F| steps: the preferred
            # queue alone carries the loop until F is exhausted
            assert set(trace.order[: len(f)]) == set(f)
            checked += 1
        assert checked > 0


class TestDecodeErasures:
    def test_single_erasure_peels(self, tri3):
        out = decode_erasures(tri3, parse_word("1?1"))
        assert out.ok and out.word.to_string() == "111"
        assert out.path == "peeling"
        assert out.corrected == 1

    def test_full_erasure_ambiguous(self, tri3):
        out = decode_erasures(tri3, parse_word("???"))
        assert not out.ok and out.reason == "stalled"

    def test_cyc4_peel(self):
        out = decode_erasures(cyc_graph(4), parse_word("1??1"))
        assert out.ok and out.word.to_string() == "1111"

    def test_inconsistent_known_bits(self, tri3):
        out = decode_erasures(tri3, parse_word("10?"))
        assert not out.ok and out.reason == "not-a-codeword"

    def test_gauss_fallback_solves_stalled_peel(self, decode_instances):
        # erase a full codeword support minus nothing... use a pattern whose
        # checks all touch >= 2 erasures yet columns stay independent
        inst = decode_instances[0]
        g = inst.graph
        c = min_distance_bruteforce(g).witness
        erase = c.support()[:4]
        mask = sum(1 << i for i in erase)
        out = decode_erasures(g, Word(g.n_left, c.bits & ~mask, mask))
        assert out.ok and out.word == c

    def test_capacity_enforced_with_config(self, tri3):
        cfg = ErasureConfig(Fraction(1, 10), Fraction(1, 3), Fraction(1, 4))
        assert cfg.max_erasures(3) == 1
        out = decode_erasures(tri3, parse_word("??1"), cfg)
        assert not out.ok and out.reason == "radius-exceeded"
        assert decode_erasures(tri3, parse_word("1?1"), cfg).ok

    def test_capacity_matches_fraction_formula(self):
        # the integer floor division against the Fraction formula it replaced
        rng = random.Random(12)

        def frac(hi):
            return Fraction(rng.randint(1, hi), rng.randint(1, hi))

        for _ in range(3000):
            hi = 2**70 if rng.random() < 0.1 else 10**4  # some huge terms
            den = rng.randint(2, hi)
            cfg = ErasureConfig(Fraction(rng.randint(1, den - 1), den), frac(hi), frac(hi))
            for n in (0, 1, rng.randint(2, 10**6)):
                want = math.floor((1 - cfg.xi) / (2 * cfg.eps) * cfg.alpha * n)
                assert cfg.max_erasures(n) == want, (cfg, n)
        # whole-number capacities, where an off-by-one floor would show
        cfg = ErasureConfig(Fraction(1, 2), Fraction(1, 3), Fraction(1, 12))
        assert [cfg.max_erasures(n) for n in (0, 1, 3, 6)] == [0, 1, 3, 6]

    @pytest.mark.parametrize("alpha, eps", [(Fraction(1, 3), 0), (0, Fraction(1, 4))])
    def test_config_needs_positive_alpha_and_eps(self, alpha, eps):
        with pytest.raises(InvalidParameters):
            ErasureConfig(Fraction(1, 100), alpha, eps)

    def test_within_budget_always_unique(self, decode_instances):
        # any erasure count below the distance has independent columns
        inst = decode_instances[1]
        g = inst.graph
        rng = random.Random(1)
        for _ in range(50):
            k = rng.randint(0, inst.distance - 1)
            mask = sum(1 << i for i in rng.sample(range(g.n_left), k))
            out = decode_erasures(g, Word(g.n_left, 0, mask))
            assert out.ok and out.word.bits == 0


class TestFlipDecode:
    def test_already_codeword(self, tri3):
        out = flip_decode_ss(tri3, parse_word("111"), 1)
        assert out.ok and out.iterations == 0

    def test_single_error(self, tri3):
        out = flip_decode_ss(tri3, parse_word("100"), 1)
        assert out.ok and out.word.to_string() == "000"

    def test_two_errors_flip_to_complement_codeword(self, tri3):
        out = flip_decode_ss(tri3, parse_word("110"), 1)
        assert out.ok and out.word.to_string() == "111"

    def test_threshold_range(self, tri3):
        with pytest.raises(InvalidParameters):
            flip_decode_ss(tri3, parse_word("100"), Fraction(1, 2))

    def test_fractional_cut(self):
        # eps = 1/8, D = 6: the cut (1 - 2 eps) D = 9/2 is not an integer.
        # With word 111, bit 0 sees 5 unsatisfied checks and flips; bit 2
        # sees 4 and does not. Afterwards bits 1 and 2 both see 4: stalled.
        g = BipartiteGraph(3, 15, 6, [
            range(0, 6), range(5, 11), (9, 10, 11, 12, 13, 14),
        ])
        out = flip_decode_ss(g, parse_word("111"), eps=Fraction(1, 8))
        assert not out.ok and out.reason == "stalled"
        assert out.path == "no-flippable-bit"
        assert (out.iterations, out.flips) == (1, 1)


class TestFlipRound:
    def test_degenerate_threshold_flips_all(self, tri3):
        w, rep = flip_round(tri3, parse_word("100"), Fraction(1, 3))
        assert rep.threshold == 0
        assert w.to_string() == "011"

    def test_codeword_stays(self, tri3):
        w, rep = flip_round(tri3, parse_word("111"), Fraction(1, 10))
        assert w.to_string() == "111" and rep.flipped == ()

    def test_tri3_example(self, tri3):
        w, rep = flip_round(tri3, parse_word("110"), Fraction(1, 10))
        assert rep.threshold == Fraction(7, 5)
        assert rep.flipped == (2,)
        assert w.to_string() == "111"

    def test_error_reduction_claim(self, decode_instances):
        # in the flip branch with a correctly bracketed guess, one round
        # removes at least a beta fraction of the errors; at alpha*N = 2 the
        # precondition |F| <= (1-eps)*alpha*N covers exactly the singletons
        for inst in decode_instances:
            g, eps = inst.graph, inst.eps
            beta = Fraction(1, 4) - eps
            sched = GuessSchedule.for_beta(beta)
            cutoff = Fraction(2, 3) * eps + sched.eta
            for i in range(g.n_left):
                gamma_f = collisions(g, [i]).gamma
                gamma_i = (gamma_f // sched.eta + 1) * sched.eta
                assert gamma_f >= gamma_i - sched.eta and gamma_f < gamma_i
                if gamma_i >= cutoff:
                    continue
                word, _ = flip_round(g, Word.from_support(g.n_left, [i]), gamma_i)
                assert word.weight() <= (1 - beta) * 1


class TestViderman:
    def test_error_free(self, decode_instances):
        inst = decode_instances[0]
        out = viderman_decode(inst.graph, Word.zero(inst.graph.n_left), inst.params)
        assert out.ok and out.corrected == 0

    def test_tri3_example_with_caller_radius(self, tri3):
        params = ExpanderParams(Fraction(1, 3), Fraction(1, 10))
        out = viderman_decode(tri3, parse_word("100"), params, radius=1)
        assert out.ok and out.word.to_string() == "000"

    def test_tri3_default_radius_below_one_rejects(self, tri3):
        # baseline radius (1-3e)/(1-2e)*floor(alpha*N) = 7/8 < 1 here
        params = ExpanderParams(Fraction(1, 3), Fraction(1, 10))
        out = viderman_decode(tri3, parse_word("100"), params)
        assert out.radius == Fraction(7, 8)
        assert not out.ok and out.reason == "radius-exceeded"

    def test_all_single_errors_recovered(self, decode_instances):
        for inst in decode_instances[:3]:
            g = inst.graph
            assert (1 - 3 * inst.eps) / (1 - 2 * inst.eps) * inst.alpha_n >= 1
            planted = sample_codeword(g, 9)
            for i in range(g.n_left):
                out = viderman_decode(g, plant_errors(planted, [i]), inst.params)
                assert out.ok and out.word == planted

    def test_eps_above_third_needs_explicit_radius(self, tri3):
        params = ExpanderParams(Fraction(1, 3), Fraction(2, 5))
        with pytest.raises(InvalidParameters):
            viderman_decode(tri3, parse_word("100"), params)

    def test_negative_radius_refused(self, tri3):
        params = ExpanderParams(Fraction(1, 3), Fraction(1, 10))
        with pytest.raises(InvalidParameters, match="radius"):
            viderman_decode(tri3, parse_word("100"), params, radius=-1)


class TestGuessSchedule:
    def test_defaults(self):
        sched = GuessSchedule.for_beta(Fraction(1, 12))
        assert sched.eta == Fraction(1, 1200)
        assert math.ceil(1 / sched.eta) == 1200
        assert sched.ell >= math.ceil(math.log(1 / 3) / math.log(1 - 1 / 12))

    def test_beta_lost_in_float_rounding(self):
        with pytest.raises(InvalidParameters):
            GuessSchedule.for_beta(Fraction(1, 10**20))

    @staticmethod
    def _grid_cuts(eta, cutoff, d):
        # the grid walk the cut listing replaces: every gamma in
        # {eta, 2 eta, ..., ceil(1/eta) eta} below the cutoff, keeping each
        # cut once in first-seen order
        cuts: list[int] = []
        for gv in (i * eta for i in range(1, math.ceil(1 / eta) + 1)):
            if gv >= cutoff:
                return cuts, True
            t = max(0, math.ceil((1 - 3 * gv) * d))
            if t not in cuts:
                cuts.append(t)
        return cuts, False

    def test_flip_cuts_match_grid_walk(self):
        rng = random.Random(4)
        betas = [Fraction(1, 12), Fraction(1, 20), Fraction(1, 7), Fraction(6, 25)]
        etas = [None, Fraction(1, 3), Fraction(2, 5), Fraction(1, 1), Fraction(3, 2),
                Fraction(7, 4), Fraction(1, 97)]
        cases = [
            (beta, eta, eps, d)
            for beta in betas
            for eta in etas
            for eps in (Fraction(0), Fraction(1, 16), Fraction(1, 4) - beta)
            for d in (0, 1, 2, 3, 6, 10)
        ]
        for _ in range(300):
            beta = Fraction(rng.randint(1, 240), 1000)
            eta = Fraction(rng.randint(1, 400), rng.randint(1, 4000))
            eps = Fraction(rng.randint(0, 600), 1000)
            cases.append((beta, eta, eps, rng.randint(0, 12)))
        # the listing probes D - floor(3 i p D / q) on integers at eta = p/q:
        # the schedule's own eta at random (D, eps, beta), D up to 64
        for _ in range(1500):
            beta = Fraction(rng.randint(25, 249), 1000)
            eps = Fraction(rng.randint(0, 250), 1000)
            cases.append((beta, None, eps, rng.randint(0, 64)))
        finds = set()
        for beta, eta, eps, d in cases:
            eta = GuessSchedule.for_beta(beta).eta if eta is None else eta
            cutoff = Fraction(2, 3) * eps + eta
            expected = self._grid_cuts(eta, cutoff, d)
            assert _flip_cuts(eta, cutoff, d) == expected, (beta, eta, eps, d)
            finds.add((expected[1], bool(expected[0])))
        # both branches, with and without flip cuts, are exercised
        assert finds == {(True, True), (True, False), (False, True)}


def _steps_by_scan(cut, lo, hi):
    """Reference for _cut_steps: scan every index."""
    steps = []
    for k in range(lo, hi):
        t = cut(k)
        if not steps or steps[-1][1] != t:
            steps.append((k, t))
        if t == 0:
            break
    return steps


def _step_function(rng, lo, hi):
    """A random nonincreasing step function on [lo, hi): drops of size 1 to
    4 at sorted random positions, so plateaus may be long or one wide."""
    top = rng.randint(0, 12)
    at = sorted(rng.sample(range(lo, hi), min(hi - lo, rng.randint(0, top))))
    drops = [rng.randint(1, 4) for _ in at]

    def cut(k):
        assert lo <= k < hi, k
        return max(0, top - sum(dr for a, dr in zip(at, drops) if a <= k))

    return cut


class TestCutSteps:
    def test_matches_scan(self):
        rng = random.Random(11)
        seen_zero_at_lo = seen_big_jump = False
        for _ in range(500):
            lo = rng.randint(-5, 20)
            hi = lo + rng.choice((0, 1, 2, rng.randint(3, 60)))
            if hi == lo:
                assert list(_cut_steps(lambda k: 1 / 0, lo, hi)) == []
                continue
            cut = _step_function(rng, lo, hi)
            steps = list(_cut_steps(cut, lo, hi))
            assert steps == _steps_by_scan(cut, lo, hi), (lo, hi)
            seen_zero_at_lo |= steps == [(lo, 0)]
            seen_big_jump |= any(a[1] - b[1] > 1 for a, b in zip(steps, steps[1:]))
        assert seen_zero_at_lo and seen_big_jump
        assert list(_cut_steps(lambda k: 3, 5, 2)) == []

    def test_probes_are_logarithmic(self):
        rng = random.Random(12)
        hi = 10**6
        for _ in range(20):
            at = sorted(rng.sample(range(1, hi), 6))
            probes = 0

            def cut(k):
                nonlocal probes
                probes += 1
                return 6 - bisect.bisect_right(at, k)

            steps = list(_cut_steps(cut, 0, hi))
            assert [k for k, _ in steps] == [0] + at
            assert probes <= len(steps) * (math.ceil(math.log2(hi)) + 1)
        # a value of 0 ends the listing without a further probe
        probes = 0
        assert list(_cut_steps(cut, at[-1], hi)) == [(at[-1], 0)]
        assert probes == 1

    def test_bounds_beyond_machine_word(self):
        at = [10**20, 10**29]
        cut = lambda k: 2 - bisect.bisect_right(at, k)
        assert list(_cut_steps(cut, 0, 10**30)) == [(0, 2), (10**20, 1), (10**29, 0)]

    def test_grid_decoder_with_a_tiny_eta(self):
        # ceil(1/eta) exceeds the machine word; the listing must still run
        g = gen_left_regular(12, 9, 3, 1)
        params = ExpanderParams(Fraction(1, 6), Fraction(1, 8))
        out = guess_expansion_decode_grid(g, Word(12, 111), params, Fraction(1, 10**20))
        assert not out.ok and out.reason == "no-candidate"


class TestGuessFlip:
    def test_error_free(self, decode_instances):
        inst = decode_instances[0]
        beta = Fraction(1, 4) - inst.eps
        out = guess_flip_decode(inst.graph, Word.zero(inst.graph.n_left), inst.params, beta)
        assert out.ok and out.corrected == 0

    def test_declared_radius(self, decode_instances):
        inst = decode_instances[0]
        beta = Fraction(1, 4) - inst.eps
        out = guess_flip_decode(inst.graph, Word.zero(inst.graph.n_left), inst.params, beta)
        assert out.radius == (1 - inst.eps) * 2

    def test_precondition(self, decode_instances):
        inst = decode_instances[0]
        with pytest.raises(InvalidParameters):
            guess_flip_decode(
                inst.graph, Word.zero(inst.graph.n_left), inst.params,
                beta=Fraction(1, 4) - inst.eps + Fraction(1, 100),
            )

    def test_adversarial_half_weight_pattern(self, decode_instances):
        # plant more than distance/2 errors along a min-weight codeword: the
        # decoder may return the other codeword, but the outcome contract
        # (zero syndrome, inside the validated radius) must hold
        inst = decode_instances[0]
        g = inst.graph
        beta = Fraction(1, 4) - inst.eps
        witness = min_distance_bruteforce(g).witness
        half = witness.support()[: inst.distance // 2 + 1]
        y = Word.from_support(g.n_left, half)
        out = guess_flip_decode(g, y, inst.params, beta)
        if out.ok:
            assert syndrome(g, out.word).is_zero
            assert y.distance(out.word) <= out.radius

    def test_search_matches_found_list_dfs(self, monkeypatch):
        # seeded random graphs, 0 to 6 errors, both entries: the search that
        # expands each syndrome once, returns its hit and compares floored
        # radii must agree with the one that expands every node, copies its
        # path and compares Fraction radii. Tiny graphs reach the find kind;
        # graphs up to N = 40 run deeper searches over more syndromes.
        regimes = (
            ((6, 14), ("1/12", "1/20", "1/7", "6/25"), 24, {"baseline", "find", "no-candidate"}),
            ((16, 40), ("1/12", "1/16"), 3, {"baseline", "no-candidate"}),
        )
        alpha_ns = tuple(map(Fraction, ("1/2", "1", "3/2", "2", "5/2", "3")))
        rng = random.Random(15)
        for sizes, betas, graphs, kinds_seen in regimes:
            kinds = set()
            for seed in range(graphs):
                n = rng.randint(*sizes)
                d = rng.randint(2, 4)
                g = gen_left_regular(n, rng.randint(max(d, n // 2), n - 1), d, seed)
                planted = sample_codeword(g, seed)
                for beta in map(Fraction, betas):
                    eps = (Fraction(1, 4) - beta) * rng.choice((1, Fraction(1, 2), Fraction(1, 5)))
                    params = ExpanderParams(rng.choice(alpha_ns) / n, eps)
                    for w in range(7):
                        y = plant_errors(planted, rng.sample(range(n), w))
                        expanded = []
                        with monkeypatch.context() as patch:
                            patch.setattr(decoders, "_at_least", lambda g, s, cuts:
                                          expanded.append(s) or _at_least(g, s, cuts))
                            got = guess_flip_decode(g, y, params, beta)
                        assert len(expanded) == len(set(expanded))
                        assert got == _found_list_guess_flip(g, y, params, beta), (g, y, params)
                        kinds.add(got.enumeration_index[-1] if got.ok else got.reason)
                        got = scaled_guess_flip_decode(g, y, params, beta)
                        with monkeypatch.context() as patch:
                            patch.setattr(decoders, "guess_flip_decode", _found_list_guess_flip)
                            want = scaled_guess_flip_decode(g, y, params, beta)
                        assert got == want, (g, y, params)
                        kinds.add(got.enumeration_index[-1] if got.ok else got.reason)
            assert kinds == kinds_seen, sizes

    def test_recursion_overrun_raises_a_short_traceback(self, tri3):
        # beta = 1/1000 makes the search 1099 levels deep, past the recursion
        # limit: a known defect, raised afresh so it carries no per-level frames
        params = ExpanderParams(Fraction(1, 3), Fraction(1, 8))
        with pytest.raises(RecursionError, match="ell = 1099") as info:
            guess_flip_decode(tri3, parse_word("100"), params, Fraction(1, 1000))
        assert info.value.__context__ is None
        assert len(traceback.extract_tb(info.value.__traceback__)) < 20

    def test_search_memory_is_linear_in_depth(self, tri3):
        # beta = 1/455 gives a schedule 500 levels deep on tri3; copying the
        # path at every node peaks at about 1.2 MB, returning the hit at 0.2
        beta = Fraction(1, 455)
        ell = GuessSchedule.for_beta(beta).ell
        assert ell == 500
        # the search holds one frame per level: leave room below the limit
        frames = sum(1 for _ in traceback.walk_stack(None))
        assert frames + ell + 100 < sys.getrecursionlimit()
        params = ExpanderParams(Fraction(1, 3), Fraction(1, 8))
        tracemalloc.start()
        try:
            out = guess_flip_decode(tri3, parse_word("100"), params, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.iterations == ell + 1
        assert peak < 500_000

    @pytest.mark.parametrize(
        "errors, want",
        [
            ((3, 6), (("flip", 4),) * 22 + ("baseline",)),  # at max_fix: accepted
            ((0, 8, 15), (("flip", 4),) * 21 + (("flip", 3), "baseline")),  # past it
        ],
    )
    def test_leaf_checks_viderman_radius_from_the_flipped_word(
        self, monkeypatch, errors, want
    ):
        # at eps = 1/5 and alpha N = 4 a leaf accepts a candidate within
        # max_fix = floor(2/3 * 4) = 2 of its flipped word, below the
        # (1 - eps) alpha N radius of 3 from the input. No bit of either word
        # reaches the top cut 4, so the first leaf's word is the input, and
        # find-and-erase there returns the planted zero codeword: at 2 errors
        # the leaf accepts it; at 3 it must reject it, and a later leaf, after
        # a flip at cut 3, accepts it
        g = gen_left_regular(16, 15, 4, 0)
        params = ExpanderParams(Fraction(4, 16), Fraction(1, 5))
        beta = Fraction(1, 20)
        assert GuessSchedule.for_beta(beta).ell == 22
        y = Word.from_support(16, errors)
        assert _at_least(g, syndrome_bits(g, y.bits), [4]) == [0]
        leaves = []

        def recording(*args, **kw):
            out = _find_and_erase(*args, **kw)
            leaves.append(out[0])
            return out

        monkeypatch.setattr(decoders, "_find_and_erase", recording)
        out = guess_flip_decode(g, y, params, beta)
        assert leaves[0] == y.bits  # the first leaf: zero codeword, |errors| away
        assert out.ok and out.word == Word.zero(16) and out.corrected == len(errors)
        assert out.enumeration_index == want


def _found_list_guess_flip(g, y, params, beta):
    """The former guess-flip search, the reference for guess_flip_decode:
    every node copies its path tuple and flip count, and a hit is appended to
    a found list; every node runs its own ``_at_least`` and ``syndrome_bits``,
    and the radii stay ``Fraction``s."""
    decoders._check_plain(g, y)
    beta = Fraction(beta)
    eps, alpha = params.eps, params.alpha
    if eps > Fraction(1, 4) - beta:
        raise InvalidParameters("need eps <= 1/4 - beta")
    schedule = GuessSchedule.for_beta(beta)
    n, d = g.n_left, g.d_left
    radius = (1 - eps) * alpha * n
    capacity = ErasureConfig.from_params(params).max_erasures(n)
    vid_radius = (1 - 3 * eps) / (1 - 2 * eps) * math.floor(alpha * n)
    flip_thresholds, has_find = _flip_cuts(schedule.eta, Fraction(2, 3) * eps + schedule.eta, d)
    find_h = _cut(d, 0, eps)
    fixed_cache = {}

    def fixed(z, s):
        if z not in fixed_cache:
            e = _find_and_erase(g, s, find_h, capacity)[0]
            fixed_cache[z] = None if e is None else z ^ e
        return fixed_cache[z]

    y_bits = y.bits
    nodes = 0
    memo_fail = set()
    found = []

    def dfs(z, s, depth, flips, path):
        nonlocal nodes
        if (z, depth) in memo_fail:
            return False
        nodes += 1
        if depth == schedule.ell:
            cand = fixed(z, s)
            if (
                cand is not None
                and (z ^ cand).bit_count() <= vid_radius
                and (y_bits ^ cand).bit_count() <= radius
            ):
                found.append((cand, path + ("baseline",), flips))
                return True
            memo_fail.add((z, depth))
            return False
        for t, l0 in zip(flip_thresholds, _at_least(g, s, flip_thresholds)):
            s1 = s ^ syndrome_bits(g, l0)
            if dfs(z ^ l0, s1, depth + 1, flips + l0.bit_count(), path + (("flip", t),)):
                return True
        if has_find:
            cand = fixed(z, s)
            if cand is not None and (y_bits ^ cand).bit_count() <= radius:
                found.append((cand, path + ("find",), flips))
                return True
        memo_fail.add((z, depth))
        return False

    if dfs(y_bits, syndrome_bits(g, y_bits), 0, 0, ()):
        cand, path, flips = found[0]
        return DecodeOutcome(
            "guess-flip", "success", word=Word(n, cand), radius=radius,
            corrected=(y_bits ^ cand).bit_count(), iterations=nodes, flips=flips,
            enumeration_index=path,
        )
    return DecodeOutcome(
        "guess-flip", "failure", reason="no-candidate", radius=radius, iterations=nodes
    )


class TestScaledGuessFlip:
    def test_uses_cap_not_optimum(self, decode_instances):
        # the error-count optimum of (1-k*eps)*k sits at k = 1/(2*eps); the
        # procedure must use k = (1/4-beta)/eps instead
        inst = decode_instances[0]
        out = scaled_guess_flip_decode(
            inst.graph, Word.zero(inst.graph.n_left), inst.params, Fraction(1, 100)
        )
        k = (Fraction(1, 4) - Fraction(1, 100)) / inst.eps
        assert f"k={k}" == out.path
        assert out.radius == (1 - k * inst.eps) * k * inst.params.alpha * inst.graph.n_left

    def test_radius_approaches_three_sixteenths(self):
        # at eps = 1/8 and beta -> 0 the scaled radius approaches
        # 3/(16*eps)*alpha*N = 1.5*alpha*N
        eps = Fraction(1, 8)
        alpha = Fraction(2, 10)
        n = 10
        for beta in (Fraction(1, 100), Fraction(1, 1000)):
            k = (Fraction(1, 4) - beta) / eps
            radius = (1 - k * eps) * k * alpha * n
            target = Fraction(3, 16) / eps * alpha * n
            assert target - radius <= 8 * beta * alpha * n
            assert radius < target

    def test_fallback_when_k_below_one(self, decode_instances):
        inst = decode_instances[0]
        # eta this large drives k = (1/4 - eta)/eps below 1
        eta = Fraction(1, 4) - inst.eps + Fraction(1, 50)
        out = scaled_guess_flip_decode(
            inst.graph, Word.zero(inst.graph.n_left), inst.params, eta
        )
        assert out.path == "unscaled-fallback"
        assert out.ok
        # the fallback radius is the unscaled (1-eps)*alpha*N
        assert out.radius == (1 - inst.eps) * inst.params.alpha * inst.graph.n_left

    @pytest.mark.parametrize("eta", [Fraction(1, 4) + Fraction(1, 1000), Fraction(7)])
    def test_eta_above_quarter_refused(self, decode_instances, eta):
        # k = (1/4 - eta)/eps < 0 is no trade; eta = 1/4 (k = 0) still falls back
        inst = decode_instances[0]
        y = Word.zero(inst.graph.n_left)
        with pytest.raises(InvalidParameters, match="eta"):
            scaled_guess_flip_decode(inst.graph, y, inst.params, eta)
        out = scaled_guess_flip_decode(inst.graph, y, inst.params, Fraction(1, 4))
        assert out.ok and out.path == "unscaled-fallback"

    def test_single_errors_recovered(self, decode_instances):
        inst = decode_instances[2]
        g = inst.graph
        planted = sample_codeword(g, 4)
        for i in range(0, g.n_left, 3):
            out = scaled_guess_flip_decode(
                g, plant_errors(planted, [i]), inst.params, Fraction(1, 100)
            )
            assert out.ok and out.word == planted


class TestGuessExpansion:
    def test_requires_small_eps(self, decode_instances):
        inst = decode_instances[0]  # eps = 1/6 > 1/8
        with pytest.raises(InvalidParameters):
            guess_expansion_decode_poly(inst.graph, Word.zero(inst.graph.n_left), inst.params)

    def test_error_free(self, guess_expansion_instance):
        inst = guess_expansion_instance
        out = guess_expansion_decode_poly(inst.graph, Word.zero(inst.graph.n_left), inst.params)
        assert out.ok and out.corrected == 0
        out = guess_expansion_decode_grid(
            inst.graph, Word.zero(inst.graph.n_left), inst.params, Fraction(1, 10)
        )
        assert out.ok and out.corrected == 0

    def test_accept_radius_at_eighth(self, guess_expansion_instance):
        # (1-2*eps)/(4*eps) = 3/2 at eps = 1/8, so the validated radius is
        # 1.5 * alpha * N
        inst = guess_expansion_instance
        assert inst.eps == Fraction(1, 8)
        out = guess_expansion_decode_poly(inst.graph, Word.zero(inst.graph.n_left), inst.params)
        assert out.radius == Fraction(3, 2) * inst.params.alpha * inst.graph.n_left

    def test_exhaustive_recovery_to_achieved_radius(self, guess_expansion_instance):
        # the formula radius is 3 here, but distance 8 equals the headline
        # bound with no slack room: radius 2 is the certified desk-scale
        # radius and must be exhaustively clean
        inst = guess_expansion_instance
        g = inst.graph
        achieved = min((inst.distance - 1) // 2, 2)
        planted = min_distance_bruteforce(g).witness
        for r in range(achieved + 1):
            for pat in itertools.combinations(range(g.n_left), r):
                y = plant_errors(planted, pat)
                out = guess_expansion_decode_poly(g, y, inst.params)
                assert out.ok and out.word == planted, (r, pat)

    def test_grid_success_implies_poly_success(self, guess_expansion_instance):
        inst = guess_expansion_instance
        g = inst.graph
        rng = random.Random(0)
        for _ in range(40):
            r = rng.randint(0, 3)
            y = plant_errors(Word.zero(g.n_left), rng.sample(range(g.n_left), r))
            grid = guess_expansion_decode_grid(g, y, inst.params, Fraction(1, 10))
            if grid.ok:
                poly = guess_expansion_decode_poly(g, y, inst.params)
                assert poly.ok

    @pytest.mark.parametrize("eta_prime", [0, Fraction(-1, 8)])
    def test_grid_values_need_positive_step(self, eta_prime):
        # eta = eps * eta' <= 0 has no grid: 1/eta divides by zero at 0 and
        # would give an empty grid below it
        g = gen_left_regular(12, 9, 3, 1)
        params = ExpanderParams(Fraction(1, 6), Fraction(1, 8))
        with pytest.raises(InvalidParameters):
            guess_expansion_decode_grid(g, Word.zero(12), params, eta_prime)

    def test_k_walk_matches_pair_enumeration(self):
        alpha_ns = tuple(map(Fraction, ("1/2", "5/6", "1", "2", "5/2", "3")))
        epss = tuple(map(Fraction, ("1/128", "1/32", "1/10", "1/8")))
        slacks = tuple(map(Fraction, ("0", "1/7", "1/2")))
        rng = random.Random(2024)
        cases = []
        # seeded random graphs, each with a word whose two errors share a
        # check (the plain cut misses both, a sqrt cut can find them) and a
        # heavier word
        for seed in range(16):
            n = rng.randint(6, 30)
            d = rng.randint(1, min(6, n - 1))
            m = rng.randint(d, n - 1)
            g = gen_left_regular(n, m, d, seed)
            planted = sample_codeword(g, seed)
            pair = rng.sample(max(g.right_adj, key=len), 2)
            heavy = rng.sample(range(n), n // 3 + 2)
            for errs in (pair, heavy):
                for _ in range(4):
                    alpha_n = rng.choice(alpha_ns)
                    params = ExpanderParams(alpha_n / n, rng.choice(epss))
                    cases.append((g, plant_errors(planted, errs), params, rng.choice(slacks)))
        # a failure whose last guess, k = D*N - 1, brings a new cut
        g = gen_left_regular(14, 10, 4, 1)
        y = plant_errors(sample_codeword(g, 1), range(0, 14, 2))
        cases.append((g, y, ExpanderParams(Fraction(5, 6) / 14, Fraction(1, 128)), slacks[1]))
        # a failure where D*ceil(alpha*N) > M, so j <= M starts the walk
        g = gen_left_regular(13, 6, 6, 29)
        y = plant_errors(sample_codeword(g, 29), range(0, 13, 2))
        cases.append((g, y, ExpanderParams(Fraction(2, 13), Fraction(1, 8)), slacks[0]))
        # a sqrt success at alpha*N = 5/2, so at i >= 3
        g = gen_left_regular(22, 20, 4, 963)
        y = plant_errors(sample_codeword(g, 963), [5, 13])
        cases.append((g, y, ExpanderParams(Fraction(5, 2) / 22, Fraction(1, 32)), slacks[0]))
        # a sqrt success past ceil(alpha*N) = 1, at (2, 3): its k names its own i
        g = gen_left_regular(24, 23, 5, 903)
        y = plant_errors(sample_codeword(g, 903), [5, 22])
        cases.append((g, y, ExpanderParams(Fraction(1, 24), Fraction(1, 128)), slacks[0]))

        kinds, sides = set(), set()
        for g, y, params, slack in cases:
            ref = list(_poly_guesses_by_pair(g, params, slack))
            want = _seen_dedup_runner(g, y, params, ref, "guess-expansion")
            got = guess_expansion_decode_poly(g, y, params, slack)
            assert got == want, (g, y, params, slack)
            if not got.ok:  # every distinct cut was tried, once
                deltas = {(q.delta_radicand, q.delta_affine) for _, q in ref}
                cuts = {FindConfig(*qs).effective_threshold(g.d_left) for qs in deltas}
                assert got.iterations == len(cuts)
            kinds.add((got.status, got.guess.branch if got.ok else None))
            sides.add(params.alpha * g.n_left < 1)
        assert {("success", "sqrt"), ("failure", None)} <= kinds
        assert sides == {True, False}

    def test_grid_cut_listing_matches_value_walk(self):
        epss = tuple(map(Fraction, ("1/128", "1/32", "1/10", "1/8")))
        eta_primes = tuple(map(Fraction, ("1/10", "1/3", "1/2", "7/5", "2")))
        rng = random.Random(77)
        kinds = set()
        for seed in range(10):
            n = rng.randint(6, 30)
            d = rng.randint(1, min(6, n - 1))
            g = gen_left_regular(n, rng.randint(d, n - 1), d, seed)
            planted = sample_codeword(g, seed)
            pair = rng.sample(max(g.right_adj, key=len), 2)
            heavy = rng.sample(range(n), n // 3 + 2)
            for errs in ([], pair, heavy):
                y = plant_errors(planted, errs)
                for eps in epss:
                    for eta_prime in eta_primes:
                        params = ExpanderParams(rng.choice((1, 2, 3)) * Fraction(1, n), eps)
                        ref = _grid_guesses_by_value(params.eps, eta_prime)
                        want = _seen_dedup_runner(g, y, params, ref, "guess-expansion-grid")
                        got = guess_expansion_decode_grid(g, y, params, eta_prime)
                        assert got == want, (g, y, params, eta_prime)
                        kinds.add((got.status, got.guess.branch if got.ok else None))
        assert kinds == {("success", "plain"), ("success", "sqrt"), ("failure", None)}
        # a failure whose last grid value, ceil(1/eta) * eta, brings a new cut
        # (1 after 2 at D = 4, eps = 1/8, eta' = 1/5)
        g = gen_left_regular(20, 15, 4, 3)
        y = plant_errors(sample_codeword(g, 3), range(0, 20, 2))
        params = ExpanderParams(Fraction(1, 10), Fraction(1, 8))
        ref = _grid_guesses_by_value(params.eps, Fraction(1, 5))
        want = _seen_dedup_runner(g, y, params, ref, "guess-expansion-grid")
        assert guess_expansion_decode_grid(g, y, params, Fraction(1, 5)) == want
        assert not want.ok

    def test_guess_decoders_resolve_few_thresholds(self, monkeypatch):
        # the cut listings probe O(D log(D N)) thresholds; walking every k or
        # grid value would resolve thousands, or 10^8 at eta' = 1/100000
        # every resolution, through _cut or a lister's integer probe, is one
        # call of a function _cuts_along returns
        calls = 0
        along = decoders._cuts_along

        def counted(*constants):
            resolve = along(*constants)

            def probe(k):
                nonlocal calls
                calls += 1
                if calls > 200:
                    raise AssertionError("more than 200 threshold resolutions")
                return resolve(k)

            return probe

        monkeypatch.setattr(decoders, "_cuts_along", counted)
        g = gen_left_regular(400, 300, 6, 1)
        y = plant_errors(sample_codeword(g, 1), random.Random(0).sample(range(400), 30))
        params = ExpanderParams(Fraction(1, 50), Fraction(1, 128))
        for decode in (
            lambda: guess_expansion_decode_grid(g, y, params, Fraction(1, 1000)),
            lambda: guess_expansion_decode_poly(g, y, params),
        ):
            calls = 0
            assert not decode().ok
            assert 0 < calls <= 100
        g = gen_left_regular(24, 18, 6, 1)
        y = plant_errors(sample_codeword(g, 1), range(0, 24, 3))
        params = ExpanderParams(Fraction(1, 12), Fraction(1, 1000))
        calls = 0
        guess_expansion_decode_grid(g, y, params, Fraction(1, 100000))
        assert 0 < calls <= 100

    def test_poly_on_empty_graph_makes_no_guess(self):
        g = BipartiteGraph(0, 3, 2, ())
        out = guess_expansion_decode_poly(g, Word.zero(0), ExpanderParams(1, Fraction(1, 8)))
        assert out == DecodeOutcome(
            "guess-expansion", "failure", reason="no-candidate", radius=Fraction(0), iterations=0
        )

    def test_grid_on_empty_graph_accepts_the_plain_guess(self):
        # the plain guess finds the empty L, whose erasure gives the empty word
        g = BipartiteGraph(0, 3, 2, ())
        params = ExpanderParams(1, Fraction(1, 8))
        out = guess_expansion_decode_grid(g, Word.zero(0), params, Fraction(1, 2))
        plain = ExpansionGuess(None, None, Fraction(0), "plain", Fraction(0), Fraction(1, 4))
        assert out == DecodeOutcome(
            "guess-expansion-grid", "success", word=Word.zero(0), radius=Fraction(0),
            corrected=0, iterations=1, enumeration_index=(0,), guess=plain,
        )

    def test_grid_tries_sqrt_cuts_after_a_plain_zero_cut(self):
        # eta' = 2 at eps = 1/8: the plain delta eps + 2*eta = 5/8 admits
        # every count (cut 0), the first sqrt delta sqrt(1/32) + 1/4 has
        # cut 1 at D = 6, and the rest have cut 0 again
        g = gen_left_regular(24, 18, 6, 1)
        y = plant_errors(sample_codeword(g, 1), range(24))
        params = ExpanderParams(Fraction(1, 12), Fraction(1, 8))
        out = guess_expansion_decode_grid(g, y, params, 2)
        assert not out.ok and out.iterations == 2

    def test_conjunctive_branch_guard(self, guess_expansion_instance):
        # gamma*x >= eps alone with x < 1 must stay on the plain branch:
        # every successful single-error decode reports a plain-branch guess
        # with x < 1 or a sqrt-branch guess with x >= 1
        inst = guess_expansion_instance
        g = inst.graph
        out = guess_expansion_decode_poly(g, plant_errors(Word.zero(g.n_left), [0]), inst.params)
        assert out.ok
        if out.guess.branch == "sqrt":
            assert out.guess.x >= 1


def _seen_dedup_runner(g, y, params, guesses, algorithm):
    """The former guess runner: resolve every guess's cut, skip cuts already
    tried, and stop after a sqrt cut of 0."""
    n, d = g.n_left, g.d_left
    accept = (1 - 2 * params.eps) / (4 * params.eps) * params.alpha * n
    seen, attempts = set(), 0
    for enum_index, guess in guesses:
        cfg = FindConfig(guess.delta_radicand, guess.delta_affine)
        heff = cfg.effective_threshold(d)
        if heff in seen:
            continue
        seen.add(heff)
        attempts += 1
        e, _, _ = _find_and_erase(g, syndrome_bits(g, y.bits), cfg.effective_threshold(g.d_left), None)
        cand = None if e is None else y.bits ^ e
        if cand is not None and (y.bits ^ cand).bit_count() <= accept:
            return DecodeOutcome(
                algorithm, "success", word=Word(n, cand), radius=accept,
                corrected=(y.bits ^ cand).bit_count(), iterations=attempts,
                enumeration_index=enum_index, guess=guess,
            )
        if heff == 0 and guess.branch == "sqrt":
            break
    return DecodeOutcome(
        algorithm, "failure", reason="no-candidate", radius=accept, iterations=attempts
    )


def _grid_guesses_by_value(eps, eta_prime):
    """Reference for guess_expansion_decode_grid: every grid value, in order,
    each with its own threshold."""
    eta = eps * eta_prime
    for idx in range(math.ceil(1 / eta) + 1):
        gv = idx * eta
        if gv >= eps:
            yield (idx,), ExpansionGuess(None, None, gv, "sqrt", gv * eps, eta)
        else:
            yield (idx,), ExpansionGuess(None, None, gv, "plain", Fraction(0), eps + 2 * eta)


def _poly_guesses_by_pair(g, params, slack):
    """Reference for guess_expansion_decode_poly: every consistent guess
    (i, j), i ascending and j descending, each with its own threshold."""
    n, m, d = g.n_left, g.m_right, g.d_left
    eps = params.eps
    alpha_n = params.alpha * n
    for i in range(1, n + 1):
        x = i / alpha_n
        for j in range(min(m, d * i), 0, -1):
            gamma = 1 - Fraction(j, d * i)
            if gamma * x >= eps and x >= 1:
                yield (i, j), ExpansionGuess(x, gamma, None, "sqrt", gamma * x * eps, slack)
            else:
                yield (i, j), ExpansionGuess(
                    x, gamma, None, "plain", Fraction(0), eps + slack
                )


class TestOutcomeContract:
    def test_success_implies_zero_syndrome_within_radius(self, decode_instances):
        inst = decode_instances[0]
        g = inst.graph
        beta = Fraction(1, 4) - inst.eps
        rng = random.Random(5)
        for trial in range(40):
            y = Word(g.n_left, rng.getrandbits(g.n_left))
            for out in (
                viderman_decode(g, y, inst.params),
                guess_flip_decode(g, y, inst.params, beta),
                scaled_guess_flip_decode(g, y, inst.params, Fraction(1, 100)),
                flip_decode_ss(g, y, Fraction(2, 3)),
                fixed_find_and_decode(g, y, inst.params),
            ):
                assert isinstance(out, DecodeOutcome)
                if out.ok:
                    assert syndrome(g, out.word).is_zero
                    if out.radius is not None:
                        assert y.distance(out.word) <= out.radius
