"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (bypassing capture, so the lines always appear)."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from expander_codes import (
    Word,
    decode_erasures,
    enumerate_list,
    find_suspects,
    FindConfig,
    gen_left_regular,
    guess_flip_decode,
    improved_radius,
    is_codeword,
    johnson_radius,
    min_distance_bruteforce,
    nullspace,
    odd_neighbors,
    plant_errors,
    random_regular_graph,
    report_radii,
    sample_codeword,
    syndrome,
    tau_profile,
    tradeoff_bound_first,
    tradeoff_bound_second,
    union_graph,
    unique_neighbors,
    vertex_edge_graph,
    viderman_decode,
)
from conftest import cyc_graph, random_verified_instances, tri3_graph


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


def _run(announce, num: int, label: str, budget_s: float, fn):
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException:
        announce(f"criterion {num:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    announce(f"criterion {num:2d} PASS  {label} [{elapsed:.2f}s]  {detail}")
    assert elapsed < budget_s, f"criterion {num} exceeded budget {budget_s}s"


def test_criterion_1_cycle_code_distances(announce):
    def body():
        for length in range(3, 11):
            res = min_distance_bruteforce(cyc_graph(length))
            assert res.distance == length
            assert res.witness.weight() == length
        return "distance(CYC_L) == L for L in 3..10"

    _run(announce, 1, "cycle-code distances", 1.0, body)


def test_criterion_2_codeword_iff_no_odd_neighbors(announce):
    def body():
        rng = random.Random(2024)
        words = 0
        both = [0, 0]
        for gseed in range(50):
            n = 8 + gseed % 13  # 8..20
            m = max(3, n - 2 - gseed % 3)
            g = gen_left_regular(n, m, 3 + gseed % 2, gseed)
            for t in range(20):
                if t < 2:
                    w = sample_codeword(g, rng.randrange(1 << 30))
                else:
                    w = Word(n, rng.getrandbits(n))
                is_cw = syndrome(g, w).is_zero
                assert is_cw == (odd_neighbors(g, w.support()) == set())
                both[is_cw] += 1
                words += 1
        assert words == 1000 and min(both) > 0
        return f"{words} words, {both[1]} codewords among them"

    _run(announce, 2, "codeword iff empty odd-neighborhood", 5.0, body)


def test_criterion_3_size_expansion_tradeoff(announce):
    def body():
        instances = random_verified_instances(20)
        assert len(instances) >= 20
        checks = 0
        for inst in instances:
            g, params = inst.graph, inst.params
            n, d, alpha_n = g.n_left, g.d_left, inst.alpha_n
            from expander_codes import measure_profile, verify_expander

            assert verify_expander(g, params).passed
            prof = measure_profile(g, n)
            if alpha_n < 2:
                continue
            for s in range(alpha_n, n + 1):
                # the bound decreases in k, so the exact-size point
                # k = s/(alpha*N) dominates every admissible k mapping to s;
                # also spot-check a round-down k inside (s, s+1/2)
                ks = [Fraction(s, alpha_n)]
                k_dn = Fraction(2 * s + 1, 2 * alpha_n) - Fraction(1, 1000 * alpha_n)
                if k_dn >= 1 and round(k_dn * params.alpha * n) == s:
                    ks.append(k_dn)
                for k in ks:
                    if k < 1:
                        continue
                    bound = tradeoff_bound_first(params, d, n, k)
                    assert bound.size == s
                    assert prof.min_at(s) >= bound.bound_edges, (s, k)
                    checks += 1
            k0 = 1 / (2 * params.eps)
            if k0 > 1:
                second = tradeoff_bound_second(params, d, n, k0)
                leading = (1 - params.eps * k0) * d * k0 * params.alpha * n
                assert second.bound_edges == leading
                assert second.bound_edges == d * params.alpha * n / (4 * params.eps)
        return f"{len(instances)} instances, {checks} exact set-size checks"

    _run(announce, 3, "size-expansion tradeoff exact", 120.0, body)


def test_criterion_4_guess_flip_exhaustive_radius(announce, decode_instances, w2_instance):
    def body():
        lines = []
        # W(2) is the instance whose target, 2, passes Viderman's radius 9/5
        for inst in (*decode_instances, w2_instance):
            g, eps = inst.graph, inst.eps
            n, alpha_n = g.n_left, inst.alpha_n
            beta = Fraction(1, 4) - eps
            assert beta > 0 and eps <= Fraction(1, 4) - beta
            planted = sample_codeword(g, 17)

            def full_recovery(radius: int) -> bool:
                for r in range(radius + 1):
                    for pat in itertools.combinations(range(n), r):
                        out = guess_flip_decode(
                            g, plant_errors(planted, pat), inst.params, beta
                        )
                        if not (out.ok and out.word == planted):
                            return False
                return True

            # slack 0 first; a failure would only be tolerable if some
            # larger slack restores 100%
            used_slack = None
            for slack in (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
                target = math.floor((1 - eps) * alpha_n * (1 - slack))
                if full_recovery(target):
                    used_slack = slack
                    break
            assert used_slack is not None, "no slack restores 100% recovery"
            assert used_slack == 0, f"needed slack {used_slack}"

            achieved = target
            while achieved < n:
                ok = True
                for pat in itertools.combinations(range(n), achieved + 1):
                    out = guess_flip_decode(
                        g, plant_errors(planted, pat), inst.params, beta
                    )
                    if not (out.ok and out.word == planted):
                        ok = False
                        break
                if not ok:
                    break
                achieved += 1
            baseline = (1 - 3 * eps) / (1 - 2 * eps) * math.floor(
                inst.params.alpha * n
            )
            assert achieved >= math.floor(baseline), (achieved, baseline)
            viderman_missed = sum(
                viderman_decode(g, plant_errors(planted, pat), inst.params).word != planted
                for r in range(target + 1)
                for pat in itertools.combinations(range(n), r)
            )
            if inst is w2_instance:
                assert viderman_missed > 0, "W(2) no longer separates the decoders"
            lines.append(
                f"N={n} eps={eps} target={target} achieved={achieved} "
                f"baseline={baseline}={float(baseline):.3f} "
                f"viderman_missed={viderman_missed}"
            )
        return "; ".join(lines)

    _run(announce, 4, "guess-flip exhaustive decoding radius", 600.0, body)


def test_criterion_5_erasure_radius_exhaustive(announce, decode_instances):
    def body():
        xi = Fraction(1, 10)
        total = 0
        for inst in decode_instances:
            g, eps = inst.graph, inst.eps
            n = g.n_left
            budget = math.floor((1 - xi) / (2 * eps) * inst.params.alpha * n)
            assert budget >= 1
            planted = sample_codeword(g, 23)
            for r in range(budget + 1):
                for pat in itertools.combinations(range(n), r):
                    mask = sum(1 << i for i in pat)
                    w = Word(n, planted.bits & ~mask, mask)
                    out = decode_erasures(g, w)
                    assert out.ok and out.word == planted, (r, pat)
                    total += 1
        return f"{total} erasure patterns across {len(decode_instances)} instances"

    _run(announce, 5, "erasure decoding radius exhaustive", 300.0, body)


def test_criterion_6_find_order_properties(announce):
    def body():
        pool = [gen_left_regular(10, 7, 3, s) for s in range(25)]
        rng = random.Random(99)
        contained = 0
        for case in range(10_000):
            g = pool[case % len(pool)]
            n, d = g.n_left, g.d_left
            f = tuple(sorted(rng.sample(range(n), rng.randint(0, 4))))
            if case % 2:
                y = Word(n, rng.getrandbits(n))  # arbitrary word
                f = None
            else:
                y = Word.from_support(n, f)  # planted errors off the zero word
            cfg = FindConfig.from_delta(Fraction(rng.randrange(0, 12), 24))
            asc = find_suspects(g, y, cfg, order="ascending").l_set
            dsc = find_suspects(g, y, cfg, order="descending").l_set
            rnd = find_suspects(g, y, cfg, order="random", seed=case).l_set
            assert asc == dsc == rnd
            if f:
                need = (1 - 2 * (Fraction(0) + cfg.s)) * d
                precondition = all(
                    len(unique_neighbors(g, sub)) >= need * len(sub)
                    for r in range(1, len(f) + 1)
                    for sub in itertools.combinations(f, r)
                )
                if precondition:
                    assert set(f) <= asc
                    contained += 1
        assert contained > 100
        return f"10000 cases, {contained} containment checks"

    _run(announce, 6, "find order-independence and containment", 120.0, body)


def test_criterion_7_radius_formulas(announce):
    def body():
        # exact rationals in each regime
        rep = report_radii(Fraction(1, 100), Fraction(1, 10))
        assert rep.distance == Fraction(1, 100) / Fraction(2, 10)
        assert rep.new_exact == (1 - Fraction(2, 10)) / Fraction(4, 10) / 100
        rep = report_radii(Fraction(1, 100), Fraction(1, 5))
        assert rep.new_exact == Fraction(3, 1) / (16 * Fraction(1, 5)) / 100
        assert rep.prior == (1 - Fraction(3, 5)) / (1 - Fraction(2, 5)) / 100
        rep = report_radii(Fraction(1, 100), Fraction(1, 20))
        assert rep.new_exact is None
        assert rep.new_value == (math.sqrt(2) - 1) / (2 * 0.05) * 0.01
        # boundary: the two small-eps formulas agree at eps = (3-2*sqrt(2))/2
        eps0 = (3 - 2 * math.sqrt(2)) / 2
        assert abs((1 - 2 * eps0) / (4 * eps0) - (math.sqrt(2) - 1) / (2 * eps0)) <= 1e-12
        # regime selection is decided exactly around the boundary
        below = Fraction(857, 10000)  # 0.0857 < (3-2*sqrt(2))/2
        above = Fraction(859, 10000)
        assert report_radii(Fraction(1, 100), below).new_exact is None
        assert report_radii(Fraction(1, 100), above).new_exact is not None
        return "distance and radius closed forms exact; boundary within 1e-12"

    _run(announce, 7, "radius formula table", 5.0, body)


def test_criterion_8_list_decoding_numerics(announce):
    def body():
        assert johnson_radius(Fraction(18, 100)) == Fraction(1, 10)
        points = 0
        for i in range(1, 101):
            delta = Fraction(i, 2000)  # up to 0.05 = ratio bound / 2
            d_r = math.floor(1 / (0.665 * float(delta)))
            d_max = math.floor(1.1 * d_r)
            alpha = 2 * delta * Fraction(1, 8)
            b = improved_radius(delta, d_max, alpha=alpha, eps=Fraction(1, 8), d_r=d_r)
            assert b.claim_conditions and all(b.claim_conditions.values())
            assert b.rho_star > b.johnson_r, (delta, d_max)
            assert b.rho_star >= float(delta) / 2 / (1 - 0.04 / d_max)
            points += 1
        return f"johnson(0.18) exact; improved > johnson on {points} grid points"

    _run(announce, 8, "list-decoding numerics", 5.0, body)


def test_criterion_9_tau_and_list_properties(announce):
    def body():
        instances = [
            tri3_graph(),
            cyc_graph(4),
            cyc_graph(5),
            cyc_graph(6),
            union_graph(tri3_graph(), tri3_graph()),
            union_graph(tri3_graph(), cyc_graph(4)),
            gen_left_regular(10, 7, 3, 1),
        ]
        centers = 0
        for g in instances:
            n = g.n_left
            assert n <= 12
            if nullspace(g).dimension == 0:
                continue
            d = min_distance_bruteforce(g).distance
            radius = math.floor(0.54 * d)
            unique_region = radius < math.ceil(d / 2)
            for bits in range(1 << n):
                y = Word(n, bits)
                lst = enumerate_list(g, y, radius)
                if unique_region:
                    assert len(lst) <= 1
                if not lst:
                    continue
                prof = tau_profile(g, y, lst, d_min=d)
                assert prof.gamma_odd_consistent
                assert prof.sum_tau <= radius * prof.list_size
                assert prof.triple_count >= math.comb(prof.list_size, 2) * d
                centers += 1
        return f"{centers} centers with nonempty lists"

    _run(announce, 9, "tau and list properties exhaustive", 300.0, body)


def test_criterion_10_tight_distance_construction(announce):
    def body():
        lines = []
        for seed in range(3):
            h = random_regular_graph(8, 3, seed)
            g0 = vertex_edge_graph(h)
            g1 = gen_left_regular(10, 12, 3, seed + 50)
            g = union_graph(g0, g1)
            ones_on_h = Word.from_support(g.n_left, range(h.n_vertices))
            assert is_codeword(g, ones_on_h)
            dist = min_distance_bruteforce(g).distance
            assert dist <= h.n_vertices
            lines.append(f"seed={seed}: distance {dist} <= {h.n_vertices}")
        return "; ".join(lines)

    _run(announce, 10, "tight distance construction", 30.0, body)
