"""Exact and sampled expansion measurement, and size-expansion tradeoffs.

All bound formulas are evaluated in exact rational arithmetic; floats appear
only in advisory reporting.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ._util import as_fraction, indices_to_mask, mask_to_indices
from .errors import BudgetExceeded, InvalidInput, InvalidParameters
from .graphs import BipartiteGraph, ExpanderParams

__all__ = [
    "neighbors",
    "unique_neighbors",
    "odd_neighbors",
    "ExpansionProfile",
    "measure_profile",
    "VerifyResult",
    "verify_expander",
    "TradeoffBound",
    "tradeoff_bound_first",
    "tradeoff_bound_second",
    "ParameterFacts",
    "parameter_facts",
    "CollisionReport",
    "collisions",
    "profile_to_csv",
]


def _neighbor_masks(g: BipartiteGraph, members: int) -> tuple[int, int, int]:
    """(all, unique, odd) neighbor masks of the left set given as a bit mask."""
    once = 0
    more = 0
    odd = 0
    masks = g.left_masks
    for i in mask_to_indices(members):
        m = masks[i]
        more |= once & m
        once |= m
        odd ^= m
    return once, once & ~more, odd


def neighbors(g: BipartiteGraph, s: Iterable[int]) -> frozenset[int]:
    """All right vertices adjacent to the left set."""
    all_, _, _ = _neighbor_masks(g, indices_to_mask(s, g.n_left))
    return frozenset(mask_to_indices(all_))


def unique_neighbors(g: BipartiteGraph, s: Iterable[int]) -> frozenset[int]:
    """Right vertices with exactly one edge into the left set."""
    _, uniq, _ = _neighbor_masks(g, indices_to_mask(s, g.n_left))
    return frozenset(mask_to_indices(uniq))


def odd_neighbors(g: BipartiteGraph, s: Iterable[int]) -> frozenset[int]:
    """Right vertices with an odd number of edges into the left set."""
    _, _, odd = _neighbor_masks(g, indices_to_mask(s, g.n_left))
    return frozenset(mask_to_indices(odd))


@dataclass(frozen=True)
class ExpansionProfile:
    """Worst-case neighbor counts per set size.

    ``min_neighbors[s-1]`` is min over |S| = s of the neighbor count;
    ``witnesses[s-1]`` attains it (exactly in exhaustive mode; in sampled
    mode both are upper-bound estimates from random subsets).
    """

    n_left: int
    d_left: int
    s_max: int
    min_neighbors: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    mode: str  # "exhaustive" | "sampled"
    trials: Optional[int] = None

    def min_at(self, s: int) -> int:
        if not 1 <= s <= self.s_max:
            raise InvalidInput(f"size {s} outside [1, {self.s_max}]")
        return self.min_neighbors[s - 1]

    def expansion_ratio(self, s: int) -> Fraction:
        return Fraction(self.min_at(s), s)

    def measured_eps(self) -> Fraction:
        """Smallest eps such that every profiled size meets (1-eps)*D*s.

        Exact for exhaustive profiles; a lower-bound estimate for sampled.
        """
        if self.d_left < 1:
            raise InvalidInput("graph has no edges")
        worst = Fraction(0)
        for s in range(1, self.s_max + 1):
            defect = 1 - Fraction(self.min_at(s), self.d_left * s)
            if defect > worst:
                worst = defect
        return worst


def _enumeration_cost(n: int, s_max: int) -> int:
    return sum(math.comb(n, s) for s in range(1, s_max + 1))


def measure_profile(
    g: BipartiteGraph,
    s_max: int,
    mode: str = "exhaustive",
    *,
    budget: int = 1 << 26,
    trials: int = 2000,
    seed: int = 0,
) -> ExpansionProfile:
    """Minimum neighbor counts for every set size up to ``s_max``.

    Exhaustive mode is exact: it walks the subsets by branch and bound,
    skipping every superset that could at most tie a minimum already found,
    so its minima and witnesses are those of visiting every subset. It still
    refuses when the sum of C(N, s) over s <= ``s_max`` exceeds ``budget``,
    however many subsets the walk would visit. Sampled mode draws ``trials``
    uniform subsets per size and its minima are upper-bound estimates,
    flagged via ``mode``.
    """
    n = g.n_left
    if not 1 <= s_max <= n:
        raise InvalidParameters(f"s_max must be in [1, {n}], got {s_max}")
    if mode == "exhaustive":
        cost = _enumeration_cost(n, s_max)
        if cost > budget:
            raise BudgetExceeded(
                f"exhaustive profile needs {cost} subsets > budget {budget}",
                required=cost,
            )
        return _profile_exhaustive(g, s_max)
    if mode == "sampled":
        if trials < 1:
            raise InvalidParameters(f"trials must be >= 1, got {trials}")
        return _profile_sampled(g, s_max, trials, seed)
    raise InvalidParameters(f"unknown mode {mode!r}")


def _profile_exhaustive(g: BipartiteGraph, s_max: int) -> ExpansionProfile:
    # Branch and bound over the pre-order DFS of all sets in ascending index
    # order, which reaches the sets of each size in lexicographic order.
    # |Gamma| only grows under inclusion, and a minimum is replaced only on a
    # strict <, so the subtree under a set whose count is >= best[t] at every
    # deeper size t holds no set that could replace a minimum: skipping it
    # leaves minima and witnesses as the full enumeration finds them.
    n = g.n_left
    masks = g.left_masks
    unseen = g.m_right + 1  # above every count: no minimum yet
    best = [unseen] * (s_max + 1)
    wit: list = [None] * (s_max + 1)
    # floor[s] = max(best[s+1:]), 0 at s_max where nothing is deeper; the
    # subtree under a size-s set with at least floor[s] neighbors is skipped
    floor = [unseen] * s_max + [0]
    members: list[int] = []

    def rec(start: int, size: int, cur: int) -> None:
        for v in range(start, n):
            merged = cur | masks[v]
            cnt = merged.bit_count()
            if cnt < best[size]:
                best[size] = cnt
                wit[size] = (*members, v)
                for s in range(size - 1, 0, -1):
                    floor[s] = max(floor[s + 1], best[s + 1])
            if cnt < floor[size]:
                members.append(v)
                rec(v + 1, size + 1, merged)
                members.pop()

    rec(0, 1, 0)
    return ExpansionProfile(
        n_left=n,
        d_left=g.d_left,
        s_max=s_max,
        min_neighbors=tuple(best[1:]),
        witnesses=tuple(wit[1:]),
        mode="exhaustive",
    )


def _profile_sampled(
    g: BipartiteGraph, s_max: int, trials: int, seed: int
) -> ExpansionProfile:
    rng = random.Random(seed)
    n = g.n_left
    best = []
    wit = []
    for s in range(1, s_max + 1):
        b = None
        w = None
        for _ in range(trials):
            members = sorted(rng.sample(range(n), s))
            cnt = _neighbor_masks(g, indices_to_mask(members, n))[0].bit_count()
            if b is None or cnt < b:
                b, w = cnt, tuple(members)
        best.append(b)
        wit.append(w)
    return ExpansionProfile(
        n_left=n,
        d_left=g.d_left,
        s_max=s_max,
        min_neighbors=tuple(best),
        witnesses=tuple(wit),
        mode="sampled",
        trials=trials,
    )


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    counterexample: Optional[tuple[int, ...]]
    failing_size: Optional[int]
    required: Optional[int]
    profile: ExpansionProfile

    def __bool__(self) -> bool:
        return self.passed


def verify_expander(
    g: BipartiteGraph,
    params: ExpanderParams,
    mode: str = "exhaustive",
    *,
    budget: int = 1 << 26,
    trials: int = 2000,
    seed: int = 0,
) -> VerifyResult:
    """Check min |Gamma(S)| >= ceil((1-eps)*D*s) for every s <= floor(alpha*N).

    A failed check carries a witness set. Sampled mode can only ever refute;
    a sampled pass means no counterexample was found among the trials.
    """
    s_max = params.s_max(g.n_left)
    profile = measure_profile(
        g, s_max, mode, budget=budget, trials=trials, seed=seed
    )
    need = (1 - params.eps) * g.d_left
    for s in range(1, s_max + 1):
        # counts are integers, so >= the rational bound iff >= its ceiling
        if profile.min_at(s) < need * s:
            return VerifyResult(
                passed=False,
                counterexample=profile.witnesses[s - 1],
                failing_size=s,
                required=math.ceil(need * s),
                profile=profile,
            )
    return VerifyResult(True, None, None, None, profile)


@dataclass(frozen=True)
class TradeoffBound:
    """Lower bound on |Gamma(S)| for |S| = round(k * alpha * N)."""

    k: Fraction
    size: int
    bound_edges: Fraction
    which: str  # "first" | "second"
    slack: Fraction
    in_lp_range: Optional[bool] = None


def tradeoff_bound_first(
    params: ExpanderParams, d: int, n: int, k
) -> TradeoffBound:
    """Proof-form first bound: (1-eps*k)*D*s - eps*(k-1)/(alpha*N-1)*D*s.

    ``slack`` is the subtracted correction term. Exactly derivable from the
    expansion property when alpha*N is an integer (the underlying argument
    samples subsets of size floor(alpha*N)).
    """
    k = as_fraction(k)
    if k < 1:
        raise InvalidParameters(f"k must be >= 1, got {k}")
    alpha_n = params.alpha * n
    if k > 1 and alpha_n <= 1:
        raise InvalidParameters("k > 1 requires alpha*N >= 2")
    s = round(k * alpha_n)
    leading = (1 - params.eps * k) * d * s
    if k == 1:
        slack = Fraction(0)
    else:
        slack = params.eps * (k - 1) / (alpha_n - 1) * d * s
    return TradeoffBound(k, s, leading - slack, "first", slack)


def tradeoff_bound_second(
    params: ExpanderParams, d: int, n: int, k
) -> TradeoffBound:
    """LP-dual second bound: (1 - (2k*eps-1)/(3-2/k)) * (k/2) * D * alpha * N.

    The value is the LP optimum for 1/(2 eps) <= k <= (1+sqrt(1-4 eps/3))/(2 eps)
    and a valid (dual-feasible) lower bound for any k > 1; ``in_lp_range``
    records which case applies. The additive degree-dependent slack is 0 by
    design.
    """
    k = as_fraction(k)
    if k <= 1:
        raise InvalidParameters(f"k must be > 1, got {k}")
    eps = params.eps
    alpha_n = params.alpha * n
    value = (1 - (2 * k * eps - 1) / (3 - 2 / k)) * Fraction(k, 2) * d * alpha_n
    # upper range limit: 2*eps*k - 1 <= sqrt(1 - 4*eps/3), squared exactly
    lo_ok = k >= Fraction(1, 2) / eps
    t = 2 * eps * k - 1
    hi_ok = t <= 0 or t * t <= 1 - Fraction(4, 3) * eps
    return TradeoffBound(
        k, round(k * alpha_n), value, "second", Fraction(0), lo_ok and hi_ok
    )


@dataclass(frozen=True)
class FactCheck:
    name: str
    applicable: bool
    holds: Optional[bool]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    margin: Optional[Fraction]
    note: str = ""

    @classmethod
    def at_least(cls, name: str, lhs: Fraction, rhs: Fraction, *,
                 applicable: bool = True, note: str = "") -> "FactCheck":
        """The check lhs >= rhs, with margin lhs - rhs."""
        return cls(name, applicable, lhs >= rhs, lhs, rhs, lhs - rhs, note)

    @classmethod
    def at_most(cls, name: str, lhs: Fraction, rhs: Fraction, *,
                applicable: bool = True, note: str = "") -> "FactCheck":
        """The check lhs <= rhs, with margin rhs - lhs."""
        return cls(name, applicable, lhs <= rhs, lhs, rhs, rhs - lhs, note)


@dataclass(frozen=True)
class ParameterFacts:
    eps_min: FactCheck
    alpha_ratio: FactCheck
    alpha_ratio_sharp: FactCheck
    existence_advisory: FactCheck

    def all_checks(self) -> tuple[FactCheck, ...]:
        return (
            self.eps_min,
            self.alpha_ratio,
            self.alpha_ratio_sharp,
            self.existence_advisory,
        )


def parameter_facts(alpha, eps, d: int, d_r, m: int, n: int) -> ParameterFacts:
    """Evaluate the parameter relations any (alpha*N, (1-eps)D) expander obeys.

    Checks eps >= 1/D (with the caveat that the short-cycle argument behind
    it needs the cycle to fit inside the alpha*N budget, so it is reported,
    not asserted, for tiny alpha*N), the relation alpha/(4 eps) <= 1/D_R in
    both its plain and sharp finite-N forms, and, as a float-only advisory,
    the existence direction alpha/eps >= (1/e)/D_R achieved by random graphs.
    """
    alpha = as_fraction(alpha)
    eps = as_fraction(eps)
    d_r = as_fraction(d_r)
    if alpha <= 0 or eps <= 0 or d < 1 or d_r <= 0 or m < 1 or n < 1:
        raise InvalidParameters("need alpha, eps, d, d_r, m and n all positive")

    inv_d = Fraction(1, d)
    eps_min = FactCheck.at_least(
        "eps >= 1/D", eps, inv_d,
        note="short-cycle argument; indicative only when the cycle fits in the alpha*N budget",
    )

    lhs = alpha / (4 * eps)
    rhs = 1 / d_r
    alpha_ratio = FactCheck.at_most("alpha/(4 eps) <= 1/D_R", lhs, rhs)

    # sharp finite-N form, from the exact first tradeoff bound applied to a
    # set of (rational) size 2M/D: 1/D_R >= alpha/(4 eps) - correction
    k = 2 / (alpha * d_r)
    alpha_n = alpha * n
    if k > 1 and alpha_n > 1 and 2 * Fraction(m, d) <= n:
        correction = alpha * (k - 1) / (2 * (alpha_n - 1))
        sharp_rhs = lhs - correction
        sharp = FactCheck.at_least(
            "1/D_R >= alpha/(4 eps) - correction", rhs, sharp_rhs,
            note=f"correction = {correction}",
        )
    else:
        sharp = FactCheck(
            name="1/D_R >= alpha/(4 eps) - correction",
            applicable=False,
            holds=None,
            lhs=None,
            rhs=None,
            margin=None,
            note="needs 2M/D > alpha*N > 1 and 2M/D <= N",
        )

    ratio = alpha / eps
    target = Fraction(1) / d_r  # compared against (1/e)/D_R in floats
    adv_holds = float(ratio) >= float(target) / math.e
    existence = FactCheck(
        name="alpha/eps >= (1/e)/D_R (advisory)",
        applicable=True,
        holds=adv_holds,
        lhs=ratio,
        rhs=None,
        margin=None,
        note=f"float check: {float(ratio):.6g} vs {float(target) / math.e:.6g}",
    )
    return ParameterFacts(eps_min, alpha_ratio, sharp, existence)


@dataclass(frozen=True)
class CollisionReport:
    """Collision count D*|S| - |Gamma(S)| and density gamma of a left set."""

    members: tuple[int, ...]
    collisions: int
    gamma: Fraction


def collisions(g: BipartiteGraph, s: Iterable[int]) -> CollisionReport:
    mask = indices_to_mask(s, g.n_left)
    members = mask_to_indices(mask)
    if not members:
        return CollisionReport((), 0, Fraction(0))
    if g.d_left < 1:
        raise InvalidInput("graph has no edges")
    total = g.d_left * len(members)
    nb = _neighbor_masks(g, mask)[0].bit_count()
    count = total - nb
    return CollisionReport(members, count, Fraction(count, total))


def profile_to_csv(profile: ExpansionProfile) -> str:
    """CSV with columns size, min_neighbors, expansion_ratio, witness, mode."""
    out = io.StringIO()
    out.write("size,min_neighbors,expansion_ratio,witness,mode\n")
    for s in range(1, profile.s_max + 1):
        witness = ";".join(str(i) for i in profile.witnesses[s - 1])
        out.write(
            f"{s},{profile.min_at(s)},{profile.expansion_ratio(s)},{witness},{profile.mode}\n"
        )
    return out.getvalue()
