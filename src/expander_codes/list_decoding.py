"""List-decoding radius calculators, and the exact list within a radius
with its disagreement profile.

The improved-radius calculator solves the normalized fixed-point system that
splits disagreement counts into heavy and light positions; every intermediate
quantity is exposed so tests can audit each stage.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

from ._util import as_fraction, mask_to_indices
from .errors import ConvergenceFailed, InvalidInput, InvalidParameters
from .expansion import FactCheck
from .graphs import BipartiteGraph
from .linear_code import Word, check_word, min_distance_bruteforce, nullspace, syndrome_bits

__all__ = [
    "johnson_radius",
    "ListRadiusBreakdown",
    "improved_radius",
    "ThresholdClaimReport",
    "threshold_claim_check",
    "enumerate_list",
    "TauProfile",
    "tau_profile",
]

HEAVY_NUMERATOR = Fraction(9, 10)  # heavy threshold theta = 0.9 / D_max
HEAVY_MASS = 0.45  # fraction of odd-neighbor mass retained by heavy positions


def johnson_radius(delta) -> Union[Fraction, float]:
    """List-decoding radius (1 - sqrt(1 - 2*delta))/2 of relative distance delta.

    Returns an exact Fraction when delta is a Fraction making 1 - 2*delta a
    perfect rational square; otherwise a float, computed in the
    cancellation-free form delta / (1 + sqrt(1 - 2*delta)).
    """
    exact = not isinstance(delta, float)
    d = as_fraction(delta)
    if not 0 <= d <= Fraction(1, 2):
        raise InvalidParameters(f"delta must be in [0, 1/2], got {delta}")
    if exact:
        t = 1 - 2 * d
        rn, rd = math.isqrt(t.numerator), math.isqrt(t.denominator)
        if rn * rn == t.numerator and rd * rd == t.denominator:
            return (1 - Fraction(rn, rd)) / 2
    df = float(d)
    if df == 0.5:
        return 0.5
    return df / (1.0 + math.sqrt(1.0 - 2.0 * df))


@dataclass(frozen=True)
class ListRadiusBreakdown:
    """All quantities of the improved-radius computation, normalized.

    ``s_h`` is the heavy disagreement mass per position per list entry,
    ``n_h`` the heavy-position fraction, ``e`` the light-position average;
    at the fixed point n_h*theta + (1-n_h)*e = rho_star holds exactly.
    ``regime`` is "fixed-point" when the bracketed root was found and
    "fallback" when the heavy-threshold regime fails and the closed-form
    lower bound (delta/2)/(1 - 0.04/D_max) is returned instead.
    """

    delta: float
    d_max: int
    theta: float
    rho_star: float
    johnson_r: float
    s_h: float
    n_h: float
    e: float
    regime: str
    residual: float
    claim_conditions: Optional[dict[str, bool]] = None


def _fixed_point_terms(rho: float, delta: float, theta: float) -> tuple[float, float, float, float]:
    s_h = HEAVY_MASS * rho * (1.0 - 0.9)  # D_max * theta = 0.9 exactly
    n_h = s_h / theta
    e = (rho - s_h) / (1.0 - n_h)
    f = delta / 2.0 + n_h * theta * theta + (1.0 - n_h) * e * e
    return f, s_h, n_h, e


def improved_radius(
    delta,
    d_max: int,
    *,
    alpha=None,
    eps=None,
    d_r=None,
    tol: float = 1e-12,
) -> ListRadiusBreakdown:
    """Relative list-decoding radius from the heavy/light disagreement split.

    Solves rho = delta/2 + n_h*theta^2 + (1-n_h)*e^2 by monotone bisection on
    [delta/2, 0.54*delta] with theta = 0.9/d_max, s_h = 0.045*rho and
    n_h = s_h/theta. When the regime fails (no bracketed root, or the heavy
    threshold does not exceed the root) the fallback lower bound
    (delta/2)/(1 - 0.04/d_max) is returned with regime="fallback". The result
    is checked against that closed-form bound in all cases.
    """
    exact = as_fraction(delta)
    # exact bounds first: float() of a huge delta overflows
    if not 0 < exact < Fraction(1, 2) or not 0.0 < float(exact) < 0.5:
        raise InvalidParameters(f"delta must be in (0, 1/2), got {delta}")
    ddelta = float(exact)
    if d_max < 2:
        raise InvalidParameters(f"d_max must be >= 2, got {d_max}")
    theta = float(HEAVY_NUMERATOR) / d_max
    jr = johnson_radius(ddelta)
    jr_f = float(jr)
    fallback = (ddelta / 2.0) / (1.0 - 0.04 / d_max)

    conditions = None
    if alpha is not None and eps is not None:
        conditions = {c.name: c.holds for c in _claim_gates(alpha, eps, d_max, d_r)}

    lo, hi = ddelta / 2.0, 0.54 * ddelta
    n_h_hi = HEAVY_MASS * hi * (1.0 - 0.9) / theta
    bracketed = n_h_hi < 1.0 and _fixed_point_terms(hi, ddelta, theta)[0] - hi <= 0.0
    if bracketed:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _fixed_point_terms(mid, ddelta, theta)[0] - mid > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 0.0:
                break
        rho = hi
        f, s_h, n_h, e = _fixed_point_terms(rho, ddelta, theta)
        residual = abs(f - rho)
        if residual > tol:
            raise ConvergenceFailed(f"bisection did not converge: residual {residual}")
    if not bracketed or theta <= rho:
        return ListRadiusBreakdown(
            ddelta, d_max, theta, fallback, jr_f,
            HEAVY_MASS * fallback * 0.1, 0.0, 0.0, "fallback", float("nan"),
            conditions,
        )
    if rho < fallback * (1.0 - 1e-9):
        raise InvalidParameters(
            f"fixed point {rho} below the closed-form floor {fallback}"
        )
    return ListRadiusBreakdown(
        ddelta, d_max, theta, rho, jr_f, s_h, n_h, e,
        "fixed-point", residual, conditions,
    )


def _claim_gates(alpha, eps, d_max: int, d_r=None) -> tuple[FactCheck, ...]:
    """The claim's gate conditions eps <= 1/4, alpha/eps <= 0.1 and, when
    ``d_r`` is given, d_max <= 1.1*d_r."""
    alpha, eps = as_fraction(alpha), as_fraction(eps)
    d_r = None if d_r is None else as_fraction(d_r)
    if alpha <= 0 or eps <= 0 or d_max <= 0 or (d_r is not None and d_r <= 0):
        raise InvalidParameters("alpha, eps, d_max and d_r must be positive")
    ratio = alpha / eps
    gates = [
        FactCheck.at_most("eps <= 1/4", eps, Fraction(1, 4)),
        FactCheck.at_most("alpha/eps <= 0.1", ratio, Fraction(1, 10)),
    ]
    if d_r is not None:
        gates.append(FactCheck.at_most("d_max <= 1.1*d_r", Fraction(d_max),
                                       Fraction(11, 10) * d_r))
    return tuple(gates)


@dataclass(frozen=True)
class ThresholdClaimReport:
    conditions: tuple[FactCheck, ...]
    johnson_below: FactCheck  # r < 0.53 * delta
    theta_above: FactCheck  # theta >= 0.544 * delta
    delta: Fraction


def threshold_claim_check(alpha, eps, d_max: int, d_r) -> ThresholdClaimReport:
    """Check the gate conditions and the two threshold inequalities that make
    the heavy-position radius beat the Johnson radius.

    The inequalities (r < 0.53*delta and theta >= 0.544*delta) are evaluated
    with exact rationals wherever possible and are asserted only under their
    gate conditions; with a failed gate they are still reported, flagged
    not-applicable.
    """
    conditions = _claim_gates(alpha, eps, d_max, d_r)
    alpha, eps, d_r = as_fraction(alpha), as_fraction(eps), as_fraction(d_r)
    delta = alpha / (2 * eps)
    ratio = alpha / eps
    conditions += (
        FactCheck.at_least("1/d_r >= 0.3325*alpha/eps", 1 / d_r,
                           Fraction(3325, 10000) * ratio),
    )
    gates_r = conditions[0].holds and conditions[1].holds
    r = johnson_radius(delta)
    r_limit = Fraction(53, 100) * delta
    if isinstance(r, Fraction):
        r_holds = r < r_limit
        r_margin = r_limit - r
    else:
        r_holds = r < float(r_limit)
        r_margin = Fraction(repr(float(r_limit) - r))
    johnson_below = FactCheck(
        "johnson r < 0.53*delta", gates_r, r_holds,
        r if isinstance(r, Fraction) else Fraction(repr(r)), r_limit, r_margin,
        note="gated by eps and alpha/eps conditions",
    )
    gates_theta = conditions[2].holds and conditions[3].holds
    theta = HEAVY_NUMERATOR / d_max
    t_limit = Fraction(544, 1000) * delta
    theta_above = FactCheck.at_least(
        "theta >= 0.544*delta", theta, t_limit, applicable=gates_theta,
        note="gated by d_max and d_r conditions",
    )
    return ThresholdClaimReport(conditions, johnson_below, theta_above, delta)


def enumerate_list(
    g: BipartiteGraph, y: Word, radius: int, budget: int = 24
) -> list[Word]:
    """All codewords within Hamming distance ``radius`` of y, sorted by their
    integer bit encoding; ``radius`` may be any nonnegative real.

    The reduced basis is systematic on its free columns, an information set.
    Every codeword is the one that agrees with y there XOR a sum of basis
    words, and a sum of w words differs from y in w free columns. So only
    the sums of at most floor(radius) words are listed, sum(C(k, <= r)) of
    the 2^k codewords. Refuses when the code dimension exceeds ``budget``.
    """
    check_word(g, y)
    if not radius >= 0:  # also refuses nan
        raise InvalidParameters("radius must be nonnegative")
    ns = nullspace(g)
    # a reduced basis word's highest set bit is its free column
    agree = [vec for vec in ns.basis if y.bits >> (vec.bit_length() - 1) & 1]
    r = math.floor(min(radius, g.n_left))
    walk = ns.sums(reduce(operator.xor, agree, 0), 0, r, budget)
    hits = sorted(bits for bits in walk if (bits ^ y.bits).bit_count() <= r)
    return [Word(g.n_left, bits) for bits in hits]


@dataclass(frozen=True)
class TauProfile:
    """Per-position disagreement counts of a list against its center.

    ``tau[i]`` counts list codewords differing from the center at i; heavy
    positions reach theta * L with theta = 0.9/D_max. ``triple_count`` is
    sum tau_i * (L - tau_i), lower-bounded by C(L,2) * d_min.
    """

    tau: tuple[int, ...]
    list_size: int
    theta: Fraction
    heavy: tuple[int, ...]
    sum_tau: int
    triple_count: int
    triple_lower_bound: Optional[int]
    d_min: Optional[int]
    gamma_odd_size: int
    gamma_odd_consistent: bool


def tau_profile(
    g: BipartiteGraph,
    y: Word,
    codewords: Sequence[Word],
    d_min: Optional[int] = None,
) -> TauProfile:
    """Disagreement profile of a nonempty list of codewords around y.

    Verifies that every list entry is a codeword and that the odd-neighbor
    set of (y xor C) agrees across the whole list.
    """
    check_word(g, y)
    if not codewords:
        raise InvalidInput("list must be nonempty")
    if g.d_max < 1:
        raise InvalidInput("graph has no edges")
    for w in codewords:
        check_word(g, w)
        if syndrome_bits(g, w.bits) != 0:
            raise InvalidInput(f"list entry {w} is not a codeword")

    n = g.n_left
    big_l = len(codewords)
    tau = [0] * n
    for w in codewords:
        for i in mask_to_indices(w.bits ^ y.bits):
            tau[i] += 1

    theta = HEAVY_NUMERATOR / g.d_max
    cutoff = math.ceil(theta * big_l)  # tau[i] >= theta * L exactly, as tau is integral
    heavy = tuple(i for i in range(n) if tau[i] >= cutoff)
    triple_count = sum(t * (big_l - t) for t in tau)

    # the odd neighbors of y xor C are the unsatisfied checks of y, for every
    # codeword C: verify the agreement literally
    odd_sets = {syndrome_bits(g, y.bits ^ w.bits) for w in codewords}
    consistent = len(odd_sets) == 1
    gamma_odd_size = next(iter(odd_sets)).bit_count()

    if d_min is None and big_l >= 2:
        d_min = min_distance_bruteforce(g).distance
    triple_lower = None
    if d_min is not None:
        triple_lower = math.comb(big_l, 2) * d_min
        if triple_count < triple_lower:
            # impossible for a genuine codeword list and a true distance
            raise InvalidInput(
                f"triple count {triple_count} below C(L,2)*d = {triple_lower}; "
                "is d_min correct?"
            )

    return TauProfile(
        tau=tuple(tau),
        list_size=big_l,
        theta=theta,
        heavy=heavy,
        sum_tau=sum(tau),
        triple_count=triple_count,
        triple_lower_bound=triple_lower,
        d_min=d_min,
        gamma_odd_size=gamma_odd_size,
        gamma_odd_consistent=consistent,
    )
