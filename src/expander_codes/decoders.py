"""Decoding procedures: suspect finding, erasure peeling, bit flipping, and
the guess-driven decoders built on top of them.

Every decoder is a pure function of (graph, word, configuration) and returns
a DecodeOutcome. A success always carries a zero-syndrome codeword whose
distance to the input respects the decoder's validation radius; candidates
are re-checked even where theory would guarantee it. Threshold comparisons
are exact: every threshold is (1 - 2*delta)*D with delta = sqrt(q) + s for
rationals q, s >= 0, and one integer closed form (``_cuts_along``, built on
``math.isqrt``) turns it into the least integer count it admits: once per
probe of a guess listing, or once per call at q = 0 (``_delta_cut``, its
case with no square root). The
guess-flip cuts max(0, ceil((1 - 3 i eta) D)) are listed on integers too, one
floor division per probe (``_flip_cuts``). The per-vertex loops compare
integer counts against that integer cut.

Each decoder's per-call set-up runs on integers. With eps = a/b,
alpha = c/e, beta = p/q and the like, the cuts, the erasure capacity
(``_capacity``), the radius floors and the refusals (eps <= 1/8,
eps <= 1/4 - beta, eps < 1/3, tf in (1/2, 1]) are integer expressions and
cross-multiplications of those numerators and denominators. No Fraction is
added, multiplied, divided, floored or compared; the Fractions an outcome
carries (its radius, the accepted ExpansionGuess) are each built by one
constructor.

Find-and-erase works in the syndrome domain. A decode computes s = H*y once;
suspect counts start at the neighbors of the unsatisfied checks, peeling
touches only the checks next to the suspect set L, and the result is an
error pattern e on L with H*e = s, re-checked in O(|e|). Past that one
syndrome the cost follows |s| and |L|, not N. One find loop (``_suspects``)
serves every decoder and the public ``find_suspects``, with one pick rule, a
stack: L and R are a closure, so the order in which vertices join is only a
device of the proof (Viderman's find-and-erase).

Decoding from erasures peels with inactivation: where peeling stalls, one
erased column becomes a symbol and peeling goes on, so the one GF(2)
elimination runs over the symbols, not over every column left, and stops
at full rank. At N = 2000, M = 1500, D = 6 with 1000 erasures that is 22-40
symbols in place of about 850 columns, and the solve takes 2-3 ms instead
of 27-30 (CPython 3.11, 2 shared vCPUs).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Generator, NamedTuple, Optional, Sequence

from ._util import _reduce, as_fraction, indices_to_mask, mask_to_indices, select
from .errors import InvalidInput, InvalidParameters
from .graphs import BipartiteGraph, ExpanderParams
from .linear_code import Word, check_word, syndrome_bits

__all__ = [
    "FindConfig",
    "FindTrace",
    "find_suspects",
    "ErasureConfig",
    "DecodeOutcome",
    "decode_erasures",
    "fixed_find_and_decode",
    "flip_decode_ss",
    "viderman_decode",
    "FlipRoundReport",
    "flip_round",
    "GuessSchedule",
    "guess_flip_decode",
    "scaled_guess_flip_decode",
    "ExpansionGuess",
    "guess_expansion_decode_poly",
    "guess_expansion_decode_grid",
]


# -- suspect finding ---------------------------------------------------------


def _cuts_along(d: int, num: int, den: int, sn: int, sd: int):
    """The cut of delta = sqrt(k*num/den) + sn/sd as an integer function of
    k >= 0, for integers num, sn >= 0 and den, sd > 0: the least integer
    c >= 0 with c >= (1 - 2*delta)*D.

    With A = D*(sd - 2*sn) and X = 4*D^2*sd^2*k*num/den, the condition is the
    integer inequality A - c*sd <= sqrt(X). An integer is at most sqrt(X) iff
    it is at most isqrt(floor(X)), so the cut is ceil((A - isqrt(floor(X)))/sd),
    clipped at 0: exact, on integers, with no loop, and the same for any
    representation of the two ratios. The constants are worked out once, so a
    probe at k is one integer floor division and one ``math.isqrt``.
    """
    x = 4 * d * d * sd * sd * num
    a = d * (sd - 2 * sn)
    return lambda k: max(0, -((math.isqrt(x * k // den) - a) // sd))


def _cut(d: int, q, s) -> int:
    """The least integer c >= 0 with c >= (1 - 2*(sqrt(q) + s))*D, for
    rationals (or ints) q, s >= 0: ``_cuts_along`` at k = 1."""
    return _cuts_along(d, q.numerator, q.denominator, s.numerator, s.denominator)(1)


def _delta_cut(d: int, sn: int, sd: int) -> int:
    """The cut at delta = sn/sd, for integers sn >= 0 and sd > 0: the
    decoders' find, flip and plain cuts. It is ``_cuts_along`` with no square
    root, ceil(D*(sd - 2*sn)/sd) clipped at 0."""
    return max(0, -(-d * (sd - 2 * sn) // sd))


@dataclass(frozen=True)
class FindConfig:
    """Suspect-finding threshold h = (1 - 2*delta)*D with delta = sqrt(q) + s.

    Storing the radicand keeps the eligibility test exact even for the
    square-root thresholds the guess-expansion decoders use: a vertex with
    ``count`` unsatisfied/covered checks is eligible iff count >= h, and
    ``effective_threshold`` gives that least integer count through ``_cut``.
    """

    q: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        object.__setattr__(self, "s", as_fraction(self.s))
        if self.q < 0 or self.s < 0:
            raise InvalidParameters("threshold components must be nonnegative")

    @classmethod
    def from_delta(cls, delta) -> "FindConfig":
        delta = as_fraction(delta)
        if not 0 <= delta < Fraction(1, 2):
            raise InvalidParameters(f"delta must be in [0, 1/2), got {delta}")
        return cls(Fraction(0), delta)

    def effective_threshold(self, d: int) -> int:
        """Smallest admitted count, in [0, d]: count D always passes."""
        return _cut(d, self.q, self.s)


@dataclass(frozen=True)
class FindTrace:
    """Result of the suspect-finding loop: L, in the order the decoders'
    find loop adds it, plus R."""

    order: tuple[int, ...]
    l_mask: int
    r_mask: int

    @property
    def l_set(self) -> frozenset[int]:
        return frozenset(self.order)

    @property
    def size(self) -> int:
        return len(self.order)


def _check_plain(g: BipartiteGraph, y: Word) -> None:
    if g.d_left < 1:
        raise InvalidInput("graph has no edges")
    check_word(g, y)


def _at_least(g: BipartiteGraph, synd: int, cuts: Sequence[int]) -> list[int]:
    """Per integer cut t in ``cuts``, the mask of the left vertices with at
    least t checks set in ``synd``. Only the neighbors of those checks are
    counted; a cut t <= 0 selects all N vertices."""
    counts = Counter(chain.from_iterable(select(synd, g.right_adj)))
    return [
        indices_to_mask([i for i, k in counts.items() if k >= t], g.n_left)
        if t > 0
        else (1 << g.n_left) - 1
        for t in cuts
    ]


def _suspects(
    g: BipartiteGraph,
    s: int,
    h: int,
    *,
    limit: Optional[int] = None,
) -> Generator[list[int], int, None]:
    """The find loop in the syndrome domain: R starts at the checks set in
    ``s``, and a vertex joins L once at least ``h`` of its checks are in R.
    A generator: it yields L, in insertion order, at each closure.

    L and R are the closure, the same for any pick order: counts only grow,
    so a vertex once eligible stays eligible. The eligible vertices wait on
    a plain stack, and the last pushed joins first. R is a byte per check,
    and a joining vertex walks its D checks, so no M-bit mask is built per
    vertex. Counts start at zero and only checks entering R raise them, so
    past the count and check arrays the work follows |s| and Gamma(L), not N.

    A waiting vertex is already in the closure, so the walk ends once |L|
    plus the number waiting reaches limit + 1 or N. Past a ``limit`` it
    yields limit + 1 vertices of the closure and ends; an L of exactly
    ``limit`` is a closure like any other. At N, L is every vertex and no
    push is left: the waiting vertices join unwalked, in the order the loop
    would pop them, and every lower cut sent after that gets the same L.

    The guess runner sends it lower cuts: at a closure it may send a cut
    h' < h. At a closure of cut h > 0, L is every vertex with at least h
    checks in R, so the loop pushes the vertices whose count lies in
    [h', h) and resumes with the counts, R and L it has: the closure at h'
    is the one a fresh loop at h' reaches, and the work of every cut above
    it is reused. The yielded L is one list, grown in place, so the L of
    each closure is a prefix of every later one.
    """
    n = g.n_left
    adj, right_adj = g.adj, g.right_adj
    counts = [0] * n
    # counts only grow, so a vertex is pushed once: at the start if h = 0,
    # else when its count reaches the cut, or when a lower cut passes its count
    ready = list(range(n)) if h <= 0 else []
    push, pop = ready.append, ready.pop
    in_r = bytearray(g.m_right)  # R, one byte per check
    checks = mask_to_indices(s)  # ascending, as each adjacency row is
    added: list[int] = []
    stop = n if limit is None else min(limit + 1, n)
    while True:
        # each pass folds the newest checks into R, then adds one vertex
        for c in checks:
            if not in_r[c]:
                in_r[c] = 1
                for u in right_adj[c]:
                    k = counts[u] + 1
                    counts[u] = k
                    if k == h:
                        push(u)
        if len(added) + len(ready) >= stop:
            break
        if ready:
            i = pop()
            added.append(i)
            checks = adj[i]
            continue
        cut = yield added
        for t in range(max(cut, 0), min(h, g.d_left + 1)):  # a count is at most D
            u = -1
            for _ in range(counts.count(t)):
                u = counts.index(t, u + 1)
                push(u)
        h, checks = cut, ()
    # the waiting vertices in the order pop gives them; a slice of the stack
    # costs a runaway loop 3-5% less than popping each of them
    added += ready[::-1][:stop - len(added)]
    yield added
    while limit is None or len(added) <= limit:  # L is every vertex, at any lower cut
        yield added


def find_suspects(g: BipartiteGraph, y: Word, cfg: FindConfig) -> FindTrace:
    """Grow the suspect set L: start R at the unsatisfied checks, repeatedly
    add any vertex with at least (1-2*delta)*D neighbors in R, folding its
    neighborhood into R.

    This is the decoders' own find loop, ``_suspects``, run to its closure.
    L and R do not depend on the order in which vertices join; the trace's
    insertion order is the one that loop takes.
    """
    _check_plain(g, y)
    r = syndrome_bits(g, y.bits)
    order = next(_suspects(g, r, cfg.effective_threshold(g.d_left)))
    for i in order:  # R is s and the checks of L
        r |= g.left_masks[i]
    return FindTrace(tuple(order), indices_to_mask(order, g.n_left), r)


# -- outcomes ----------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionGuess:
    """The (size, collision-density) guess a guess-expansion branch used."""

    x: Optional[Fraction]
    gamma: Optional[Fraction]
    grid_value: Optional[Fraction]
    branch: str  # "sqrt" | "plain"
    delta_radicand: Fraction
    delta_affine: Fraction


@dataclass(frozen=True)
class DecodeOutcome:
    """Uniform decoder result.

    A success carries the recovered codeword (zero syndrome, re-validated)
    and its Hamming distance to the input is at most ``radius`` whenever the
    decoder declared one.
    """

    algorithm: str
    status: str  # "success" | "failure"
    reason: Optional[str] = None  # no-candidate | radius-exceeded | not-a-codeword | stalled
    word: Optional[Word] = None
    radius: Optional[Fraction] = None
    corrected: int = 0
    iterations: int = 0
    flips: int = 0
    enumeration_index: Optional[tuple] = None
    path: str = ""
    guess: Optional[ExpansionGuess] = None

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def __bool__(self) -> bool:
        return self.ok


# -- erasure decoding --------------------------------------------------------

_MARGIN = 1, 100  # the decoders' erasure margin xi = 1/100, as (numerator, denominator)


def _capacity(n: int, a: int, b: int, c: int, e: int, xi: tuple[int, int] = _MARGIN) -> int:
    """The erasure budget floor((1-xi)/(2 eps) * alpha * n) at eps = a/b,
    alpha = c/e and xi = xn/xd, as one integer floor division."""
    xn, xd = xi
    return (xd - xn) * b * c * n // (2 * xd * a * e)


@dataclass(frozen=True)
class ErasureConfig:
    """Erasure budget floor((1-xi)/(2 eps) * alpha * N) with margin xi."""

    xi: Fraction
    alpha: Fraction
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xi", as_fraction(self.xi))
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if not 0 < self.xi < 1 or self.alpha <= 0 or self.eps <= 0:
            raise InvalidParameters(f"need xi in (0, 1), alpha > 0 and eps > 0, got {self}")

    @classmethod
    def from_params(cls, params: ExpanderParams) -> "ErasureConfig":
        """The decoders' budget: ``params`` with the margin xi = 1/100."""
        return cls(Fraction(*_MARGIN), params.alpha, params.eps)

    def max_erasures(self, n: int) -> int:
        """floor((1-xi)/(2 eps) * alpha * n), through the decoders' ``_capacity``."""
        xi, alpha, eps = self.xi, self.alpha, self.eps
        return _capacity(n, eps.numerator, eps.denominator, alpha.numerator,
                         alpha.denominator, (xi.numerator, xi.denominator))


def _erase(g: BipartiteGraph, s: int, erased: int) -> tuple[Optional[int], str, str]:
    """The error pattern e inside the mask ``erased`` with H e = s, as
    (e, "ok", path), or (None, reason, path) when there is no such e
    (not-a-codeword) or more than one (stalled).

    Peeling with inactivation. Checks with one unknown neighbor are peeled.
    At a stall, one of the two unknowns of some check (else the lowest
    unknown) is inactivated: it becomes a symbol, a free GF(2) variable, and
    peeling goes on. A column peeled after that is a constant, folded into e
    at once, plus a sum of symbols, taken from its check's accumulator. Once
    no unknown is left, every check not used for peeling is one equation
    over the k symbols, its constant at bit 0 and symbol j at bit j + 1.
    Peeling is a triangular change of variables, so the symbol system is
    consistent, and of full rank, exactly when the system over all erased
    columns is.

    The elimination reduces the equations in check order by their highest
    bit (``_reduce``). A row that reduces to the constant alone is 0 = 1:
    not-a-codeword. Any other nonzero residue is a pivot, and reading stops
    at k pivots. They fix the one candidate, substituted back from the
    lowest pivot up; an equation left unread that it breaks shows in the
    final re-check, H e = s exactly, as not-a-codeword. With fewer than k
    pivots every equation was read, and the solve is stalled. The path is
    "peeling+gauss" when a symbol was made. On
    ``gen_left_regular(2000, 1500, 6)`` with 1000 erasures, peeling stalls
    with about 850 columns left and makes 22-40 symbols, settled by a few
    dozen of the ~500 nonzero equations: the solve takes 2.2-2.3 ms, where
    reading every equation took 3.0 and eliminating those columns 27-30
    (best of 15, CPython 3.11, 2 shared vCPUs).
    """
    adj, left_masks, right_masks = g.adj, g.left_masks, g.right_masks
    positions = mask_to_indices(erased)
    counts = [0] * g.m_right  # unknown neighbors per check
    for b in positions:
        for c in adj[b]:
            counts[c] += 1
    stack = [c for b in positions for c in adj[b] if counts[c] == 1]
    e, parity = 0, s
    # per check, made at the first stall: the symbols its resolved neighbors sum to
    acc: list[int] = []
    carried = []  # (column, its symbols) for each column that depends on one
    twos: list[int] = []  # checks that had two unknowns at a stall
    k = 0  # symbols made
    while True:
        if stack:  # peel
            c = stack.pop()
            if counts[c] != 1:
                continue
            b = (right_masks[c] & erased).bit_length() - 1
            if parity >> c & 1:
                e |= 1 << b
                parity ^= left_masks[b]
            sym = k and acc[c]  # acc exists once a symbol does
        elif erased:  # a stall: inactivate
            if not k:
                acc = [0] * g.m_right
            while twos and counts[twos[-1]] != 2:
                twos.pop()
            if not twos:
                twos = [c for c, n in enumerate(counts) if n == 2]
            if twos:
                b = (right_masks[twos.pop()] & erased).bit_length() - 1
            else:
                b = (erased & -erased).bit_length() - 1
            k += 1
            sym = 1 << k
        else:
            break
        erased ^= 1 << b
        for c2 in adj[b]:
            counts[c2] -= 1
            if counts[c2] == 1:
                stack.append(c2)
        if sym:
            carried.append((b, sym))
            for c2 in adj[b]:
                acc[c2] ^= sym

    path = "peeling"
    if k:
        path = "peeling+gauss"
        # a peeled check's row is zero, and an odd check next to no symbol
        # is the row of the constant alone, which leaves no solution
        for c in mask_to_indices(parity):
            acc[c] |= 1
        pivots: dict[int, int] = {}
        for row in acc:
            row = _reduce(pivots, row)
            if row == 1:
                return None, "not-a-codeword", path
            if row:
                pivots[row.bit_length()] = row
                if len(pivots) == k:
                    break
        else:
            return None, "stalled", path
        x = 1  # the constant, then each symbol from the lowest pivot up
        for key in sorted(pivots):
            x |= ((pivots[key] & x).bit_count() & 1) << (key - 1)
        for b, sym in carried:
            if (sym & x).bit_count() & 1:
                e ^= 1 << b
                parity ^= left_masks[b]

    if parity:  # s ^ H e, updated with every change to e
        return None, "not-a-codeword", path
    return e, "ok", path


def decode_erasures(
    g: BipartiteGraph, y: Word, cfg: Optional[ErasureConfig] = None
) -> DecodeOutcome:
    """Fill erasures by peeling checks with one erased neighbor. Where
    peeling stalls, an erased column is inactivated as a symbol and peeling
    goes on; one GF(2) solve over the symbols finishes (at N = 2000, M = 1500,
    D = 6 with 1000 erasures, 22-40 symbols where about 850 columns were left).

    Non-erased bits are trusted. Success requires a unique consistent
    completion: an inconsistent system fails as not-a-codeword, multiple
    completions fail as stalled. With a config, words beyond the erasure
    budget fail as radius-exceeded without an attempt.
    """
    if y.n != g.n_left:
        raise InvalidInput(f"word length {y.n} != N = {g.n_left}")
    algorithm = "erasure"
    n_erased = y.erasures.bit_count()
    cap = cfg.max_erasures(g.n_left) if cfg is not None else None
    if cap is not None and n_erased > cap:
        return DecodeOutcome(
            algorithm,
            "failure",
            reason="radius-exceeded",
            radius=Fraction(cap),
            corrected=0,
            path="capacity",
        )
    e, why, path = _erase(g, syndrome_bits(g, y.bits), y.erasures)
    if e is None:
        return DecodeOutcome(algorithm, "failure", reason=why, path=path)
    return DecodeOutcome(
        algorithm,
        "success",
        word=Word(g.n_left, y.bits | e),
        radius=Fraction(cap) if cap is not None else None,
        corrected=n_erased,
        iterations=n_erased,
        path=path,
    )


def _find_and_erase(
    g: BipartiteGraph, s: int, h: int, capacity: Optional[int], limit: Optional[int] = None
) -> tuple[Optional[int], str, list[int]]:
    """Find suspects at cut ``h`` from the word's syndrome ``s`` and return the
    error pattern e on them with H e = s, the reason and the suspects L; the
    candidate is the word XOR e. ``limit`` goes to the find loop, so with
    limit = capacity an L over capacity holds capacity + 1 vertices."""
    suspects = next(_suspects(g, s, h, limit=limit))
    if capacity is not None and len(suspects) > capacity:
        return None, "list-exceeds-capacity", suspects
    e, why, _ = _erase(g, s, indices_to_mask(suspects, g.n_left))
    return e, why, suspects


def _find_erase_decode(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
    algorithm: str,
    radius: Optional[Fraction],
) -> DecodeOutcome:
    """Find suspects at delta = eps, erase them, decode from erasures; then,
    unless ``radius`` is None, check the candidate's distance against it.
    The capacity and the cut are set up on integers, eps = a/b and alpha = c/e."""
    a, b = params.eps.numerator, params.eps.denominator
    capacity = _capacity(g.n_left, a, b, params.alpha.numerator, params.alpha.denominator)
    e, why, suspects = _find_and_erase(
        g, syndrome_bits(g, y.bits), _delta_cut(g.d_left, a, b), capacity
    )
    if e is None:
        return DecodeOutcome(
            algorithm, "failure", reason="no-candidate",
            radius=radius, iterations=len(suspects), path=why,
        )
    dist = e.bit_count()
    if radius is not None and dist * radius.denominator > radius.numerator:
        return DecodeOutcome(
            algorithm, "failure", reason="radius-exceeded",
            radius=radius, iterations=len(suspects), path="find+erase",
        )
    return DecodeOutcome(
        algorithm,
        "success",
        word=Word(g.n_left, y.bits ^ e),
        radius=radius,
        corrected=dist,
        iterations=len(suspects),
        path="find+erase",
    )


def fixed_find_and_decode(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
) -> DecodeOutcome:
    """Find suspects at delta = eps, erase them, decode from erasures.

    The erasure budget is floor((1-xi)/(2 eps) * alpha * N) with the margin
    xi = 1/100 (``ErasureConfig.from_params``); a larger suspect
    set fails as no-candidate rather than being truncated. No distance
    validation beyond the candidate being a codeword.
    """
    _check_plain(g, y)
    return _find_erase_decode(g, y, params, "find-erase", None)


# -- flipping ----------------------------------------------------------------


def flip_decode_ss(
    g: BipartiteGraph,
    y: Word,
    threshold_fraction=None,
    max_rounds: int = 100,
    eps=None,
) -> DecodeOutcome:
    """Parallel bit flipping: each round flips every bit whose unsatisfied
    check count is at least threshold_fraction * D (default 1 - 2*eps).

    Stops at a codeword, or as stalled when the number of unsatisfied checks
    fails to strictly decrease (or after max_rounds).
    """
    _check_plain(g, y)
    if threshold_fraction is None:
        if eps is None:
            raise InvalidParameters("need threshold_fraction or eps")
        eps = as_fraction(eps)
        p, q = eps.denominator - 2 * eps.numerator, eps.denominator  # tf = 1 - 2 eps
    else:
        tf = as_fraction(threshold_fraction)
        p, q = tf.numerator, tf.denominator
    if not q < 2 * p <= 2 * q:
        raise InvalidParameters(f"threshold_fraction must be in (1/2, 1], got {Fraction(p, q)}")
    n = g.n_left
    t = _delta_cut(g.d_left, q - p, 2 * q)  # delta = (1 - tf)/2
    z = y.bits
    synd = syndrome_bits(g, z)
    unsat = synd.bit_count()
    rounds = 0
    flips = 0
    while True:
        if synd == 0:
            return DecodeOutcome(
                "ss-flip",
                "success",
                word=Word(n, z),
                corrected=(y.bits ^ z).bit_count(),
                iterations=rounds,
                flips=flips,
            )
        if rounds >= max_rounds:
            return DecodeOutcome(
                "ss-flip", "failure", reason="stalled",
                iterations=rounds, flips=flips, path="max-rounds",
            )
        l0 = _at_least(g, synd, [t])[0]
        if l0 == 0:
            return DecodeOutcome(
                "ss-flip", "failure", reason="stalled",
                iterations=rounds, flips=flips, path="no-flippable-bit",
            )
        z ^= l0
        synd ^= syndrome_bits(g, l0)
        flips += l0.bit_count()
        rounds += 1
        new_unsat = synd.bit_count()
        if synd != 0 and new_unsat >= unsat:
            return DecodeOutcome(
                "ss-flip", "failure", reason="stalled",
                iterations=rounds, flips=flips, path="unsat-not-decreasing",
            )
        unsat = new_unsat


@dataclass(frozen=True)
class FlipRoundReport:
    flipped: tuple[int, ...]
    threshold: Fraction  # (1 - 3*gamma) * D


def flip_round(g: BipartiteGraph, y: Word, gamma) -> tuple[Word, FlipRoundReport]:
    """Flip every bit with at least (1 - 3*gamma)*D unsatisfied checks."""
    _check_plain(g, y)
    gamma = as_fraction(gamma)
    p, q = gamma.numerator, gamma.denominator
    if not 0 <= p <= q:
        raise InvalidParameters(f"gamma must be in [0, 1], got {gamma}")
    d = g.d_left
    l0 = _at_least(g, syndrome_bits(g, y.bits), [_delta_cut(d, 3 * p, 2 * q)])[0]
    return Word(y.n, y.bits ^ l0), FlipRoundReport(
        mask_to_indices(l0), Fraction((q - 3 * p) * d, q)
    )


# -- Viderman-style find-and-erase decoding ----------------------------------


def _baseline(n: int, a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """The baseline radius (1 - 3 eps)/(1 - 2 eps) * floor(alpha*N) at
    eps = a/b < 1/3 and alpha = c/e, as (numerator, denominator)."""
    return (b - 3 * a) * (c * n // e), b - 2 * a


def viderman_decode(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
    radius=None,
) -> DecodeOutcome:
    """Find suspects at delta = eps, erase, decode, then validate the result
    against the decoding radius.

    The default radius is the baseline (1-3 eps)/(1-2 eps) * floor(alpha*N),
    which needs eps < 1/3; pass a nonnegative ``radius`` to override.
    """
    _check_plain(g, y)
    a, b = params.eps.numerator, params.eps.denominator
    if radius is None:
        if 3 * a >= b:
            raise InvalidParameters("baseline radius needs eps < 1/3; pass radius=")
        radius = Fraction(*_baseline(g.n_left, a, b, params.alpha.numerator,
                                     params.alpha.denominator))
    else:
        radius = as_fraction(radius)
        if radius.numerator < 0:
            raise InvalidParameters(f"radius must be nonnegative, got {radius}")
    return _find_erase_decode(g, y, params, "viderman", radius)


# -- guess-and-flip (enumerated collision densities) --------------------------


def _schedule(p: int, q: int) -> tuple[int, int, int]:
    """Guess-flip's schedule at beta = p/q, for integers p and q > 0: the
    depth ell, enough rounds for a per-round error reduction of beta to
    shrink any starting error set to a third, and the grid step
    eta = beta/100, as (ell, eta numerator, eta denominator). Refuses a beta
    outside (0, 1/4), or one that rounds 1 - beta to 1 in floats."""
    if not 0 < 4 * p < q:
        raise InvalidParameters(f"beta must be in (0, 1/4), got {Fraction(p, q)}")
    shrink = math.log(1 - p / q)  # p / q is float(beta), correctly rounded
    if shrink == 0:
        raise InvalidParameters(f"beta = {Fraction(p, q)} rounds 1 - beta to 1 in floats")
    return math.ceil(math.log(1 / 3) / shrink), p, 100 * q


@dataclass(frozen=True)
class GuessSchedule:
    """Enumerated per-iteration collision-density guesses.

    Each guess comes from the grid {eta, 2 eta, ..., ceil(1/eta) eta} with
    eta = beta/100, which ``_flip_cuts`` lists by its distinct integer cuts
    and never builds; a run makes ``ell`` guesses, enough rounds for a
    per-round error reduction of beta to shrink any starting error set to a
    third. ``for_beta`` reads both from ``_schedule``, as the decoder does.
    """

    beta: Fraction
    eta: Fraction
    ell: int

    @classmethod
    def for_beta(cls, beta) -> "GuessSchedule":
        beta = as_fraction(beta)
        ell, p, q = _schedule(beta.numerator, beta.denominator)
        return cls(beta, Fraction(p, q), ell)


def _cut_steps(cut, lo: int, hi: int):
    """Yield (first index, value) for each value the nonincreasing integer
    function ``cut`` takes on range(lo, hi), stopping after a value of 0. Each
    change is found by bisection: O(log(hi - lo)) probes per distinct value.
    The bounds may exceed the machine word, so the bisection is on Python ints."""
    k = lo
    while k < hi:
        t = cut(k)
        yield k, t
        if t == 0:
            return
        a, b = k + 1, hi  # the first k' in [a, b) with cut(k') < t, else hi
        while a < b:
            mid = (a + b) // 2
            if cut(mid) < t:
                b = mid
            else:
                a = mid + 1
        k = a


def _flip_cuts(d: int, p: int, q: int, a: int, b: int) -> tuple[list[int], bool]:
    """The distinct cuts max(0, ceil((1 - 3 i eta) D)) of the guesses i eta
    below the cutoff 2 eps/3 + eta, descending, and whether a guess reaches
    the cutoff, at eta = p/q > 0 and eps = a/b >= 0. A cut is
    D - floor(3 i p D / q), so a probe is one integer floor division; the
    last guess is i = ceil(1/eta), and the first at the cutoff is
    i = ceil(2 a q / (3 b p)) + 1."""
    last = -(-q // p)
    below = min(last + 1, -(-2 * a * q // (3 * b * p)) + 1)
    step = 3 * p * d
    steps = _cut_steps(lambda i: max(0, d - i * step // q), 1, below)
    return [t for _, t in steps], 3 * b * p * (last - 1) >= 2 * a * q


class _FlipSetup(NamedTuple):
    """Guess-flip's set-up at eps = a/b, alpha = c/e and beta = p/q, on
    integers. Integer weights w satisfy w <= r exactly when w <= floor(r),
    so the search compares integers."""

    ell: int
    radius: tuple[int, int]  # (1 - eps) * alpha * N as (numerator, denominator)
    max_dist: int  # its floor
    max_fix: int  # the floor of the baseline radius
    capacity: int
    find_h: int
    flip_thresholds: list[int]
    has_find: bool


def _flip_setup(n: int, d: int, a: int, b: int, c: int, e: int, p: int, q: int) -> _FlipSetup:
    """Guess-flip's set-up on a graph with N = n and D = d; ``_guess_flip``
    reads it by field."""
    ell, ep, eq = _schedule(p, q)
    num, den = (b - a) * c * n, b * e
    fix_num, fix_den = _baseline(n, a, b, c, e)
    flip_thresholds, has_find = _flip_cuts(d, ep, eq, a, b)
    return _FlipSetup(
        ell=ell, radius=(num, den), max_dist=num // den, max_fix=fix_num // fix_den,
        capacity=_capacity(n, a, b, c, e), find_h=_delta_cut(d, a, b),
        flip_thresholds=flip_thresholds, has_find=has_find,
    )


def guess_flip_decode(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
    beta,
) -> DecodeOutcome:
    """Enumerate guess sequences; per guess either flip the heavy-unsatisfied
    bits (small guess) or find-and-erase (large guess), finishing each
    sequence with the baseline find-and-erase decoder; accept the first
    candidate codeword within (1 - eps) * alpha * N of the input.

    Two guess sequences that induce the same integer flip thresholds and
    branch choices run identically, so the enumeration walks behavior
    classes depth-first (ascending grid order, find branch last) with
    memoization instead of materializing every sequence; the accepted
    candidate is the first in that deterministic order. The search recurses
    one frame per level, ``ell`` deep; each frame returns its first hit, and
    the enumeration path is built once, as that hit unwinds. A node that
    failed is kept in a memo, by word and depth, and a parent tests a
    child's (word, depth) against it before the call, so a known failure
    costs one set lookup and no call. On ``gen_left_regular(200, 150, 6, 1)``
    with eps = 1/6, the scaled entry at eta = 1/100 on one word with 2
    errors and one with 6 expands 769 nodes; testing the memo inside the
    call took 2068 calls for them, 63% of them returning at once.

    A node's children depend on its syndrome alone: per flip cut t, the
    mask l0 of the bits with at least t unsatisfied checks, and the
    syndrome after flipping them. So each distinct syndrome is expanded
    once per call, into a list of (t, l0, next syndrome) that every node
    with that syndrome walks. Where the top cut flips nothing, the search
    walks one word down level by level, and every level reuses the one
    expansion. On ``gen_left_regular(N, 3N/4, 6)`` with eps = 1/6, the
    scaled entry at eta = 1/100 (N = 200, 6 errors) expands 658 nodes and
    meets 7 distinct syndromes, and beta = 1/1000 (N = 60, 3 errors) meets
    2 in the nearly 1000 nodes it expands before the recursion limit. A leaf
    or find step reads only the candidate, and an L over the erasure
    capacity gives none, so its find loop runs with limit capacity: it stops
    once L and the vertices waiting to join it exceed the capacity, rather
    than run away to N.

    The set-up (``_flip_setup``) runs on integers: the radii are floored
    once, so a leaf compares integer weights, and the one ``Fraction`` built
    is the radius the outcome carries. The search runs in ``_guess_flip``,
    the core both entries share, one frame below this one. A search deeper
    than the interpreter's recursion limit (beta below about 1/900) raises
    a short ``RecursionError`` naming ``ell``.
    """
    _check_plain(g, y)
    beta = as_fraction(beta)
    eps, alpha = params.eps, params.alpha
    a, b, p, q = eps.numerator, eps.denominator, beta.numerator, beta.denominator
    if 4 * (a * q + p * b) > b * q:  # eps > 1/4 - beta
        raise InvalidParameters(f"need eps <= 1/4 - beta, got eps={eps}, beta={beta}")
    return _guess_flip(g, y, a, b, alpha.numerator, alpha.denominator, p, q, "guess-flip", "")


def _guess_flip(
    g: BipartiteGraph, y: Word, a: int, b: int, c: int, e: int, p: int, q: int,
    algorithm: str, path: str,
) -> DecodeOutcome:
    """The guess-flip search of both entries at eps = a/b, alpha = c/e and
    beta = p/q, with eps <= 1/4 - beta; the outcome carries ``algorithm``
    and ``path``."""
    n = g.n_left
    setup = _flip_setup(n, g.d_left, a, b, c, e, p, q)
    ell, max_dist, max_fix = setup.ell, setup.max_dist, setup.max_fix
    capacity, find_h = setup.capacity, setup.find_h
    flip_thresholds, has_find = setup.flip_thresholds, setup.has_find
    fixed_cache: dict[int, Optional[int]] = {}

    def fixed(z: int, s: int) -> Optional[int]:  # s is the syndrome of z
        if z not in fixed_cache:
            err = _find_and_erase(g, s, find_h, capacity, limit=capacity)[0]
            fixed_cache[z] = None if err is None else z ^ err
        return fixed_cache[z]

    # per syndrome, per flip cut t: (t, the bits l0 it flips, the syndrome after)
    children: dict[int, list[tuple[int, int, int]]] = {}
    y_bits = y.bits
    nodes = 0
    memo_fail: set[tuple[int, int]] = set()

    def dfs(z: int, s: int, depth: int) -> Optional[tuple[int, list, int]]:
        """The first hit under word z at ``depth``, which is not in
        ``memo_fail``: (candidate, the path steps from here in reverse, bits
        flipped from here), or None."""
        nonlocal nodes
        nodes += 1
        if depth == ell:
            cand = fixed(z, s)
            if (
                cand is not None
                and (z ^ cand).bit_count() <= max_fix
                and (y_bits ^ cand).bit_count() <= max_dist
            ):
                return cand, ["baseline"], 0
        else:
            kids = children.get(s)
            if kids is None:
                kids = children[s] = [
                    (t, l0, s ^ syndrome_bits(g, l0))
                    for t, l0 in zip(flip_thresholds, _at_least(g, s, flip_thresholds))
                ]
            below = depth + 1
            for t, l0, s1 in kids:
                z1 = z ^ l0
                if (z1, below) in memo_fail:
                    continue
                hit = dfs(z1, s1, below)
                if hit is not None:
                    cand, steps, flips = hit
                    steps.append(("flip", t))
                    return cand, steps, flips + l0.bit_count()
            if has_find:
                cand = fixed(z, s)
                if cand is not None and (y_bits ^ cand).bit_count() <= max_dist:
                    return cand, ["find"], 0
        memo_fail.add((z, depth))
        return None

    overrun = False
    try:
        hit = dfs(y_bits, syndrome_bits(g, y_bits), 0)
    except RecursionError:
        overrun = True
    finally:
        # dfs refers to itself through its closure; breaking that cycle frees
        # the memo and the caches by refcount, without waiting for the cyclic GC
        dfs = None
    if overrun:
        # raised here, not in the handler, so it carries no ell-frame traceback
        raise RecursionError(
            f"guess-flip search of depth ell = {ell} exceeds the recursion limit"
        )
    radius = Fraction(*setup.radius)
    if hit is not None:
        cand, steps, flips = hit
        return DecodeOutcome(
            algorithm,
            "success",
            word=Word(n, cand),
            radius=radius,
            corrected=(y_bits ^ cand).bit_count(),
            iterations=nodes,
            flips=flips,
            enumeration_index=tuple(reversed(steps)),
            path=path,
        )
    return DecodeOutcome(
        algorithm, "failure", reason="no-candidate", radius=radius, iterations=nodes, path=path,
    )


def scaled_guess_flip_decode(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
    eta,
) -> DecodeOutcome:
    """Run the guess-and-flip decoder at the traded-up parameters
    (k*alpha, k*eps) with k = (1/4 - beta)/eps, beta = eta.

    The validated radius becomes (1 - k*eps) * k*alpha * N. k is capped at
    1/alpha so the scaled set-size fraction stays at most 1; 0 <= k <= 1
    falls back to the unscaled decoder, and eta > 1/4 (k < 0) is refused.
    Either way the search runs at beta = 1/4 - eps for the eps it uses, and
    k, the scaled pair and that beta are worked out on integers, with no
    ``ExpanderParams`` built: the scaled pair needs no check, since
    0 < k*alpha <= 1 and 0 < k*eps <= 1/4 - beta.
    """
    _check_plain(g, y)
    eta = as_fraction(eta)
    p, q = eta.numerator, eta.denominator
    if not 0 < 4 * p <= q:
        raise InvalidParameters(f"eta must be in (0, 1/4], got {eta}")
    eps, alpha = params.eps, params.alpha
    a, b, c, e = eps.numerator, eps.denominator, alpha.numerator, alpha.denominator
    if 4 * a >= b:
        raise InvalidParameters(f"need eps < 1/4, got {eps}")
    kn, kd = (q - 4 * p) * b, 4 * q * a  # k = (1/4 - eta)/eps
    if kn * c > kd * e:  # k > 1/alpha
        kn, kd = e, c
    path = "unscaled-fallback"
    if kn > kd:
        path = f"k={Fraction(kn, kd)}"
        a, b, c, e = kn * a, kd * b, kn * c, kd * e
    return _guess_flip(g, y, a, b, c, e, b - 4 * a, 4 * b, "guess-flip-scaled", path)


# -- guess-expansion decoding (eps <= 1/8) ------------------------------------


def _run_expansion_branches(
    g: BipartiteGraph,
    y: Word,
    params: ExpanderParams,
    algorithm: str,
    plain: int,
    cut: Callable[[int], int],
    lo: int,
    hi: int,
    name: Callable[[Optional[int]], tuple[tuple, ExpansionGuess]],
) -> DecodeOutcome:
    """The guess walk of both guess-expansion listers: find-and-erase once per
    guess, in order; accept the first candidate within (1-2 eps)/(4 eps) *
    alpha * N.

    The plain guess, at cut ``plain``, comes first. Then ``_cut_steps(cut,
    lo, hi)`` lists each distinct cut of the nonincreasing ``cut`` up to the
    first 0, at its first index k, and each one other than ``plain`` is a
    guess. The guesses are listed lazily, so a first-guess success probes
    nothing more. ``name(k)``, with k None for the plain guess, gives the
    accepted guess's (enumeration index, ExpansionGuess), so a lister builds
    one ExpansionGuess, not one per guess.

    The syndrome is computed once, and so is the find loop: L only grows as
    the cut drops, so one ``_suspects`` starts at the highest cut a guess
    asks for, the larger of ``plain`` and ``cut(lo)``, and before each guess
    the runner sends it the cuts one level at a time, only down to the
    guess's cut. |L| at every level it settles is kept, since L there is a
    prefix of the loop's list, and a guess reads the L of its cut, whether
    that cut lies below the ones before or above. The candidate depends only
    on the word and L, so a guess whose L was already erased (one of the
    same size) is not erased again; it still counts as an attempt. Nor is an
    L larger than M erased (pigeonhole): H restricted to L then has more
    columns than rows, so a nonzero kernel, and no e on L with H e = s is
    unique. The find loop therefore runs with limit M: once L and the
    vertices waiting to join it exceed M it stops, and that cut and every
    cut below it never settle, so their guesses run no solve; they still
    count as attempts. On ``gen_left_regular(N, 3N/4, 6)`` every grid
    failure at N = 200 and every poly failure at N = 60 finds |L| > M at
    its top cut, so each runs one find loop and no solve; at N = 200 that
    loop adds 19 to 39 of the M + 1 = 151 vertices it yields. The accept
    radius is floored once, so each candidate compares an integer weight."""
    n, m = g.n_left, g.m_right
    eps, alpha = params.eps, params.alpha
    # (1 - 2 eps)/(4 eps) * alpha * N as one fraction num/den, and its floor
    num = (eps.denominator - 2 * eps.numerator) * alpha.numerator * n
    den = 4 * eps.numerator * alpha.denominator
    accept = Fraction(num, den)
    max_dist = num // den
    s = syndrome_bits(g, y.bits)
    level = max(plain, cut(lo)) if lo < hi else plain
    loop = _suspects(g, s, level, limit=m)
    suspects = next(loop)
    # L at a settled level is a prefix of the loop's list, so two levels have
    # the same L exactly when they have the same |L|; no level where |L| > M
    # settles
    sizes: dict[int, int] = {}
    tried: set[int] = set()  # the sizes of the L already erased
    guesses = chain([(None, plain)], ((k, t) for k, t in _cut_steps(cut, lo, hi) if t != plain))
    for attempts, (k, h) in enumerate(guesses, 1):
        while len(suspects) <= m:
            sizes[level] = len(suspects)
            if level <= h:
                break
            level -= 1
            suspects = loop.send(level)
        size = sizes.get(h)
        if size is None or size in tried:
            continue
        tried.add(size)
        e = _erase(g, s, indices_to_mask(suspects[:size], n))[0]
        if e is not None and e.bit_count() <= max_dist:
            enum_index, guess = name(k)
            return DecodeOutcome(
                algorithm, "success", word=Word(n, y.bits ^ e), radius=accept,
                corrected=e.bit_count(), iterations=attempts, enumeration_index=enum_index,
                guess=guess,
            )
    return DecodeOutcome(
        algorithm, "failure", reason="no-candidate", radius=accept, iterations=attempts
    )


def guess_expansion_decode_poly(
    g: BipartiteGraph, y: Word, params: ExpanderParams, slack=Fraction(0)
) -> DecodeOutcome:
    """Guess (|F|, |Gamma(F)|) = (i, j); per guess set the find threshold from
    delta = sqrt(gamma*x*eps) + slack when gamma*x >= eps and x >= 1, else
    delta = eps + slack, then find-and-erase; accept a candidate within
    (1-2 eps)/(4 eps) * alpha * N of the input.

    Only k = D*i - j enters the threshold (gamma*x = k/(D*alpha*N)), and the
    cut never increases with k. So after the plain guess (1, D) the decoder
    lists each other distinct sqrt-branch cut up to the first 0, at its first
    k, named by its first (i, j) in the order i ascending, j descending. The
    cuts are probed on integers (``_cuts_along``), and the ExpansionGuess is
    built for the accepted guess alone.
    """
    _check_plain(g, y)
    eps = params.eps
    a, b, c, e = eps.numerator, eps.denominator, params.alpha.numerator, params.alpha.denominator
    if 8 * a > b:
        raise InvalidParameters(f"need eps <= 1/8, got {eps}")
    slack = as_fraction(slack)
    sn, sd = slack.numerator, slack.denominator
    if sn < 0:
        raise InvalidParameters("slack must be nonnegative")
    n, m, d = g.n_left, g.m_right, g.d_left
    if not n:  # no guess (i, j) to make, and an accept radius of 0
        return DecodeOutcome(
            "guess-expansion", "failure", reason="no-candidate", radius=Fraction(0)
        )
    # gamma = 0 at (1, D), which puts it on the plain branch (D <= M), at
    # delta = eps + slack = an/ad
    an, ad = a * sd + sn * b, b * sd
    plain = _delta_cut(d, an, ad)
    # with eps = a/b and alpha = c/e: gamma*x*eps = k*step, step = a*e/(b*D*c*N)
    i0 = max(1, -(-c * n // e))  # ceil(alpha*N)
    # the sqrt branch needs gamma*x >= eps, that is k >= eps*D*alpha*N, and j <= M
    lo, hi = max(d * i0 - m, -(-a * d * c * n // (b * e))), d * n
    cut = _cuts_along(d, a * e, b * d * c * n, sn, sd)

    def name(k: Optional[int]) -> tuple[tuple, ExpansionGuess]:
        # x = i/(alpha*N) = i*e/(c*N)
        if k is None:
            return (1, d), ExpansionGuess(
                Fraction(e, c * n), Fraction(0), None, "plain", Fraction(0), Fraction(an, ad)
            )
        i = max(i0, k // d + 1)  # k's first guess (i, j)
        return (i, d * i - k), ExpansionGuess(
            Fraction(i * e, c * n), Fraction(k, d * i), None, "sqrt",
            Fraction(k * a * e, b * d * c * n), slack,
        )

    return _run_expansion_branches(g, y, params, "guess-expansion", plain, cut, lo, hi, name)


def guess_expansion_decode_grid(
    g: BipartiteGraph, y: Word, params: ExpanderParams, eta_prime
) -> DecodeOutcome:
    """Grid variant: only the product gamma*x is guessed, from the grid
    {0, eta, ..., ceil(1/eta) eta} with step eta = eps * eta_prime > 0, so the
    number of branches is independent of the graph size. delta =
    sqrt(value*eps) + eta on the large branch (value >= eps), eps + 2*eta on
    the small branch, whose one cut is tried at value 0; then ``_cut_steps``
    lists, without building the grid, each other distinct large-branch cut up
    to the first 0, at its first value. The cuts are probed on integers
    (``_cuts_along``), and the ExpansionGuess is built for the accepted guess
    alone.
    """
    _check_plain(g, y)
    eps = params.eps
    a, b = eps.numerator, eps.denominator
    if 8 * a > b:
        raise InvalidParameters(f"need eps <= 1/8, got {eps}")
    eta_prime = as_fraction(eta_prime)
    if eta_prime.numerator <= 0:
        raise InvalidParameters("eta_prime must be positive")
    d = g.d_left
    # eta = eps * eta_prime = p/q, and the plain delta eps + 2*eta = an/ad
    p, q = a * eta_prime.numerator, b * eta_prime.denominator
    an, ad = a * (eta_prime.denominator + 2 * eta_prime.numerator), q
    plain = _delta_cut(d, an, ad)
    # value*eps = idx*step with step = p*a/(q*b)
    cut = _cuts_along(d, p * a, q * b, p, q)
    lo, hi = -(-a * q // (b * p)), -(-q // p) + 1  # ceil(eps/eta), ceil(1/eta) + 1

    def name(idx: Optional[int]) -> tuple[tuple, ExpansionGuess]:
        if idx is None:  # the plain cut, tried at value 0
            return (0,), ExpansionGuess(
                None, None, Fraction(0), "plain", Fraction(0), Fraction(an, ad)
            )
        return (idx,), ExpansionGuess(
            None, None, Fraction(idx * p, q), "sqrt", Fraction(idx * p * a, q * b),
            Fraction(p, q),
        )

    return _run_expansion_branches(g, y, params, "guess-expansion-grid", plain, cut, lo, hi, name)
