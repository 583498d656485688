"""Decoding procedures: suspect finding, erasure peeling, bit flipping, and
the guess-driven decoders built on top of them.

Every decoder is a pure function of (graph, word, configuration) and returns
a DecodeOutcome. A success always carries a zero-syndrome codeword whose
distance to the input respects the decoder's validation radius; candidates
are re-checked even where theory would guarantee it. Threshold comparisons
are exact: every threshold is (1 - 2*delta)*D with delta = sqrt(q) + s for
rationals q, s >= 0, and one integer closed form (``_cuts_along``, built on
``math.isqrt``) turns it into the least integer count it admits: once per call
(``_cut``), or once per probe of a guess listing, with no Fraction. The
guess-flip cuts max(0, ceil((1 - 3 i eta) D)) are listed on integers too, one
floor division per probe (``_flip_cuts``). The per-vertex loops compare
integer counts against that integer cut.

Find-and-erase works in the syndrome domain. A decode computes s = H*y once;
suspect counts start at the neighbors of the unsatisfied checks, peeling
touches only the checks next to the suspect set L, and the result is an
error pattern e on L with H*e = s, re-checked in O(|e|). Past that one
syndrome the cost follows |s| and |L|, not N.

Decoding from erasures peels with inactivation: where peeling stalls, one
erased column becomes a symbol and peeling goes on, so the one GF(2)
elimination runs over the symbols, not over every column left, and stops
at full rank. At N = 2000, M = 1500, D = 6 with 1000 erasures that is 22-40
symbols in place of about 850 columns, and the solve takes 2-3 ms instead
of 27-30 (CPython 3.11, 2 shared vCPUs).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Callable, Generator, Optional, Sequence

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


def _cuts_along(d: int, num: int, den: int, s):
    """The cut of delta = sqrt(k*num/den) + s as an integer function of
    k >= 0, for integers num >= 0, den > 0 and a rational (or int) s >= 0:
    the least integer c >= 0 with c >= (1 - 2*delta)*D.

    With s = a/b, A = D*(b - 2a) and X = 4*D^2*b^2*k*num/den, the condition
    is the integer inequality A - c*b <= sqrt(X). An integer is at most
    sqrt(X) iff it is at most isqrt(floor(X)), so the cut is
    ceil((A - isqrt(floor(X)))/b), clipped at 0: exact, on integers, with no
    loop. The constants are worked out once, so a probe at k is one integer
    floor division and one ``math.isqrt``, with no Fraction.
    """
    b = s.denominator
    x = 4 * d * d * b * b * num
    a = d * (b - 2 * s.numerator)
    return lambda k: max(0, -((math.isqrt(x * k // den) - a) // b))


def _cut(d: int, q, s) -> int:
    """The least integer c >= 0 with c >= (1 - 2*(sqrt(q) + s))*D, for
    rationals (or ints) q, s >= 0: ``_cuts_along`` at k = 1."""
    return _cuts_along(d, q.numerator, q.denominator, s)(1)


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
    """Result of the suspect-finding loop: L in insertion order plus R."""

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
    key: Optional[Sequence[int]] = None,
    *,
    limit: Optional[int] = None,
) -> Generator[list[int], int, None]:
    """The find loop in the syndrome domain: R starts at the checks set in
    ``s``, and a vertex joins L once at least ``h`` of its checks are in R.
    A generator: it yields L, in insertion order, at each closure.

    L and R are the closure, the same for any pick order: counts only grow,
    so a vertex once eligible stays eligible. With no ``key`` the eligible
    vertices wait on a plain stack; with one, the eligible vertex of smallest
    ``key`` joins first, through a heap. R is a byte per check, and a joining
    vertex walks its D checks, so no M-bit mask is built per vertex. Counts
    start at zero and only checks entering R raise them, so past the count
    and check arrays the work follows |s| and Gamma(L), not N.

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
    if key is None:
        ready = list(range(n)) if h <= 0 else []
        push, pop = ready.append, ready.pop
    else:
        ready = [key[i] * n + i for i in range(n)] if h <= 0 else []  # key * N + vertex
        heapq.heapify(ready)

        def push(u: int) -> None:
            heapq.heappush(ready, key[u] * n + u)

        def pop() -> int:
            return heapq.heappop(ready) % n

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
    # the waiting vertices in the order pop gives them; a slice of the stack or
    # the sorted heap costs a runaway loop 3-5% less than popping each of them
    added += (ready[::-1] if key is None else [v % n for v in sorted(ready)])[:stop - len(added)]
    yield added
    while limit is None or len(added) <= limit:  # L is every vertex, at any lower cut
        yield added


def find_suspects(
    g: BipartiteGraph,
    y: Word,
    cfg: FindConfig,
    *,
    order: str = "ascending",
    seed: Optional[int] = None,
    prefer: Optional[Sequence[int]] = None,
) -> FindTrace:
    """Grow the suspect set L: start R at the unsatisfied checks, repeatedly
    add any vertex with at least (1-2*delta)*D neighbors in R, folding its
    neighborhood into R.

    One pick rule: among the eligible vertices, those in ``prefer`` come
    first, then ``order`` decides: ascending index (the default), descending
    index, or a permutation of the indices seeded by ``seed`` ("random",
    which needs a seed). Preferring the error positions realizes the
    errors-first insertion order. Only L and R are independent of the pick
    rule; the trace's insertion order follows it. Every position in
    ``prefer`` must lie in [0, N).
    """
    _check_plain(g, y)
    n = g.n_left
    if order == "ascending":
        rank = range(n)
    elif order == "descending":
        rank = range(n - 1, -1, -1)
    elif order == "random":
        if seed is None:
            raise InvalidParameters('order "random" needs a seed')
        rank = list(range(n))
        random.Random(seed).shuffle(rank)
    else:
        raise InvalidParameters(f"unknown order {order!r}")
    pref = indices_to_mask(prefer, n) if prefer is not None else 0
    key = [rank[i] - n if pref >> i & 1 else rank[i] for i in range(n)] if pref else rank
    r = syndrome_bits(g, y.bits)
    order = next(_suspects(g, r, cfg.effective_threshold(g.d_left), key))
    for i in order:  # R is s and the checks of L
        r |= g.left_masks[i]
    return FindTrace(tuple(order), indices_to_mask(order, n), r)


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
        return cls(Fraction(1, 100), params.alpha, params.eps)

    def max_erasures(self, n: int) -> int:
        """floor((1-xi)/(2 eps) * alpha * n), as one integer floor division."""
        xi, alpha, eps = self.xi, self.alpha, self.eps
        return (xi.denominator - xi.numerator) * eps.denominator * alpha.numerator * n // (
            2 * xi.denominator * eps.numerator * alpha.denominator
        )


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
    unless ``radius`` is None, check the candidate's distance against it."""
    capacity = ErasureConfig.from_params(params).max_erasures(g.n_left)
    h = _cut(g.d_left, 0, params.eps)
    e, why, suspects = _find_and_erase(g, syndrome_bits(g, y.bits), h, capacity)
    if e is None:
        return DecodeOutcome(
            algorithm, "failure", reason="no-candidate",
            radius=radius, iterations=len(suspects), path=why,
        )
    dist = e.bit_count()
    if radius is not None and dist > radius:
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
        threshold_fraction = 1 - 2 * as_fraction(eps)
    tf = as_fraction(threshold_fraction)
    if not Fraction(1, 2) < tf <= 1:
        raise InvalidParameters(f"threshold_fraction must be in (1/2, 1], got {tf}")
    n = g.n_left
    t = _cut(g.d_left, 0, (1 - tf) / 2)
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
    if not 0 <= gamma <= 1:
        raise InvalidParameters(f"gamma must be in [0, 1], got {gamma}")
    need = (1 - 3 * gamma) * g.d_left
    l0 = _at_least(g, syndrome_bits(g, y.bits), [_cut(g.d_left, 0, 3 * gamma / 2)])[0]
    return Word(y.n, y.bits ^ l0), FlipRoundReport(mask_to_indices(l0), need)


# -- Viderman-style find-and-erase decoding ----------------------------------


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
    eps = params.eps
    if radius is None:
        if eps >= Fraction(1, 3):
            raise InvalidParameters("baseline radius needs eps < 1/3; pass radius=")
        radius = (1 - 3 * eps) / (1 - 2 * eps) * math.floor(params.alpha * g.n_left)
    else:
        radius = as_fraction(radius)
        if radius < 0:
            raise InvalidParameters(f"radius must be nonnegative, got {radius}")
    return _find_erase_decode(g, y, params, "viderman", radius)


# -- guess-and-flip (enumerated collision densities) --------------------------


@dataclass(frozen=True)
class GuessSchedule:
    """Enumerated per-iteration collision-density guesses.

    Each guess comes from the grid {eta, 2 eta, ..., ceil(1/eta) eta} with
    eta = beta/100, which ``_flip_cuts`` lists by its distinct integer cuts
    and never builds; a run makes ``ell`` guesses, enough rounds for a
    per-round error reduction of beta to shrink any starting error set to a
    third.
    """

    beta: Fraction
    eta: Fraction
    ell: int

    @classmethod
    def for_beta(cls, beta) -> "GuessSchedule":
        beta = as_fraction(beta)
        if not 0 < beta < Fraction(1, 4):
            raise InvalidParameters(f"beta must be in (0, 1/4), got {beta}")
        shrink = math.log(1 - float(beta))
        if shrink == 0:
            raise InvalidParameters(f"beta = {beta} rounds 1 - beta to 1 in floats")
        return cls(beta, beta / 100, math.ceil(math.log(1 / 3) / shrink))


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


def _flip_cuts(eta: Fraction, cutoff: Fraction, d: int) -> tuple[list[int], bool]:
    """The distinct cuts max(0, ceil((1 - 3 i eta) D)) of the guesses i eta
    below ``cutoff``, descending, and whether a guess reaches ``cutoff``.
    With eta = p/q a cut is D - floor(3 i p D / q), so a probe is one
    integer floor division."""
    last = math.ceil(1 / eta)
    below = min(last + 1, math.ceil(cutoff / eta))  # first i with i eta >= cutoff
    step, q = 3 * eta.numerator * d, eta.denominator
    steps = _cut_steps(lambda i: max(0, d - i * step // q), 1, below)
    return [t for _, t in steps], last * eta >= cutoff


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
    the enumeration path is built once, as that hit unwinds.

    A node's children depend on its syndrome alone: per flip cut t, the
    mask l0 of the bits with at least t unsatisfied checks, and the
    syndrome after flipping them. So each distinct syndrome is expanded
    once per call, into a list of (t, l0, next syndrome) that every node
    with that syndrome walks. Where the top cut flips nothing, the search
    walks one word down level by level, and every level reuses the one
    expansion. On ``gen_left_regular(N, 3N/4, 6)`` with eps = 1/6, the
    scaled entry at eta = 1/100 (N = 200, 6 errors) expands 652 nodes and
    meets 7 distinct syndromes, and beta = 1/1000 (N = 60, 3 errors) meets
    2 in the 988 nodes before the recursion limit. The radii are floored
    once, so a leaf compares integer weights. A leaf or find step reads only
    the candidate, and an L over the erasure capacity gives none, so its
    find loop runs with limit capacity: it stops once L and the vertices
    waiting to join it exceed the capacity, rather than run away to N.

    A search deeper than the interpreter's recursion limit (beta below
    about 1/900) raises a short ``RecursionError`` naming ``ell``.
    """
    _check_plain(g, y)
    beta = as_fraction(beta)
    eps, alpha = params.eps, params.alpha
    if eps > Fraction(1, 4) - beta:
        raise InvalidParameters(f"need eps <= 1/4 - beta, got eps={eps}, beta={beta}")
    schedule = GuessSchedule.for_beta(beta)
    n, d = g.n_left, g.d_left
    radius = (1 - eps) * alpha * n
    capacity = ErasureConfig.from_params(params).max_erasures(n)
    # integer weights w satisfy w <= r exactly when w <= floor(r)
    max_dist = math.floor(radius)
    max_fix = math.floor((1 - 3 * eps) / (1 - 2 * eps) * math.floor(alpha * n))
    cutoff = Fraction(2, 3) * eps + schedule.eta

    flip_thresholds, has_find = _flip_cuts(schedule.eta, cutoff, d)

    find_h = _cut(d, 0, eps)
    fixed_cache: dict[int, Optional[int]] = {}

    def fixed(z: int, s: int) -> Optional[int]:  # s is the syndrome of z
        if z not in fixed_cache:
            e = _find_and_erase(g, s, find_h, capacity, limit=capacity)[0]
            fixed_cache[z] = None if e is None else z ^ e
        return fixed_cache[z]

    # per syndrome, per flip cut t: (t, the bits l0 it flips, the syndrome after)
    children: dict[int, list[tuple[int, int, int]]] = {}
    y_bits = y.bits
    nodes = 0
    memo_fail: set[tuple[int, int]] = set()

    def dfs(z: int, s: int, depth: int) -> Optional[tuple[int, list, int]]:
        """The first hit under word z at ``depth``: (candidate, the path
        steps from here in reverse, bits flipped from here), or None."""
        nonlocal nodes
        if (z, depth) in memo_fail:
            return None
        nodes += 1
        if depth == schedule.ell:
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
            for t, l0, s1 in kids:
                hit = dfs(z ^ l0, s1, depth + 1)
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
            f"guess-flip search of depth ell = {schedule.ell} exceeds the recursion limit"
        )
    if hit is not None:
        cand, steps, flips = hit
        return DecodeOutcome(
            "guess-flip",
            "success",
            word=Word(n, cand),
            radius=radius,
            corrected=(y_bits ^ cand).bit_count(),
            iterations=nodes,
            flips=flips,
            enumeration_index=tuple(reversed(steps)),
        )
    return DecodeOutcome(
        "guess-flip", "failure", reason="no-candidate",
        radius=radius, iterations=nodes,
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
    """
    _check_plain(g, y)
    eta = as_fraction(eta)
    if not 0 < eta <= Fraction(1, 4):
        raise InvalidParameters(f"eta must be in (0, 1/4], got {eta}")
    eps, alpha = params.eps, params.alpha
    if eps >= Fraction(1, 4):
        raise InvalidParameters(f"need eps < 1/4, got {eps}")
    beta = eta
    k = (Fraction(1, 4) - beta) / eps
    if k > 1 / alpha:
        k = 1 / alpha
    if k <= 1:
        out = guess_flip_decode(g, y, params, beta=Fraction(1, 4) - eps)
        return replace(out, algorithm="guess-flip-scaled", path="unscaled-fallback")
    scaled = ExpanderParams(k * alpha, k * eps)
    beta2 = Fraction(1, 4) - k * eps
    out = guess_flip_decode(g, y, scaled, beta=beta2)
    return replace(out, algorithm="guess-flip-scaled", path=f"k={k}")


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
    if eps > Fraction(1, 8):
        raise InvalidParameters(f"need eps <= 1/8, got {eps}")
    slack = as_fraction(slack)
    if slack < 0:
        raise InvalidParameters("slack must be nonnegative")
    n, m, d = g.n_left, g.m_right, g.d_left
    if not n:  # no guess (i, j) to make, and an accept radius of 0
        return DecodeOutcome(
            "guess-expansion", "failure", reason="no-candidate", radius=Fraction(0)
        )
    # gamma = 0 at (1, D), which puts it on the plain branch (D <= M)
    affine = eps + slack
    plain = _cut(d, 0, affine)
    # with eps = a/b and alpha = c/e: gamma*x*eps = k*step, step = a*e/(b*D*c*N)
    a, b, c, e = eps.numerator, eps.denominator, params.alpha.numerator, params.alpha.denominator
    i0 = max(1, -(-c * n // e))  # ceil(alpha*N)
    # the sqrt branch needs gamma*x >= eps, that is k >= eps*D*alpha*N, and j <= M
    lo, hi = max(d * i0 - m, -(-a * d * c * n // (b * e))), d * n
    cut = _cuts_along(d, a * e, b * d * c * n, slack)

    def name(k: Optional[int]) -> tuple[tuple, ExpansionGuess]:
        x = 1 / (params.alpha * n)  # x = i/(alpha*N) at i = 1
        if k is None:
            return (1, d), ExpansionGuess(x, Fraction(0), None, "plain", Fraction(0), affine)
        i = max(i0, k // d + 1)  # k's first guess (i, j)
        q = Fraction(k * a * e, b * d * c * n)
        return (i, d * i - k), ExpansionGuess(i * x, Fraction(k, d * i), None, "sqrt", q, slack)

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
    if eps > Fraction(1, 8):
        raise InvalidParameters(f"need eps <= 1/8, got {eps}")
    eta = eps * as_fraction(eta_prime)
    if eta <= 0:
        raise InvalidParameters("eta_prime must be positive")
    d = g.d_left
    affine = eps + 2 * eta
    plain = _cut(d, 0, affine)
    # with eps = a/b and eta = p/q: value*eps = idx*step, step = p*a/(q*b)
    a, b, p, q = eps.numerator, eps.denominator, eta.numerator, eta.denominator
    cut = _cuts_along(d, p * a, q * b, eta)
    lo, hi = -(-a * q // (b * p)), -(-q // p) + 1  # ceil(eps/eta), ceil(1/eta) + 1

    def name(idx: Optional[int]) -> tuple[tuple, ExpansionGuess]:
        if idx is None:  # the plain cut, tried at value 0
            return (0,), ExpansionGuess(None, None, Fraction(0), "plain", Fraction(0), affine)
        return (idx,), ExpansionGuess(
            None, None, idx * eta, "sqrt", Fraction(idx * p * a, q * b), eta
        )

    return _run_expansion_branches(g, y, params, "guess-expansion-grid", plain, cut, lo, hi, name)
