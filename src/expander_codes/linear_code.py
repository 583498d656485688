"""GF(2) code machinery over a bipartite graph.

A word is a length-N bit vector stored as a Python int (bit i = left vertex
i); parity checks are the right vertices. Codewords are exactly the words
whose syndrome is zero.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator

from ._util import _reduce, indices_to_mask, mask_to_indices, select
from .errors import BudgetExceeded, InvalidInput, InvalidParameters
from .expansion import tradeoff_bound_first
from .graphs import BipartiteGraph, ExpanderParams

__all__ = [
    "Word",
    "check_word",
    "Syndrome",
    "NullspaceBasis",
    "DistanceResult",
    "DistanceBound",
    "syndrome",
    "syndrome_bits",
    "is_codeword",
    "nullspace",
    "min_distance_bruteforce",
    "distance_lower_bound",
    "sample_codeword",
    "plant_errors",
    "parse_word",
    "format_word",
]


@dataclass(frozen=True)
class Word:
    """Length-n bit vector with an optional erasure mask.

    ``bits`` holds the known values; erased positions carry no value and are
    kept zero in ``bits``.
    """

    n: int
    bits: int
    erasures: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInput(f"word length must be nonnegative, got {self.n}")
        full = (1 << self.n) - 1
        if not 0 <= self.bits <= full:
            raise InvalidInput(f"bits out of range for length {self.n}")
        if not 0 <= self.erasures <= full:
            raise InvalidInput(f"erasure mask out of range for length {self.n}")
        if self.bits & self.erasures:
            raise InvalidInput("erased positions must not carry bit values")

    @classmethod
    def zero(cls, n: int) -> "Word":
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "Word":
        return cls(n, indices_to_mask(support, n))

    @property
    def has_erasures(self) -> bool:
        return self.erasures != 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return mask_to_indices(self.bits)

    def distance(self, other: "Word") -> int:
        if self.n != other.n:
            raise InvalidInput("words have different lengths")
        if self.has_erasures or other.has_erasures:
            raise InvalidInput("Hamming distance undefined with erasures")
        return (self.bits ^ other.bits).bit_count()

    def __str__(self) -> str:
        return format_word(self)


def check_word(g: BipartiteGraph, w: Word) -> None:
    """Refuse ``w`` unless it is N known bits: length N and no erasures."""
    if w.n != g.n_left:
        raise InvalidInput(f"word length {w.n} != N = {g.n_left}")
    if w.has_erasures:
        raise InvalidInput("word must not contain erasures")


def parse_word(text: str) -> Word:
    """Parse one line over {0,1,?}; '?' marks an erasure."""
    line = text.strip()
    bad = line.lstrip("01?")
    if bad:
        raise InvalidInput(f"position {len(line) - len(bad)}: invalid symbol {bad[0]!r}")
    rev = "0" + line[::-1]  # character i at bit i; the "0" reads "" as 0
    erasures = int(rev.replace("1", "0").replace("?", "1"), 2)
    return Word(len(line), int(rev.replace("?", "0"), 2), erasures)


def format_word(w: Word) -> str:
    chars = list(bin(w.bits | 1 << w.n)[:2:-1])  # the bit at n marks the length
    for i in mask_to_indices(w.erasures):
        chars[i] = "?"
    return "".join(chars)


@dataclass(frozen=True)
class Syndrome:
    """Parity-check evaluations; bit c is set iff check c is unsatisfied."""

    m: int
    bits: int

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def unsatisfied(self) -> tuple[int, ...]:
        return mask_to_indices(self.bits)

    def weight(self) -> int:
        return self.bits.bit_count()


def syndrome_bits(g: BipartiteGraph, bits: int) -> int:
    """Syndrome of a raw bit vector, as a mask over checks: the XOR of the
    check masks of its set bits, selected without building their positions.

    Costs one M-bit XOR per set bit, plus an O(N) digit scan once the word is
    dense (``_util.select``). At N = 2000, M = 1500, D = 6 a word of about
    1000 set bits costs 0.11 ms, where building its 1000 positions first
    cost 0.22 ms, and a word of 3 set bits about 2 us (medians, CPython
    3.11, 2 shared vCPUs).
    """
    return reduce(operator.xor, select(bits, g.left_masks), 0)


def syndrome(g: BipartiteGraph, w: Word) -> Syndrome:
    check_word(g, w)
    return Syndrome(g.m_right, syndrome_bits(g, w.bits))


def is_codeword(g: BipartiteGraph, w: Word) -> bool:
    return syndrome(g, w).is_zero


@dataclass(frozen=True)
class NullspaceBasis:
    """Basis of the code (nullspace of the check matrix) plus its rank."""

    n: int
    rank: int
    basis: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def rate(self) -> Fraction:
        if self.n == 0:
            raise InvalidParameters("rate undefined for N = 0")
        return Fraction(self.n - self.rank, self.n)

    def _check_budget(self, budget: int) -> None:
        """Refuse a walk over the code when its dimension exceeds ``budget``."""
        if self.dimension > budget:
            raise BudgetExceeded(
                f"code dimension {self.dimension} exceeds budget {budget}",
                required=self.dimension,
            )

    def sums(self, start: int, fewest: int, most: int, budget: int) -> Iterator[int]:
        """``start`` XOR each sum of between ``fewest`` and ``most`` distinct
        basis words, each sum once; the empty sum, ``start`` itself, comes
        first when ``fewest`` is 0. From 0 to the dimension this is the span.

        Refused when the dimension exceeds ``budget``. The span of the first
        basis words, at most 12, is built once, grouped by how many words each
        of its members sums. Each subset of j remaining words then shifts the
        groups of fewest - j to most - j words, merged once in ascending order,
        in one ``map``: the per-codeword work runs in C, a large span is listed
        lazily, and a caller's sort of the output finds long ascending runs.
        """
        self._check_budget(budget)
        low, high = self.basis[:12], self.basis[12:]
        groups = [[start]]  # groups[c]: start XOR each sum of c words of low
        for vec in low:
            if len(groups) <= most:
                groups.append([])
            for c in range(len(groups) - 1, 0, -1):
                groups[c] += map(vec.__xor__, groups[c - 1])
        counts = {  # j words of high -> the range of counts of low words to add
            j: (max(fewest - j, 0), min(most - j, len(low)) + 1)
            for j in range(max(fewest - len(low), 0), min(most, len(high)) + 1)
        }
        merged = {
            span: sorted(itertools.chain.from_iterable(groups[slice(*span)]))
            for span in set(counts.values())
        }
        return itertools.chain.from_iterable(
            map(reduce(operator.xor, subset, 0).__xor__, merged[span])
            for j, span in counts.items()
            for subset in itertools.combinations(high, j)
        )

    def to_text(self) -> str:
        """One basis word per line as 0/1 characters."""
        return "".join(format_word(Word(self.n, vec)) + "\n" for vec in self.basis)


def nullspace(g: BipartiteGraph) -> NullspaceBasis:
    """The code as the nullspace of the check matrix over GF(2).

    The basis is the reduced one: for each free column f, ascending, the one
    codeword with f set and every other free column clear. One pass packs
    column i as one int, its check mask above bit N and bit i below, and
    reduces it by its highest set bit against the pivots before it. A
    residue with a check left becomes a pivot. A residue below 2^N is a free
    column's relation: it sets f and only pivot columns below f, so it is
    the word and no back-substitution runs. The basis is cached on the
    graph: every later call returns the same ``NullspaceBasis``.
    """
    return g._code_basis


def _reduced_basis(g: BipartiteGraph) -> NullspaceBasis:
    n = g.n_left
    pivots: dict[int, int] = {}  # every key is above n
    basis = []
    for i, col in enumerate(g.left_masks):
        v = _reduce(pivots, col << n | 1 << i)
        if v >> n:
            pivots[v.bit_length()] = v
        else:
            basis.append(v)
    return NullspaceBasis(n, len(pivots), tuple(basis))


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    witness: Word


def min_distance_bruteforce(g: BipartiteGraph, budget: int = 24) -> DistanceResult:
    """Minimum weight over all nonzero codewords, exact, by listing the sums
    of w = 1, 2, ... basis words.

    The reduced basis is systematic on its free columns, an information set:
    a sum of w basis words has weight at least w. So once w exceeds the
    least weight found, every codeword of that weight has been listed, and
    only sum(C(k, <= w)) of the 2^k codewords are visited.

    Refuses when the code dimension exceeds ``budget``, on every call. Ties
    among witnesses break by smallest integer bit-encoding, so the result is
    deterministic. The walk runs once per graph, and its result is cached on
    the graph like the basis: every later call returns the same immutable
    ``DistanceResult``.
    """
    ns = nullspace(g)
    if ns.dimension == 0:
        raise InvalidParameters("code is trivial (only the zero word)")
    ns._check_budget(budget)
    return g._min_distance


def _least_weight(g: BipartiteGraph) -> DistanceResult:
    """The walk of ``min_distance_bruteforce`` on a nontrivial code, which
    has checked the budget; read it through that function."""
    ns = g._code_basis
    n = g.n_left
    best = (n + 1) << n  # weight << n | word: min() takes the lightest, then the smallest
    for w in range(1, ns.dimension + 1):
        if w > best >> n:
            break
        best = min(best, min(
            word.bit_count() << n | word for word in ns.sums(0, w, w, ns.dimension)))
    return DistanceResult(best >> n, Word(n, best & ((1 << n) - 1)))


@dataclass(frozen=True)
class DistanceBound:
    """Distance lower bound: the closed-form headline and a certified floor.

    ``certified_floor`` is the largest w such that every support of weight
    <= w is forced to have a unique neighbor (hence cannot be a codeword)
    by verified expansion plus the size-expansion tradeoff: the largest
    run of sizes s starting at 1 with bound_edges(s) > D*s/2.
    """

    headline: Fraction
    certified_floor: int


def distance_lower_bound(params: ExpanderParams, d: int, n: int) -> DistanceBound:
    alpha, eps = params.alpha, params.eps
    headline = alpha / (2 * eps) * n
    alpha_n = alpha * n
    floor_w = 0
    for s in range(1, n + 1):
        if s <= alpha_n:
            bound = (1 - eps) * d * s
        else:
            if alpha_n <= 1:
                break
            k = Fraction(s) / alpha_n
            bound = tradeoff_bound_first(params, d, n, k).bound_edges
        if bound > Fraction(d * s, 2):
            floor_w = s
        else:
            break
    return DistanceBound(headline, floor_w)


def sample_codeword(g: BipartiteGraph, seed: int) -> Word:
    """Uniform codeword: random GF(2) combination of the cached code basis."""
    ns = nullspace(g)
    rng = random.Random(seed)
    coeffs = rng.getrandbits(ns.dimension) if ns.dimension else 0
    word = reduce(operator.xor, select(coeffs, ns.basis), 0)
    return Word(g.n_left, word)


def plant_errors(c: Word, errors: Iterable[int]) -> Word:
    """Flip exactly the positions in ``errors``; an involution."""
    if c.has_erasures:
        raise InvalidInput("cannot plant errors on an erased word")
    errors = tuple(errors)
    mask = indices_to_mask(errors, c.n)
    if mask.bit_count() < len(errors):
        seen = set()
        for i in errors:
            if i in seen:
                raise InvalidInput(f"duplicate error position {i}")
            seen.add(i)
    return Word(c.n, c.bits ^ mask)
