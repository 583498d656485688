"""Left-regular bipartite graphs: construction, composition, serialization.

Left vertices carry code bits; right vertices act as parity checks. All
generators are deterministic functions of their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._util import as_fraction, indices_to_mask
from .errors import GenerationFailed, GraphFormatError, InvalidParameters

__all__ = [
    "BipartiteGraph",
    "RegularGraph",
    "ExpanderParams",
    "gen_left_regular",
    "gen_biregular",
    "vertex_edge_graph",
    "union_graph",
    "store",
    "load",
    "cycle_graph",
    "complete_graph",
    "random_regular_graph",
]


@dataclass(eq=True)
class BipartiteGraph:
    """Bipartite graph with ``n_left`` left vertices of uniform degree ``d_left``.

    ``adj[i]`` is the strictly ascending tuple of the ``d_left`` distinct right
    neighbors of left vertex ``i`` (simple graph: no parallel edges from one
    left vertex). Instances are immutable by convention and safe to share;
    derived structure (bit masks, right adjacency, code basis) is cached on
    first access, so a graph must not be mutated once it has been used.
    """

    n_left: int
    m_right: int
    d_left: int
    adj: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        if self.n_left < 0 or self.m_right < 0 or self.d_left < 0:
            raise InvalidParameters("graph dimensions must be nonnegative")
        self.adj = tuple(tuple(row) for row in self.adj)
        if len(self.adj) != self.n_left:
            raise InvalidParameters(
                f"expected {self.n_left} adjacency rows, got {len(self.adj)}"
            )
        for i, row in enumerate(self.adj):
            if len(row) != self.d_left:
                raise InvalidParameters(
                    f"left vertex {i}: expected {self.d_left} neighbors, got {len(row)}"
                )
            prev = -1
            for r in row:
                if not 0 <= r < self.m_right:
                    raise InvalidParameters(
                        f"left vertex {i}: neighbor {r} out of range [0, {self.m_right})"
                    )
                if r <= prev:
                    raise InvalidParameters(
                        f"left vertex {i}: neighbors must be strictly ascending"
                    )
                prev = r

    # -- derived structure -------------------------------------------------

    @cached_property
    def left_masks(self) -> tuple[int, ...]:
        """Per left vertex, its neighbor set as a bit mask over checks."""
        return tuple(indices_to_mask(row, self.m_right) for row in self.adj)

    @cached_property
    def right_adj(self) -> tuple[tuple[int, ...], ...]:
        """Per right vertex, the ascending tuple of adjacent left vertices."""
        buckets: list[list[int]] = [[] for _ in range(self.m_right)]
        for i, row in enumerate(self.adj):
            for r in row:
                buckets[r].append(i)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def right_masks(self) -> tuple[int, ...]:
        """Per right vertex, its neighbor set as a bit mask over left bits."""
        return tuple(indices_to_mask(row, self.n_left) for row in self.right_adj)

    @cached_property
    def _code_basis(self):
        """The code's reduced basis; read it through ``linear_code.nullspace``."""
        from .linear_code import _reduced_basis  # linear_code imports this module

        return _reduced_basis(self)

    @cached_property
    def _min_distance(self):
        """The code's minimum distance and a witness; read it through
        ``linear_code.min_distance_bruteforce``, which checks the budget."""
        from .linear_code import _least_weight  # linear_code imports this module

        return _least_weight(self)

    @cached_property
    def right_degrees(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.right_adj)

    @property
    def d_right_avg(self) -> Fraction:
        """Average right degree N*D/M, exact."""
        if self.m_right == 0:
            raise InvalidParameters("average right degree undefined for M = 0")
        return Fraction(self.n_left * self.d_left, self.m_right)

    @cached_property
    def d_max(self) -> int:
        """Maximum right degree (0 for an edgeless graph)."""
        return max(self.right_degrees, default=0)

    @property
    def is_empty(self) -> bool:
        return self.n_left == 0 and self.m_right == 0


@dataclass(eq=True)
class RegularGraph:
    """Ordinary d-regular graph given as an ordered list of unordered edges.

    Edge order is preserved: it fixes the right-vertex numbering of the
    derived vertex-edge bipartite graph.
    """

    n_vertices: int
    degree: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        counts = [0] * self.n_vertices
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InvalidParameters(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InvalidParameters(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise InvalidParameters(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            counts[u] += 1
            counts[v] += 1
        for v, c in enumerate(counts):
            if c != self.degree:
                raise InvalidParameters(
                    f"vertex {v} has degree {c}, expected {self.degree}"
                )


@dataclass(frozen=True)
class ExpanderParams:
    """Target expansion parameters: set-size fraction alpha, defect eps.

    A graph meets them when every left set S with |S| <= alpha*N has at
    least (1-eps)*D*|S| distinct neighbors.
    """

    alpha: Fraction
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if not 0 < self.alpha <= 1:
            raise InvalidParameters(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < self.eps < Fraction(1, 2):
            raise InvalidParameters(f"eps must be in (0, 1/2), got {self.eps}")

    def s_max(self, n: int) -> int:
        """Largest constrained set size floor(alpha*N)."""
        s = math.floor(self.alpha * n)
        if s < 1:
            raise InvalidParameters(f"floor(alpha*N) = {s} < 1 for N = {n}")
        return s


# -- generators ------------------------------------------------------------


def gen_left_regular(n: int, m: int, d: int, seed: int) -> BipartiteGraph:
    """Each left vertex draws d distinct uniform right neighbors.

    Deterministic for a fixed seed.
    """
    if n < 1 or m < 1:
        raise InvalidParameters("n and m must be at least 1")
    if not 1 <= d <= m:
        raise InvalidParameters(f"degree {d} must satisfy 1 <= d <= m = {m}")
    rng = random.Random(seed)
    adj = tuple(tuple(sorted(rng.sample(range(m), d))) for _ in range(n))
    return BipartiteGraph(n, m, d, adj)


def gen_biregular(
    n: int, m: int, d: int, seed: int, max_attempts: int = 1000, restarts: int = 20
) -> BipartiteGraph:
    """Uniform stub matching with every right degree exactly n*d/m.

    Each left vertex takes the next d stubs from a shuffled stub list; a draw
    containing a repeated right vertex is rejected and the remaining stubs
    reshuffled, at most ``max_attempts`` times per vertex. A vertex whose tail
    cannot be fixed (e.g. only one right vertex's stubs remain) restarts the
    whole matching, up to ``restarts`` times.
    """
    if n < 1 or m < 1:
        raise InvalidParameters("n and m must be at least 1")
    if not 1 <= d <= m:
        raise InvalidParameters(f"degree {d} must satisfy 1 <= d <= m = {m}")
    if (n * d) % m != 0:
        raise InvalidParameters(f"n*d = {n * d} is not divisible by m = {m}")
    d_r = n * d // m
    rng = random.Random(seed)
    attempts = 0
    for _ in range(restarts):
        stubs = [r for r in range(m) for _ in range(d_r)]
        rng.shuffle(stubs)
        adj = []
        pos = 0
        stuck = False
        for _ in range(n):
            attempts_here = 0
            while True:
                draw = stubs[pos : pos + d]
                if len(set(draw)) == d:
                    adj.append(tuple(sorted(draw)))
                    pos += d
                    break
                attempts_here += 1
                attempts += 1
                if attempts_here >= max_attempts:
                    stuck = True
                    break
                tail = stubs[pos:]
                rng.shuffle(tail)
                stubs[pos:] = tail
            if stuck:
                break
        if not stuck:
            return BipartiteGraph(n, m, d, tuple(adj))
    raise GenerationFailed(
        f"no duplicate-free stub matching after {restarts} restarts", attempts=attempts
    )


def vertex_edge_graph(h: RegularGraph) -> BipartiteGraph:
    """Bipartite graph with left = V(H), right = E(H), edges by incidence.

    Right vertex j is the j-th edge of H in its stored order; every right
    degree is exactly 2 and the left degree equals deg(H).
    """
    incident: list[list[int]] = [[] for _ in range(h.n_vertices)]
    for j, (u, v) in enumerate(h.edges):
        incident[u].append(j)
        incident[v].append(j)
    adj = tuple(tuple(sorted(row)) for row in incident)
    return BipartiteGraph(h.n_vertices, len(h.edges), h.degree, adj)


def union_graph(g0: BipartiteGraph, g1: BipartiteGraph) -> BipartiteGraph:
    """Disjoint union; g1's left and right indices are shifted past g0's."""
    if g0.is_empty:
        return g1
    if g1.is_empty:
        return g0
    if g0.d_left != g1.d_left:
        raise InvalidParameters(
            f"left degrees differ: {g0.d_left} vs {g1.d_left}"
        )
    shift = g0.m_right
    adj = g0.adj + tuple(tuple(r + shift for r in row) for row in g1.adj)
    return BipartiteGraph(
        g0.n_left + g1.n_left, g0.m_right + g1.m_right, g0.d_left, adj
    )


# -- text format -----------------------------------------------------------
#
# Optional '#' comment lines, then a header "N M D", then N lines of D
# space-separated strictly ascending zero-based right indices (blank when
# D = 0). LF newlines.


def store(g: BipartiteGraph) -> str:
    lines = [f"{g.n_left} {g.m_right} {g.d_left}"]
    lines.extend(" ".join(str(r) for r in row) for row in g.adj)
    return "\n".join(lines) + "\n"


def load(text: str) -> BipartiteGraph:
    header = None
    rows: list[tuple[int, ...]] = []
    n = m = d = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#") or not (line or (header is not None and d == 0 and len(rows) < n)):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3:
                raise GraphFormatError("header must be 'N M D'", lineno)
            try:
                n, m, d = (int(p) for p in parts)
            except ValueError:
                raise GraphFormatError("header fields must be integers", lineno)
            if n < 0 or m < 0 or d < 0:
                raise GraphFormatError("header fields must be nonnegative", lineno)
            header = lineno
            continue
        if len(rows) >= n:
            raise GraphFormatError(f"more than {n} adjacency lines", lineno)
        try:
            row = tuple(int(p) for p in parts)
        except ValueError:
            raise GraphFormatError("indices must be integers", lineno)
        if len(row) != d:
            raise GraphFormatError(f"expected {d} indices, got {len(row)}", lineno)
        prev = -1
        for r in row:
            if not 0 <= r < m:
                raise GraphFormatError(f"index {r} out of range [0, {m})", lineno)
            if r <= prev:
                raise GraphFormatError("indices must be strictly ascending", lineno)
            prev = r
        rows.append(row)
    if header is None:
        raise GraphFormatError("missing header", 1)
    if len(rows) != n:
        raise GraphFormatError(
            f"expected {n} adjacency lines, got {len(rows)}", header
        )
    return BipartiteGraph(n, m, d, tuple(rows))


# -- plain regular graphs --------------------------------------------------


def cycle_graph(length: int) -> RegularGraph:
    """Cycle on ``length`` vertices; edge i joins vertices i and i+1 mod length."""
    if length < 3:
        raise InvalidParameters("cycle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % length) for i in range(length))
    return RegularGraph(length, 2, edges)


def complete_graph(n: int) -> RegularGraph:
    if n < 2:
        raise InvalidParameters("complete graph needs at least 2 vertices")
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return RegularGraph(n, n - 1, edges)


def random_regular_graph(
    n: int, d: int, seed: int, max_attempts: int = 1000
) -> RegularGraph:
    """Random d-regular simple graph by repeated stub pairing.

    Rejects and reshuffles whole pairings containing loops or duplicate
    edges, so small instances are exact up to the attempt budget.
    """
    if n * d % 2 != 0:
        raise InvalidParameters("n*d must be even")
    if not 0 < d < n:
        raise InvalidParameters("need 0 < d < n")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for attempt in range(1, max_attempts + 1):
        rng.shuffle(stubs)
        edges = []
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return RegularGraph(n, d, tuple(edges))
    raise GenerationFailed(
        f"no simple {d}-regular pairing on {n} vertices after {max_attempts} attempts",
        attempts=max_attempts,
    )
