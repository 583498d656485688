"""Shared fixtures: hand-checkable tiny graphs and scanned expander instances."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from expander_codes import (
    BipartiteGraph,
    ExpanderParams,
    cycle_graph,
    gen_left_regular,
    linear_code,
    measure_profile,
    min_distance_bruteforce,
    nullspace,
    vertex_edge_graph,
    verify_expander,
)


@pytest.fixture
def eliminations(monkeypatch) -> list:
    """Grows by one entry per GF(2) elimination ``nullspace`` runs."""
    calls = []
    reduced_basis = linear_code._reduced_basis

    def counting(g):
        calls.append(1)
        return reduced_basis(g)

    monkeypatch.setattr(linear_code, "_reduced_basis", counting)
    return calls


def gray_walk(basis):
    """Every sum of the words of ``basis``, the zero word first, one basis
    word per step of a Gray code: the test oracle for the code's span."""
    word = 0
    yield word
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        yield word


def echelon(rows) -> dict[int, int]:
    """The GF(2) row echelon the package used before its one highest-bit
    reduction, kept as an independent oracle: ``{col: row}``, each stored
    row's lowest set bit its pivot ``col``; rows that reduce to zero are
    dropped, so the number of pivots is the rank."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            if col not in pivots:
                pivots[col] = row
                break
            row ^= pivots[col]
    return pivots


def back_substitute(pivots: dict[int, int], fixed: int) -> int:
    """The solution of the echelon system ``pivots`` (every row has even
    parity) whose non-pivot columns are ``fixed``, from the highest pivot
    down. ``fixed`` may set no pivot column."""
    for col in sorted(pivots, reverse=True):
        if (pivots[col] & fixed).bit_count() & 1:
            fixed |= 1 << col
    return fixed


def brute_force_closure(g: BipartiteGraph, s: int, h: int) -> tuple[int, int]:
    """The find loop's closure with no pick order: from L = {} iterate
    L <- {i : |adj(i) & (s | Gamma(L))| >= h} to its fixed point. Returns
    (L, R) as masks, R = s | Gamma(L)."""
    l_mask, r_mask = 0, s
    while True:
        grown = sum(1 << i for i, m in enumerate(g.left_masks) if (m & r_mask).bit_count() >= h)
        if grown == l_mask:
            return l_mask, r_mask
        l_mask = grown
        r_mask = s
        for i, m in enumerate(g.left_masks):
            if l_mask >> i & 1:
                r_mask |= m


def tri3_graph() -> BipartiteGraph:
    return vertex_edge_graph(cycle_graph(3))


def cyc_graph(length: int) -> BipartiteGraph:
    return vertex_edge_graph(cycle_graph(length))


@pytest.fixture(scope="session")
def tri3() -> BipartiteGraph:
    return tri3_graph()


def gen_four_cycle_free(
    n: int, m: int, d: int, seed: int, tries_per_vertex: int = 200, restarts: int = 50
) -> BipartiteGraph | None:
    """Left-regular graph where no two left vertices share two checks, by
    randomized check-pair packing; None when the packing fails."""
    rng = random.Random(seed)
    for _ in range(restarts):
        used: set[tuple[int, int]] = set()
        adj = []
        ok = True
        for _ in range(n):
            placed = False
            for _ in range(tries_per_vertex):
                row = tuple(sorted(rng.sample(range(m), d)))
                pairs = set(itertools.combinations(row, 2))
                if pairs & used:
                    continue
                used |= pairs
                adj.append(row)
                placed = True
                break
            if not placed:
                ok = False
                break
        if ok:
            return BipartiteGraph(n, m, d, tuple(adj))
    return None


@dataclass(frozen=True)
class Instance:
    """An exhaustively verified tiny expander with its exact parameters."""

    graph: BipartiteGraph
    params: ExpanderParams
    eps: Fraction  # measured: the smallest eps the profile certifies
    alpha_n: int
    distance: int


def _measured_instance(g: BipartiteGraph, alpha_n: int) -> Instance | None:
    prof = measure_profile(g, alpha_n)
    eps = prof.measured_eps()
    if not 0 < eps < Fraction(1, 2):
        return None
    params = ExpanderParams(Fraction(alpha_n, g.n_left), eps)
    assert verify_expander(g, params).passed
    dist = min_distance_bruteforce(g).distance if nullspace(g).dimension else 0
    return Instance(g, params, eps, alpha_n, dist)


# pinned (n, m, seed) triples for gen_four_cycle_free with d=3: every pinned
# instance is re-checked by the predicates below, not trusted
_DECODE_INSTANCE_KEYS = [
    (12, 9, 0),
    (12, 10, 25),
    (14, 11, 21),
    (15, 11, 24),
    (15, 12, 0),
    (16, 12, 1),
    (16, 13, 1),
]


@pytest.fixture(scope="session")
def decode_instances() -> list[Instance]:
    """Verified expanders with measured eps = 1/6 < 1/4 and distance 6,
    clearing both the flip-decoder target radius and the erasure budget."""
    out = []
    for n, m, seed in _DECODE_INSTANCE_KEYS:
        g = gen_four_cycle_free(n, m, 3, seed)
        assert g is not None
        inst = _measured_instance(g, alpha_n=2)
        assert inst is not None
        assert 0 < inst.eps < Fraction(1, 4)
        assert inst.distance >= 6
        out.append(inst)
    return out


def symplectic_quadrangle_w2() -> BipartiteGraph:
    """The generalized quadrangle W(2): the 15 points of PG(3,2) as bits, and
    as checks the 15 lines totally isotropic under the symplectic form
    x0*y1 + x1*y0 + x2*y3 + x3*y2. Each point lies on 3 lines."""

    def form(x: int, y: int) -> int:
        partner = (y >> 1 & 0b0101) | (y << 1 & 0b1010)  # y1, y0, y3, y2
        return (x & partner).bit_count() & 1

    points = range(1, 16)  # the nonzero vectors of GF(2)^4
    isotropic = {
        frozenset((x, y, x ^ y)) for x in points for y in points if x != y and not form(x, y)
    }
    lines = sorted(isotropic, key=sorted)
    adj = [tuple(j for j, line in enumerate(lines) if p in line) for p in points]
    return BipartiteGraph(15, len(lines), 3, tuple(adj))


@pytest.fixture(scope="session")
def w2_instance() -> Instance:
    """W(2) at alpha*N = 3: measured eps = 2/9 and distance 6, the instance
    on which guess-flip's target radius 2 beats Viderman's 9/5."""
    inst = _measured_instance(symplectic_quadrangle_w2(), alpha_n=3)
    assert inst is not None
    assert (inst.graph.m_right, inst.eps, inst.distance) == (15, Fraction(2, 9), 6)
    return inst


# GF(4) multiplication for the order-4 affine plane
_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def dual_affine_plane_4() -> BipartiteGraph:
    """Lines of the order-4 affine plane as left vertices, points as checks;
    any two lines share at most one point."""
    lines = []
    for m in range(4):
        for b in range(4):
            lines.append(tuple(sorted(4 * x + (_GF4_MUL[m][x] ^ b) for x in range(4))))
    for c in range(4):
        lines.append(tuple(sorted(4 * c + y for y in range(4))))
    return BipartiteGraph(20, 16, 4, tuple(lines))


@pytest.fixture(scope="session")
def guess_expansion_instance() -> Instance:
    """Shortened dual plane: drop lines off min-weight codewords until the
    distance clears 7. Lands at N=10, distance 8, measured eps = 1/8."""
    g = dual_affine_plane_4()
    lines = list(g.adj)
    while True:
        g = BipartiteGraph(len(lines), 16, 4, tuple(lines))
        if nullspace(g).dimension == 0:
            raise AssertionError("shortening emptied the code")
        res = min_distance_bruteforce(g)
        if res.distance >= 7:
            break
        drop = res.witness.support()[0]
        del lines[drop]
    inst = _measured_instance(g, alpha_n=2)
    assert inst is not None
    assert inst.eps <= Fraction(1, 8)
    return inst


def random_verified_instances(
    count: int, *, alpha_ns=(2, 3), n_lo=8, n_hi=12, seeds=range(200)
) -> list[Instance]:
    """Deterministic scan of random left-regular graphs, keeping those whose
    full exhaustive profile certifies some eps in (0, 1/2) at integer
    alpha*N >= 2."""
    out = []
    for seed in seeds:
        n = n_lo + seed % (n_hi - n_lo + 1)
        m = n - 2 - seed % 2
        d = 3 + seed % 2
        g = gen_left_regular(n, m, d, seed)
        prof = measure_profile(g, n)
        for alpha_n in alpha_ns:
            eps = max(
                1 - Fraction(prof.min_at(s), d * s) for s in range(1, alpha_n + 1)
            )
            if not 0 < eps < Fraction(1, 2):
                continue
            params = ExpanderParams(Fraction(alpha_n, n), eps)
            dist = min_distance_bruteforce(g).distance if nullspace(g).dimension else 0
            out.append(Instance(g, params, eps, alpha_n, dist))
            if len(out) >= count:
                return out
    raise AssertionError(f"scan exhausted with {len(out)} < {count} instances")
