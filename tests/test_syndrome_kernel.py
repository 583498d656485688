"""The syndrome-domain find-and-erase kernel against the code it replaced,
and the work it does."""

import heapq
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expander_codes import (
    BipartiteGraph,
    DecodeOutcome,
    ExpanderParams,
    FindConfig,
    FindTrace,
    InvalidParameters,
    Word,
    decode_erasures,
    find_suspects,
    gen_left_regular,
    guess_expansion_decode_grid,
    guess_expansion_decode_poly,
    nullspace,
    plant_errors,
    sample_codeword,
    viderman_decode,
)
from expander_codes import decoders
from expander_codes._util import _echelon, _solve, indices_to_mask, mask_to_indices
from expander_codes.decoders import _at_least, _find_and_erase
from expander_codes.linear_code import syndrome_bits
from conftest import gray_walk


def _suspects(g, s, h, key=None, **kw):
    """The first L the find loop yields: its closure at cut ``h``, or
    limit + 1 vertices of it."""
    return next(decoders._suspects(g, s, h, key, **kw))


# -- the word-domain find-and-erase the kernel replaced ----------------------


def _word_find_suspects(g, y, cfg, *, order="ascending", seed=None, prefer=None):
    """Former find_suspects: counts over all N left masks, one heap of
    (not preferred, rank, vertex) tuples."""
    n, d = g.n_left, g.d_left
    if order == "ascending":
        rank = range(n)
    elif order == "descending":
        rank = range(n - 1, -1, -1)
    else:
        rank = list(range(n))
        random.Random(seed).shuffle(rank)
    pref = frozenset(prefer) if prefer is not None else frozenset()
    h = cfg.effective_threshold(d)
    r_mask = syndrome_bits(g, y.bits)
    counts = [(m & r_mask).bit_count() for m in g.left_masks]
    heap = [(i not in pref, rank[i], i) for i in range(n) if counts[i] >= h]
    heapq.heapify(heap)
    added = []
    while heap:
        i = heapq.heappop(heap)[2]
        added.append(i)
        new_checks = g.left_masks[i] & ~r_mask
        r_mask |= g.left_masks[i]
        while new_checks:
            low = new_checks & -new_checks
            for u in g.right_adj[low.bit_length() - 1]:
                counts[u] += 1
                if counts[u] == h:
                    heapq.heappush(heap, (u not in pref, rank[u], u))
            new_checks ^= low
    return FindTrace(tuple(added), sum(1 << i for i in added), r_mask)


def _word_decode_erasures(g, y):
    """Former decode_erasures (no budget): a second syndrome as the parity,
    counts from all M right masks, elimination over N-bit rows."""
    known, erased = y.bits, y.erasures
    n_erased = erased.bit_count()
    parity = syndrome_bits(g, known)
    counts = [(rm & erased).bit_count() for rm in g.right_masks]
    stack = [c for c, cnt in enumerate(counts) if cnt == 1]
    while stack:
        c = stack.pop()
        if counts[c] != 1:
            continue
        b = (g.right_masks[c] & erased).bit_length() - 1
        if (parity >> c) & 1:
            known |= 1 << b
            parity ^= g.left_masks[b]
        erased ^= 1 << b
        for c2 in g.adj[b]:
            counts[c2] -= 1
            if counts[c2] == 1:
                stack.append(c2)
    path = "peeling"
    if erased:
        path = "peeling+gauss"
        one = 1 << g.n_left
        pivots = _echelon(
            (rm & erased) | (one if (parity >> c) & 1 else 0)
            for c, rm in enumerate(g.right_masks)
        )
        if g.n_left in pivots:
            return DecodeOutcome("erasure", "failure", reason="not-a-codeword", path=path)
        if len(pivots) < erased.bit_count():
            return DecodeOutcome("erasure", "failure", reason="stalled", path=path)
        known |= _solve(pivots, one)[0] ^ one
        parity = syndrome_bits(g, known)
    if parity != 0:
        return DecodeOutcome("erasure", "failure", reason="not-a-codeword", path=path)
    return DecodeOutcome(
        "erasure", "success", word=Word(g.n_left, known),
        corrected=n_erased, iterations=n_erased, path=path,
    )


def _word_find_and_erase(g, bits, cfg, capacity):
    """Former _find_and_erase: candidate bits from the word, not the syndrome."""
    trace = _word_find_suspects(g, Word(g.n_left, bits), cfg)
    if capacity is not None and trace.size > capacity:
        return None, "list-exceeds-capacity", trace
    sub = _word_decode_erasures(g, Word(g.n_left, bits & ~trace.l_mask, trace.l_mask))
    if not sub.ok:
        return None, sub.reason, trace
    return sub.word.bits, "ok", trace


def _bitmask_suspects(g, s, h, key=None):
    """Former _suspects: R as an M-bit mask, each joining vertex's new checks
    stripped from ``left_masks[i] & ~R``. Returns (L in insertion order, R)."""
    n = g.n_left
    counts = [0] * n
    if key is None:
        ready = list(range(n)) if h <= 0 else []
        push, pop = ready.append, ready.pop
    else:
        ready = [key[i] * n + i for i in range(n)] if h <= 0 else []
        heapq.heapify(ready)
        push = lambda u: heapq.heappush(ready, key[u] * n + u)
        pop = lambda: heapq.heappop(ready) % n
    r_mask = new_checks = s
    added = []
    while True:
        while new_checks:
            low = new_checks & -new_checks
            for u in g.right_adj[low.bit_length() - 1]:
                counts[u] += 1
                if counts[u] == h:
                    push(u)
            new_checks ^= low
        if not ready:
            break
        i = pop()
        added.append(i)
        new_checks = g.left_masks[i] & ~r_mask
        r_mask |= g.left_masks[i]
    return added, r_mask


class _Cut:
    """A find configuration with a given integer cut, d + 1 included, which
    no FindConfig resolves to."""

    def __init__(self, h):
        self.h = h

    def effective_threshold(self, d):
        return self.h


def _gamma(g, positions):
    out = 0
    for b in positions:
        out |= g.left_masks[b]
    return out


def _random_graphs(rng, count):
    out = []
    for seed in range(count):
        n = rng.randint(1, 40)
        d = rng.randint(1, 6)
        # M below N leaves a code of positive dimension, so stalls happen
        m = rng.randint(d, max(d, n)) if seed % 2 else rng.randint(d, max(d, n // 2))
        out.append(gen_left_regular(n, m, d, seed))
    return out


class TestMatchesWordDomain:
    def test_find_erase_and_erasures(self):
        rng = random.Random(8)
        graphs = _random_graphs(rng, 40)
        seen = set()
        for case in range(900):
            g = graphs[case % len(graphs)]
            n, d = g.n_left, g.d_left
            errors = rng.sample(range(n), min(n, rng.choice((0, 1, 2, 3, rng.randint(0, n)))))
            y = plant_errors(sample_codeword(g, case), errors)
            s = syndrome_bits(g, y.bits)
            if case % 4 == 0:
                cfg = _Cut(rng.choice((0, d, d + 1, rng.randint(0, d + 1))))
            else:
                cfg = FindConfig(Fraction(rng.randrange(0, 9), 64), Fraction(rng.randrange(0, 13), 24))
            h = cfg.effective_threshold(d)
            seen.add(("h=0", h == 0))
            seen.add(("h=d+1", h == d + 1))
            seen.add(("s=0", s == 0))

            for order in ("ascending", "descending", "random"):
                for prefer in (None, errors, rng.sample(range(n), rng.randint(0, n))):
                    kw = dict(order=order, seed=case, prefer=prefer)
                    assert find_suspects(g, y, cfg, **kw) == _word_find_suspects(g, y, cfg, **kw)

            capacity = rng.choice((None, None, rng.randint(0, n)))
            want = _word_find_and_erase(g, y.bits, cfg, capacity)
            e, why, suspects = _find_and_erase(g, s, cfg.effective_threshold(g.d_left), capacity)
            l_mask = indices_to_mask(suspects, n)
            assert (why, len(suspects), l_mask) == (want[1], want[2].size, want[2].l_mask), case
            assert (None if e is None else y.bits ^ e) == want[0], case
            outside = (s & ~_gamma(g, suspects)) != 0
            seen.add((why, outside))

            # the erasure decoder on the suspects and on a random erasure set
            for erased in (l_mask, rng.getrandbits(n) if n else 0):
                w = Word(n, y.bits & ~erased, erased)
                got = decode_erasures(g, w)
                assert got == _word_decode_erasures(g, w), case
                outside = (syndrome_bits(g, w.bits) & ~_gamma(g, mask_to_indices(w.erasures))) != 0
                seen.add((got.path, got.reason, outside))

        assert {("h=0", True), ("h=d+1", True), ("s=0", True)} <= seen
        assert {("ok", False), ("stalled", False), ("list-exceeds-capacity", False)} <= seen
        assert ("not-a-codeword", True) in seen  # an odd check outside Gamma(L)
        assert {
            ("peeling", None, False),
            ("peeling+gauss", None, False),
            ("peeling+gauss", "stalled", False),
            ("peeling", "not-a-codeword", True),
            ("peeling+gauss", "not-a-codeword", True),
            ("peeling+gauss", "not-a-codeword", False),
        } <= seen

    def test_stack_pick_finds_the_keyed_closure(self):
        # L and R are the closure of the find loop, so the keyless stack must
        # reach the same set L, each vertex once, as the heap under any key
        # (R is the checks of s and of L, so it follows)
        rng = random.Random(12)
        seen = set()
        for case, g in enumerate(_random_graphs(rng, 60)):
            n, m, d = g.n_left, g.m_right, g.d_left
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            keys = (range(n), range(n - 1, -1, -1), shuffled)
            planted = syndrome_bits(g, rng.getrandbits(rng.choice((2, 4, n))) & ((1 << n) - 1))
            for s in (0, planted, rng.getrandbits(m)):
                for h in (0, 1, rng.randint(0, d), d, d + 1, d + 3):
                    order = _suspects(g, s, h)
                    assert len(order) == len(set(order)), case
                    for key in keys:
                        assert set(order) == set(_suspects(g, s, h, key)), (case, s, h)
                    seen.add((s == 0, h == 0, h > d, 0 < len(order) < n))
        for flag in range(4):
            assert any(k[flag] for k in seen) and not all(k[flag] for k in seen)

    def test_find_loop_matches_the_bitmask_kernel(self):
        # R as a byte per check walks the same checks in the same order as R
        # as an M-bit mask: same L, same insertion order with or without a
        # key, and R replayed from L is the former R
        rng = random.Random(14)
        graphs = _random_graphs(rng, 40)
        graphs += [gen_left_regular(2000, 1500, 6, seed) for seed in (1, 2)]
        seen = set()
        for case, g in enumerate(graphs):
            n, m, d = g.n_left, g.m_right, g.d_left
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            keys = (None, range(n), range(n - 1, -1, -1), shuffled)
            words = [rng.getrandbits(n)] + [
                indices_to_mask(rng.sample(range(n), min(n, k)), n) for k in (3, 10, 90)
            ]
            for word in words:
                s = syndrome_bits(g, word)
                for h in (-1, 0, 1, rng.randint(0, d), d - 2, d, d + 1):
                    for key in keys if n < 2000 else (None, shuffled):
                        order = _suspects(g, s, h, key)
                        want, want_r = _bitmask_suspects(g, s, h, key)
                        assert order == want, (case, h)
                        assert s | _gamma(g, order) == want_r, (case, h)
                    size = len(order)
                    seen.add(("h<=0", h <= 0))
                    seen.add(("small", 0 < size <= 12))
                    seen.add(("runaway at 2000", n == 2000 and size == n and h > 0))
        assert {("h<=0", True), ("small", True), ("runaway at 2000", True)} <= seen

    def test_flip_masks_match_dense_counts(self):
        rng = random.Random(3)
        for g in _random_graphs(rng, 30):
            n, d = g.n_left, g.d_left
            synd = rng.getrandbits(g.m_right)
            dense = [(m & synd).bit_count() for m in g.left_masks]
            cuts = list(range(-1, d + 2))
            assert _at_least(g, synd, cuts) == [
                sum(1 << i for i in range(n) if dense[i] >= t) for t in cuts
            ]


def _lowered(g, s, cuts, key=None, limit=None):
    """One find loop started at cuts[0] and sent the rest: the (cut, L as a
    set) of each closure it reached, and the last list it yielded. Past the
    limit the loop yields once more, limit + 1 vertices, and ends."""
    settled = []
    loop = decoders._suspects(g, s, cuts[0], key, limit=limit)
    suspects = next(loop)
    for h, lower in zip(cuts, cuts[1:] + [None]):
        if limit is not None and len(suspects) > limit:
            assert next(loop, None) is None
            break
        settled.append((h, frozenset(suspects)))
        if lower is None:
            break
        suspects = loop.send(lower)
    return settled, suspects


def _check_lowered(g, s, cuts, key, limit):
    """Against fresh one-cut loops: the lowered loop settles every cut of the
    descending ``cuts`` whose closure has at most ``limit`` vertices, with
    that closure, and then stops with limit + 1 of the next closure's
    vertices. Returns the fresh closures."""
    fresh = [frozenset(_suspects(g, s, h)) for h in cuts]
    small = sum(1 for l_set in fresh if limit is None or len(l_set) <= limit)
    assert all(len(l_set) > limit for l_set in fresh[small:])  # closures grow
    settled, final = _lowered(g, s, cuts, key, limit)
    assert settled == list(zip(cuts[:small], fresh[:small]))
    assert len(final) == len(set(final))
    if small < len(cuts):
        assert len(final) == limit + 1 and set(final) <= fresh[small]
    else:
        assert set(final) == fresh[-1]
    return fresh


class TestLoweredFindLoop:
    """One find loop lowered through descending cuts reaches, at every cut,
    the closure a fresh loop at that cut reaches; a limit stops it once |L|
    exceeds the limit."""

    def test_every_lowered_closure_is_the_fresh_one(self):
        rng = random.Random(31)
        graphs = _random_graphs(rng, 40) + [gen_left_regular(200, 150, 6, 1)]
        seen = set()
        for g in graphs:
            n, d = g.n_left, g.d_left
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for weight in (1, 3, rng.randint(0, n)):
                s = syndrome_bits(g, indices_to_mask(rng.sample(range(n), min(n, weight)), n))
                for _ in range(3):
                    levels = range(-2, d + 3)
                    cuts = sorted(rng.sample(levels, rng.randint(1, len(levels))), reverse=True)
                    for key in (None, shuffled):
                        fresh = _check_lowered(g, s, cuts, key, None)
                    seen.add(("cut <= 0", cuts[-1] <= 0))
                    seen.add(("cut > D", cuts[0] > d))
                    seen.add(("several cuts", len(cuts) > 2))
                    seen.add(("grows", len(fresh[0]) < len(fresh[-1])))
                    seen.add(("runaway", any(len(l) == n and h > 0 for h, l in zip(cuts, fresh))))
        assert all((flag, True) in seen for flag, _ in seen), seen

    def test_limit_keeps_a_closure_of_its_size_and_stops_one_past(self):
        rng = random.Random(32)
        graphs = _random_graphs(rng, 30) + [gen_left_regular(200, 150, 6, 1)]
        seen = set()
        for g in graphs:
            n, d = g.n_left, g.d_left
            s = syndrome_bits(g, indices_to_mask(rng.sample(range(n), min(n, 3)), n))
            sizes = sorted({len(_suspects(g, s, h)) for h in range(-1, d + 2)})
            for cuts in (list(range(d + 1, -2, -1)), [1, 0], [0]):
                for size in sizes:
                    for limit in {size, size - 1, 0} - {-1}:
                        for key in (None, range(n - 1, -1, -1)):
                            fresh = _check_lowered(g, s, cuts, key, limit)
                        seen.add(("L = limit", limit in map(len, fresh)))
                        seen.add(("stopped", len(fresh[-1]) > limit))
                        seen.add(("stopped at the first cut", len(fresh[0]) > limit))
        assert all((flag, True) in seen for flag, _ in seen), seen


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 6),
    st.integers(0, 40),
    st.integers(0, 10**6),
    st.integers(0, 2**30 - 1),
    st.lists(st.integers(-2, 8), min_size=1, max_size=8, unique=True),
    st.one_of(st.none(), st.integers(0, 31)),
    st.booleans(),
)
def test_lowering_matches_fresh_loops(n, d, extra, seed, bits, cuts, limit, keyed):
    g = gen_left_regular(n, d + extra, d, seed)
    s = syndrome_bits(g, bits & ((1 << n) - 1))
    _check_lowered(g, s, sorted(cuts, reverse=True), range(n, 0, -1) if keyed else None, limit)


@pytest.fixture
def symbols(monkeypatch) -> list:
    """Grows by the number of symbols of each erasure solve that has one
    solution: the columns the final elimination runs over."""
    counts = []
    solve = decoders._solve

    def recording(pivots, *fixed):
        counts.append(fixed[0].bit_length() - 1)  # fixed[0] is the constant bit
        return solve(pivots, *fixed)

    monkeypatch.setattr(decoders, "_solve", recording)
    return counts


class TestInactivation:
    """The erasure solve makes a symbol at each stall and eliminates over the
    symbols alone; the dense elimination over every erased column left, and
    brute force, are its oracles."""

    def test_matches_dense_elimination_at_scale(self, symbols):
        g = gen_left_regular(200, 150, 6, 1)
        w = Word(200, 0, (1 << 200) - 1)
        got = decode_erasures(g, w)
        assert got == _word_decode_erasures(g, w)
        assert (got.reason, got.path) == ("stalled", "peeling+gauss")

        n = 2000
        g = gen_left_regular(n, 1500, 6, 5)
        c = sample_codeword(g, 1).bits
        rng = random.Random(2)
        for count in (1000, 1100, 1300):
            erased = indices_to_mask(rng.sample(range(n), count), n)
            known = next(b for b in range(n) if not erased >> b & 1)
            for bits, want in ((c, c), (0, 0), (c ^ 1 << known, None)):
                w = Word(n, bits & ~erased, erased)
                del symbols[:]
                got = decode_erasures(g, w)
                assert got == _word_decode_erasures(g, w), (count, want)
                assert got.path == "peeling+gauss"
                if want is None:
                    assert got.reason == "not-a-codeword"
                    continue
                assert got.ok and got.word.bits == want
                # peeling stalls with 801, 994 and 1250 columns left, which
                # the dense system eliminated; 24, 83 and 240 symbols here
                assert len(symbols) == 1 and 2 <= symbols[0] < count // 4

    def test_matches_brute_force_on_tiny_graphs(self, symbols):
        rng = random.Random(21)
        graphs = [
            gen_left_regular(n, rng.randint(d, max(d, n)), d, 4 * n + d)
            for n in range(1, 13)
            for d in (1, 2, 3, 4)
        ]
        graphs += [
            BipartiteGraph(4, 3, 3, ((0, 1, 2),) * 4),  # every column on every check
            BipartiteGraph(5, 2, 0, ((),) * 5),  # no column has a check
        ]
        seen = set()
        for case in range(1500):
            g = graphs[case % len(graphs)]
            n = g.n_left
            erased = rng.getrandbits(n) if case % 3 else (1 << n) - 1
            bits = rng.getrandbits(n) & ~erased
            s = syndrome_bits(g, bits)
            # every e inside the erased mask, tagged with its syndrome above bit n
            hits = []
            columns = [g.left_masks[b] << n | 1 << b for b in mask_to_indices(erased)]
            for tagged in gray_walk(columns):
                if tagged >> n == s:
                    hits.append(tagged & ((1 << n) - 1))
                    if len(hits) == 2:
                        break
            w = Word(n, bits, erased)
            del symbols[:]
            got = decode_erasures(g, w)
            assert got == _word_decode_erasures(g, w), case
            if len(hits) == 1:
                assert got.ok and got.word == Word(n, bits | hits[0]), case
            else:
                assert got.reason == ("not-a-codeword" if not hits else "stalled"), case
            seen.add((got.reason, got.path))
            # peeling stalls at once, and no check has two unknowns to pick
            unknowns = [(rm & erased).bit_count() for rm in g.right_masks]
            seen.add(("stall, no pair", erased != 0 and not any(0 < k < 3 for k in unknowns)))
            seen.add(("a column has no check", erased != 0 and g.d_left == 0))
            if symbols:
                seen.add(("symbols", min(symbols[0], 2)))
        assert {
            (None, "peeling"),
            (None, "peeling+gauss"),
            ("stalled", "peeling+gauss"),
            ("not-a-codeword", "peeling"),
            ("not-a-codeword", "peeling+gauss"),
            ("stall, no pair", True),
            ("symbols", 2),
            ("a column has no check", True),
        } <= seen

    def test_solve_stops_at_full_rank(self, monkeypatch):
        # the symbol elimination stops at k pivots; every class of symbol
        # system must give the dense oracle's reason and path: full rank and
        # consistent (ok), full rank with an inconsistent equation left unread
        # after the k-th pivot (caught by the re-check) or read before it,
        # rank-deficient and consistent (stalled), rank-deficient and
        # inconsistent
        runs = []
        echelon = decoders._echelon

        def recording(rows, limit=None):
            rows = list(rows)
            full = echelon(rows)
            got = echelon(rows, limit)
            assert got == dict(list(full.items())[:limit])
            k = limit
            full_rank = sum(col != k for col in full) == k
            runs.append((full_rank, k not in full, k in got))
            return got

        monkeypatch.setattr(decoders, "_echelon", recording)
        want = {
            (True, True, False): None,
            (True, False, False): "not-a-codeword",  # the row after the k-th pivot
            (True, False, True): "not-a-codeword",
            (False, True, False): "stalled",
            (False, False, True): "not-a-codeword",
        }
        rng = random.Random(3)
        seen = set()
        for case in range(300):
            n = rng.choice((20, 40, 80, 200))
            g = gen_left_regular(n, 3 * n // 4, rng.choice((3, 4, 6)), case)
            c = sample_codeword(g, case).bits
            erased = indices_to_mask(rng.sample(range(n), rng.randint(n // 3, n)), n)
            known = [i for i in range(n) if not erased >> i & 1]
            bits = c ^ (1 << rng.choice(known) if case % 2 and known else 0)
            w = Word(n, bits & ~erased, erased)
            del runs[:]
            got = decode_erasures(g, w)
            assert got == _word_decode_erasures(g, w), case
            if runs:
                assert len(runs) == 1 and got.path == "peeling+gauss", case
                assert got.reason == want[runs[0]], (case, runs[0])
                seen.add(runs[0])
        assert seen == set(want)


class _CountingReads:
    """A read-only sequence that counts every entry read from it."""

    def __init__(self, items, name, reads):
        self._items, self._name, self._reads = items, name, reads

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        self._reads[self._name] += 1
        return self._items[i]

    def __iter__(self):
        for item in self._items:
            self._reads[self._name] += 1
            yield item


def test_decode_reads_follow_the_errors_not_n():
    g = gen_left_regular(8000, 6000, 6, 1)
    reads = Counter()
    for name in ("left_masks", "right_masks", "right_adj"):
        setattr(g, name, _CountingReads(getattr(g, name), name, reads))
    y = Word.from_support(8000, [17, 4242, 7999])
    out = viderman_decode(g, y, ExpanderParams(Fraction(1, 50), Fraction(1, 6)))
    assert out.ok and out.word == Word.zero(8000) and out.corrected == 3
    # one syndrome of y (3 masks), the 18 unsatisfied checks' neighbors, the
    # 3 suspects' masks, the peeled bits and the re-check; no pass over N or M
    assert sum(reads.values()) <= 60, reads


def test_random_order_needs_a_seed():
    g = gen_left_regular(60, 45, 6, 1)
    y = Word.from_support(60, [3, 30])
    cfg = FindConfig.from_delta(Fraction(2, 5))
    with pytest.raises(InvalidParameters):
        find_suspects(g, y, cfg, order="random")
    first = find_suspects(g, y, cfg, order="random", seed=7)
    assert find_suspects(g, y, cfg, order="random", seed=7) == first


def test_guess_runner_erases_each_suspect_set_once(monkeypatch):
    # every poly guess at N = 60 with 6 errors finds L = all 60 > M = 45, so
    # no erasure solve runs (pigeonhole), while each listed guess still counts
    g = gen_left_regular(60, 45, 6, 1)
    y = plant_errors(sample_codeword(g, 1), random.Random(0).sample(range(60), 6))
    params = ExpanderParams(Fraction(1, 50), Fraction(1, 8))
    solves = []
    erase = decoders._erase

    def counted(g, s, erased):
        solves.append(erased.bit_count())
        return erase(g, s, erased)

    monkeypatch.setattr(decoders, "_erase", counted)
    out = guess_expansion_decode_poly(g, y, params)
    assert not out.ok and out.iterations > 1
    assert solves == []
    # two distinct cuts, D and D - 1, settle the same L of one error, at
    # most M: it is erased once; at alpha*N = 3/5 the accept radius is 0, so
    # that solve's candidate is refused, and the second guess only counts
    y = plant_errors(sample_codeword(g, 1), [54])
    params = ExpanderParams(Fraction(1, 100), Fraction(1, 8))
    s, h = syndrome_bits(g, y.bits), g.d_left
    size = len(_suspects(g, s, h))
    assert 0 < size == len(_suspects(g, s, h - 1)) <= g.m_right
    out = decoders._run_expansion_branches(
        g, y, params, "guess-expansion", h, lambda k: h - 1, 0, 1, _index_name
    )
    assert not out.ok and out.iterations == 2
    assert solves == [size]


def test_guess_runner_erases_a_suspect_set_of_exactly_m():
    # the pigeonhole skip starts above M: with N = M = 8 and H invertible
    # (code dimension 0), L = all 8 bits has the unique solution e = y
    g = gen_left_regular(8, 8, 3, 6)
    assert nullspace(g).dimension == 0
    y = Word(8, 0b1011)
    out = decoders._run_expansion_branches(
        g, y, ExpanderParams(Fraction(1), Fraction(1, 8)), "guess-expansion",
        0, lambda k: 0, 0, 0, _index_name,
    )
    assert out.ok and out.word == Word.zero(8) and out.corrected == 3
    assert out.enumeration_index == (None,)


def _index_name(k):
    """A guess name for runner calls that list no ExpansionGuess."""
    return (k,), None


def _scanned_guesses(plain, cut, lo, hi):
    """The (index, cut) guesses of the runner, by a scan of every index: the
    plain cut, then each k in [lo, hi) whose cut differs from the cut at
    k - 1 and from ``plain``, up to the first cut of 0."""
    guesses, last = [(None, plain)], None
    for k in range(lo, hi):
        t = cut(k)
        if t != last and t != plain:
            guesses.append((k, t))
        if t == 0:
            break
        last = t
    return guesses


def _runner_finding_every_cut(g, y, params, algorithm, plain, cut, lo, hi, name):
    """Former _run_expansion_branches, its guesses listed by
    ``_scanned_guesses``. A fresh find loop runs for every guess, to its full
    closure, also below a cut whose L already exceeded M, and ``name`` names
    the accepted guess."""
    guesses = _scanned_guesses(plain, cut, lo, hi)
    n, m = g.n_left, g.m_right
    accept = (1 - 2 * params.eps) / (4 * params.eps) * params.alpha * n
    max_dist = math.floor(accept)
    s = syndrome_bits(g, y.bits)
    tried = set()
    attempts = 0
    for attempts, (k, h) in enumerate(guesses, 1):
        suspects = next(decoders._suspects(g, s, h))
        if len(suspects) > m:
            continue
        l_mask = indices_to_mask(suspects, n)
        if l_mask in tried:
            continue
        tried.add(l_mask)
        e = decoders._erase(g, s, l_mask)[0]
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


def _with_former_runner(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(decoders, "_run_expansion_branches", _runner_finding_every_cut)
        return call()


def _count_finds(monkeypatch, call) -> int:
    cuts = []
    find = decoders._suspects

    def counted(g, s, h, key=None, **kw):
        cuts.append(h)
        return find(g, s, h, key, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(decoders, "_suspects", counted)
        call()
    return len(cuts)


def _settled_cuts(monkeypatch, call) -> list:
    """The cuts at which the find loops of ``call`` reached a closure: every
    L they yield within their limit."""
    cuts = []
    find = decoders._suspects

    def recording(g, s, h, key=None, *, limit=None):
        loop = find(g, s, h, key, limit=limit)
        suspects = next(loop)
        while limit is None or len(suspects) <= limit:
            cuts.append(h)
            h = yield suspects
            suspects = loop.send(h)
        yield suspects

    with monkeypatch.context() as patch:
        patch.setattr(decoders, "_suspects", recording)
        call()
    return cuts


def test_guess_runner_skip_keeps_every_outcome(monkeypatch):
    # L only grows as the cut drops, so one find loop lowered through the
    # cuts, cut short once |L| > M, changes no outcome
    rng = random.Random(21)
    instances = []
    for _ in range(40):
        n = rng.randrange(8, 41)
        m = rng.randrange(max(2, n // 2), n + 1)
        d = rng.randrange(2, min(m, 6) + 1)
        g = gen_left_regular(n, m, d, rng.randrange(1000))
        instances.append((g, rng.randrange(n // 3 + 1)))
    big = gen_left_regular(200, 150, 6, 1)
    instances += [(big, k) for k in (1, 2, 6, 10, 14, 20)]
    skipped, sides = 0, set()
    for g, k in instances:
        n = g.n_left
        y = Word(n, indices_to_mask(rng.sample(range(n), k), n))
        params = ExpanderParams(Fraction(rng.randrange(1, 6), 50),
                                rng.choice((Fraction(1, 8), Fraction(1, 10), Fraction(1, 16))))
        eta = rng.choice((Fraction(1, 2), Fraction(1, 4)))
        for call in (
            lambda: guess_expansion_decode_poly(g, y, params),
            lambda: guess_expansion_decode_grid(g, y, params, eta),
        ):
            assert call() == _with_former_runner(monkeypatch, call), (n, k)
        # random nonincreasing cut lists, with repeats, and the plain cut
        # above, below or among them, so that the walk also meets rising cuts
        cuts = sorted((rng.randrange(g.d_left + 2) for _ in range(rng.randrange(1, 9))),
                      reverse=True)
        plain = rng.randrange(-1, g.d_left + 3)
        sides.add((plain > cuts[0]) - (plain < cuts[-1]))
        args = (g, y, params, "x", plain, cuts.__getitem__, 0, len(cuts), _index_name)
        assert decoders._run_expansion_branches(*args) == (
            _runner_finding_every_cut(*args)), (n, k, plain, cuts)
        skipped += _count_finds(
            monkeypatch, lambda: _runner_finding_every_cut(*args)
        ) - _count_finds(monkeypatch, lambda: decoders._run_expansion_branches(*args))
    assert skipped > 0
    assert sides == {-1, 0, 1}


def test_guess_runner_settles_each_level_down_to_the_lowest_guess(monkeypatch):
    # the one find loop settles every level from the top cut down to the
    # lowest cut of a guess the runner reached, and no level below it; it
    # settles no level from the first one whose L exceeds M
    rng = random.Random(23)
    seen = set()
    for _ in range(80):
        n = rng.randrange(8, 41)
        m = rng.randrange(max(2, n // 2), n + 1)
        d = rng.randrange(2, min(m, 6) + 1)
        g = gen_left_regular(n, m, d, rng.randrange(1000))
        y = Word(n, indices_to_mask(rng.sample(range(n), rng.randrange(n // 3 + 1)), n))
        params = ExpanderParams(Fraction(rng.randrange(1, 6), 20), Fraction(1, 8))
        cuts = sorted((rng.randrange(d + 2) for _ in range(rng.randrange(1, 9))), reverse=True)
        plain = rng.randrange(-1, d + 3)
        args = (g, y, params, "x", plain, cuts.__getitem__, 0, len(cuts), _index_name)
        out = decoders._run_expansion_branches(*args)
        reached = [h for _, h in _scanned_guesses(*args[4:8])][:out.iterations]
        s = syndrome_bits(g, y.bits)
        want = []
        for level in range(max(plain, cuts[0]), min(reached) - 1, -1):
            if len(_suspects(g, s, level)) > m:
                break
            want.append(level)
        assert _settled_cuts(monkeypatch, lambda: decoders._run_expansion_branches(*args)) == (
            want), (n, plain, cuts)
        seen.add(("success", out.ok))
        seen.add(("down to the lowest guess", bool(want) and want[-1] == min(reached)))
        seen.add(("stopped above it", not want or want[-1] > min(reached)))
        seen.add(("several levels", len(want) > 2))
    assert all((flag, True) in seen for flag, _ in seen), seen


def test_grid_accepts_a_cut_above_the_lowered_one(monkeypatch):
    # one error on gen_left_regular(24, 18, 6, 1): the loop settles the top
    # cut 4 (L is the error), is lowered to the plain cut 3 that the grid
    # tries first, and stops there with |L| > M; the next guess, index (2,)
    # at cut 4, reads the L settled before the lowering and succeeds
    g = gen_left_regular(24, 18, 6, 1)
    y = Word(24, 1)
    params = ExpanderParams(Fraction(1, 12), Fraction(1, 8))
    decode = lambda: guess_expansion_decode_grid(g, y, params, Fraction(1, 2))
    out = decode()
    assert out.ok and out.word == Word.zero(24) and out.corrected == 1
    assert (out.enumeration_index, out.iterations, out.guess.branch) == ((2,), 2, "sqrt")
    assert _settled_cuts(monkeypatch, decode) == [4]
    assert _count_finds(monkeypatch, decode) == 1
    assert out == _with_former_runner(monkeypatch, decode)


@pytest.mark.parametrize("algo, n, weights, finds, former", [
    ("grid", 200, (2, 6, 7, 8, 10, 12, 14, 16, 9, 11, 13, 15, 18, 20, 6, 8, 10), 1, 3),
    ("poly", 60, (4, 5, 6), 1, 6),
])
def test_guess_runner_finds_no_cut_below_an_oversized_one(
    monkeypatch, algo, n, weights, finds, former
):
    # the failures of the benchmark's guess workload, on its error sets: each
    # grid failure at N = 200 lists cuts 3, 4, 2, and each poly failure at
    # N = 60 lists cuts 5 down to 0. The one find loop of a decode starts at
    # the top cut (4 and 5), where |L| > M already, so it is never lowered;
    # the former runner found each listed cut afresh
    g = gen_left_regular(n, 3 * n // 4, 6, 1)
    params = ExpanderParams(Fraction(1, 50), Fraction(1, 8))
    if algo == "grid":
        decode = lambda y: guess_expansion_decode_grid(g, y, params, Fraction(1, 2))
    else:
        decode = lambda y: guess_expansion_decode_poly(g, y, params)
    failures = 0
    for j, k in enumerate(weights):
        rng = random.Random(f"guess:errors:{algo}:{n}:{j}")
        y = Word(n, indices_to_mask(rng.sample(range(n), k), n))
        out = decode(y)
        if out.ok:
            assert _count_finds(monkeypatch, lambda: decode(y)) == 1
            continue
        failures += 1
        assert out.reason == "no-candidate"
        assert _count_finds(monkeypatch, lambda: decode(y)) == finds
        assert _settled_cuts(monkeypatch, lambda: decode(y)) == []
        assert _count_finds(
            monkeypatch, lambda: _with_former_runner(monkeypatch, lambda: decode(y))
        ) == former
    assert failures >= len(weights) - 1


@pytest.mark.parametrize("n, m, d, seed", [(8, 5, 3, 0), (10, 6, 3, 1), (12, 9, 3, 2),
                                           (10, 7, 4, 3)])
def test_erase_on_more_columns_than_checks_is_never_unique(n, m, d, seed):
    # pigeonhole, by brute force: for every syndrome and every L with |L| > M
    # the solve fails, so the guess runner may skip it
    g = gen_left_regular(n, m, d, seed)
    sets = [
        indices_to_mask(cols, n)
        for size in range(m + 1, n + 1)
        for cols in itertools.combinations(range(n), size)
    ]
    for s in range(1 << m):
        for erased in sets:
            assert decoders._erase(g, s, erased)[0] is None, (s, erased)
