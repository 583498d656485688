"""Layer spans for the benchmark, recorded from outside the package.

``Tracer.install`` rebinds every module attribute of ``expander_codes`` that
holds a traced function to a wrapper that records a span around the call.
The package resolves these names at call time (``decoders`` calls its own
``find_suspects``, ``cli`` calls the ``load`` it imported), so the nested
calls between layers are traced too. ``uninstall`` puts the originals back.

A span is ``[name, parent, start, end, info]``; ``parent`` is the index of
the enclosing span, or -1 for a root span (one op, or the set-up). ``info`` holds the
counts a hook derived from the call's arguments and returned value.
"""

from __future__ import annotations

import math
import sys
import time

clock = time.perf_counter

ROOT = "op"


def _suspects(args, result, idx, spans):
    return {"suspects": result.size}


def _erasures(args, result, idx, spans):
    return {"gauss": int("gauss" in result.path)}


def _rounds(args, result, idx, spans):
    return {"rounds": result.iterations}


def _dfs_nodes(args, result, idx, spans):
    return {"dfs_nodes": result.iterations}


def _attempts(args, result, idx, spans):
    return {"attempts": result.iterations}


def poly_branches(n: int, m: int, d: int, stop=None) -> int:
    """Consistent guesses (i, j), 1 <= j <= min(M, D*i), in the decoder's
    order (i ascending, j descending), up to and including ``stop``."""
    total = 0
    for i in range(1, n + 1):
        top = min(m, d * i)
        if stop is not None and i == stop[0]:
            return total + top - stop[1] + 1
        total += top
    return total


def _poly(args, result, idx, spans):
    g = args[0]
    stop = result.enumeration_index if result.ok else None
    return {
        "attempts": result.iterations,
        "branches": poly_branches(g.n_left, g.m_right, g.d_left, stop),
    }


def _nullspace(args, result, idx, spans):
    return {"dim": result.dimension}


def _child_dim(idx, spans) -> int:
    for rec in spans[idx + 1:]:
        if rec[1] == idx and rec[0] == "linear_code.nullspace":
            return rec[4]["dim"]
    raise LookupError("no nullspace call under this span")


def _walked(args, result, idx, spans):
    return {"codewords": 1 << _child_dim(idx, spans)}


def _profile(args, result, idx, spans):
    g, s_max = args[0], args[1]
    if result.mode == "sampled":
        return {"subsets": result.trials * s_max}
    return {"subsets": sum(math.comb(g.n_left, s) for s in range(1, s_max + 1))}


# span name -> (module, function, hook deriving counts from the call)
TARGETS = {
    "graphs.gen": ("graphs", "gen_left_regular", None),
    "graphs.load": ("graphs", "load", None),
    "linear_code.nullspace": ("linear_code", "nullspace", _nullspace),
    "linear_code.syndrome_bits": ("linear_code", "syndrome_bits", None),
    "linear_code.sample_codeword": ("linear_code", "sample_codeword", None),
    "linear_code.min_distance_bruteforce": (
        "linear_code", "min_distance_bruteforce", _walked),
    "decoders.find_suspects": ("decoders", "find_suspects", _suspects),
    "decoders.decode_erasures": ("decoders", "decode_erasures", _erasures),
    "decoders.flip_decode_ss": ("decoders", "flip_decode_ss", _rounds),
    "decoders.viderman_decode": ("decoders", "viderman_decode", None),
    "decoders.fixed_find_and_decode": ("decoders", "fixed_find_and_decode", None),
    "decoders.guess_flip_decode": ("decoders", "guess_flip_decode", _dfs_nodes),
    "decoders.scaled_guess_flip_decode": (
        "decoders", "scaled_guess_flip_decode", None),
    "decoders.guess_expansion_decode_poly": (
        "decoders", "guess_expansion_decode_poly", _poly),
    "decoders.guess_expansion_decode_grid": (
        "decoders", "guess_expansion_decode_grid", _attempts),
    "expansion.measure_profile": ("expansion", "measure_profile", _profile),
    "expansion.verify_expander": ("expansion", "verify_expander", None),
    "experiments.sweep": ("experiments", "sweep", None),
    "list_decoding.enumerate_list": ("list_decoding", "enumerate_list", _walked),
    "list_decoding.tau_profile": ("list_decoding", "tau_profile", None),
    "cli.main": ("cli", "main", None),
}


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == "expander_codes" or name.startswith("expander_codes."))
    ]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, (mod_name, attr, hook) in TARGETS.items():
            orig = getattr(sys.modules["expander_codes." + mod_name], attr)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def _wrap(self, name, fn, hook):
        spans = self.spans
        open_ = self._open

        def traced(*args, **kwargs):
            rec = [name, open_[-1], clock(), 0.0, None]
            idx = len(spans)
            spans.append(rec)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                open_.pop()
            if hook is not None:
                rec[4] = hook(args, result, idx, spans)
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self, fn, name: str = ROOT):
        """Run ``fn`` under a root span; returns its result or raises."""
        rec = [name, -1, clock(), 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn()
        finally:
            rec[3] = clock()
            # a span whose bookkeeping a RecursionError cut short must not
            # become the parent of the next op's spans
            self._open.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [rec[3] - rec[2] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            own[rec[1]] -= rec[3] - rec[2]
    return own


def check_spans(spans, tol: float = 1e-6) -> list[str]:
    """Problems with a span list: a child outside its parent, overlapping
    siblings, negative self time, or an op whose self times do not add up
    to its own duration."""
    problems = []
    own = self_times(spans)
    root_of = [0] * len(spans)
    last_end = {}
    per_op = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            root_of[i] = i
        else:
            p = spans[parent]
            if not (p[2] <= start and end <= p[3]):
                problems.append(f"span {i} {name} lies outside its parent {p[0]}")
            if start < last_end.get(parent, start):
                problems.append(f"span {i} {name} overlaps a sibling")
            last_end[parent] = end
            root_of[i] = root_of[parent]
        if own[i] < -tol:
            problems.append(f"span {i} {name} has self time {own[i]:.3g} s")
        per_op[root_of[i]] = per_op.get(root_of[i], 0.0) + own[i]
    for r, total in per_op.items():
        duration = spans[r][3] - spans[r][2]
        if abs(total - duration) > tol:
            problems.append(
                f"op span {r}: self times add to {total:.9f} s, span is {duration:.9f} s"
            )
    return problems


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, and the hook counts summed."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        entry = out.setdefault(rec[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        if rec[4]:
            for key, value in rec[4].items():
                entry[key] = entry.get(key, 0) + value
    return out
