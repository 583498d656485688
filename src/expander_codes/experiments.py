"""Reproducible decoding experiments: error injection, radius sweeps with CSV
output, and the closed-form radius comparison table."""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ._util import as_fraction, indices_to_mask
from .decoders import (
    DecodeOutcome,
    decode_erasures,
    fixed_find_and_decode,
    flip_decode_ss,
    guess_expansion_decode_grid,
    guess_expansion_decode_poly,
    guess_flip_decode,
    scaled_guess_flip_decode,
    viderman_decode,
)
from .errors import BudgetExceeded, InvalidParameters
from .graphs import BipartiteGraph, ExpanderParams
from .linear_code import Word

__all__ = [
    "ERROR_MODELS",
    "DECODER_NAMES",
    "iter_error_patterns",
    "ExperimentConfig",
    "TrialResult",
    "CSV_COLUMNS",
    "trial_seed",
    "dispatch_decode",
    "run_trial",
    "sweep",
    "results_to_csv",
    "RadiiReport",
    "report_radii",
    "format_radii_table",
]

ERROR_MODELS = ("uniform-random-set", "low-expansion-greedy", "exhaustive")


def _needs(value, message: str):
    """``value``, or InvalidParameters when a decoder's argument is missing."""
    if value is None:
        raise InvalidParameters(message)
    return value


# name -> decode(cfg, g, word). Required arguments are checked before
# cfg.params(), which has its own message for missing alpha and eps.
_DECODERS = {
    "find-erase": lambda cfg, g, word: fixed_find_and_decode(g, word, cfg.params()),
    "erasure": lambda cfg, g, word: decode_erasures(g, word),
    "ss-flip": lambda cfg, g, word: flip_decode_ss(
        g, word, cfg.threshold_fraction, eps=cfg.eps),
    "viderman": lambda cfg, g, word: viderman_decode(g, word, cfg.params()),
    "guess-flip": lambda cfg, g, word: guess_flip_decode(
        g, word, beta=_needs(cfg.beta, "guess-flip needs beta"),
        params=cfg.params()),
    "guess-flip-scaled": lambda cfg, g, word: scaled_guess_flip_decode(
        g, word, eta=_needs(cfg.eta, "guess-flip-scaled needs eta"),
        params=cfg.params()),
    "guess-expansion": lambda cfg, g, word: guess_expansion_decode_poly(
        g, word, cfg.params(), slack=cfg.slack),
    "guess-expansion-grid": lambda cfg, g, word: guess_expansion_decode_grid(
        g, word, eta_prime=_needs(cfg.eta, "guess-expansion-grid needs eta (eta_prime)"),
        params=cfg.params()),
}

DECODER_NAMES = tuple(_DECODERS)


def _greedy_low_expansion_set(g: BipartiteGraph, size: int) -> tuple[int, ...]:
    """Grow a set adding, at each step, the first vertex (ascending index)
    whose marginal new-neighbor count is minimal."""
    d = g.d_left
    gain = [d] * g.n_left  # per vertex, its checks not yet covered
    covered = [False] * g.m_right
    chosen: list[int] = []
    for _ in range(size):
        best = min(range(g.n_left), key=gain.__getitem__)
        chosen.append(best)
        for c in g.adj[best]:
            if not covered[c]:
                covered[c] = True
                for u in g.right_adj[c]:
                    gain[u] -= 1
        gain[best] = d + 1  # all its checks are covered, so no later update reaches it
    return tuple(sorted(chosen))


def _error_set(g: BipartiteGraph, model: str, radius: int, seed: int) -> tuple[int, ...]:
    """The ascending size-``radius`` error set a sampled model picks."""
    if model == "uniform-random-set":
        return tuple(sorted(random.Random(seed).sample(range(g.n_left), radius)))
    if model == "low-expansion-greedy":
        return _greedy_low_expansion_set(g, radius)
    raise InvalidParameters(
        f"unknown model {model!r} (exhaustive patterns come from iter_error_patterns)"
    )


def iter_error_patterns(
    n: int, radius: int, budget: int = 1 << 26
) -> Iterator[tuple[int, ...]]:
    """All size-``radius`` index sets in lexicographic order."""
    if n < 0 or radius < 0:
        raise InvalidParameters(f"need n >= 0 and radius >= 0, got {n}, {radius}")
    cost = math.comb(n, radius)
    if cost > budget:
        raise BudgetExceeded(
            f"exhaustive model needs {cost} patterns > budget {budget}",
            required=cost,
        )
    return itertools.combinations(range(n), radius)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: an algorithm, a radius range, and trial counts per radius.

    Per-trial randomness derives from (seed, radius, trial) so reruns are
    byte-identical; measured wall time is recorded only when ``measure_time``
    is set, otherwise the column holds 0.0 to keep the CSV reproducible.
    """

    algorithm: str
    radius_from: int
    radius_to: int
    radius_step: int = 1
    trials: int = 10
    model: str = "uniform-random-set"
    seed: int = 0
    alpha: Optional[Fraction] = None
    eps: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    eta: Optional[Fraction] = None
    slack: Fraction = Fraction(0)
    threshold_fraction: Optional[Fraction] = None
    measure_time: bool = False
    budget: int = 1 << 26

    def __post_init__(self):
        if self.algorithm not in DECODER_NAMES:
            raise InvalidParameters(f"unknown algorithm {self.algorithm!r}")
        if self.model not in ERROR_MODELS:
            raise InvalidParameters(f"unknown model {self.model!r}")
        if self.radius_from < 0 or self.radius_to < self.radius_from:
            raise InvalidParameters("need 0 <= radius_from <= radius_to")
        if self.radius_step < 1:
            raise InvalidParameters("radius_step must be >= 1")
        if self.trials < 1:
            raise InvalidParameters("trials must be >= 1")
        for name in ("alpha", "eps", "beta", "eta", "threshold_fraction"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_fraction(v))
        object.__setattr__(self, "slack", as_fraction(self.slack))

    def params(self) -> ExpanderParams:
        if self.alpha is None or self.eps is None:
            raise InvalidParameters(
                f"algorithm {self.algorithm!r} needs alpha and eps"
            )
        return ExpanderParams(self.alpha, self.eps)


@dataclass(frozen=True)
class TrialResult:
    algorithm: str
    n: int
    m: int
    d: int
    alpha: Optional[Fraction]
    eps: Optional[Fraction]
    radius: int
    trial: int
    errors: int
    status: str
    recovered: bool
    iterations: int
    wall_time: float


CSV_COLUMNS = tuple(f.name for f in fields(TrialResult))


def trial_seed(master: int, radius: int, trial: int) -> int:
    """Stable 64-bit per-trial seed derived from (master, radius, trial)."""
    digest = hashlib.sha256(f"{master}:{radius}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def dispatch_decode(cfg: ExperimentConfig, g: BipartiteGraph, word: Word) -> DecodeOutcome:
    return _DECODERS[cfg.algorithm](cfg, g, word)


def run_trial(
    cfg: ExperimentConfig,
    g: BipartiteGraph,
    radius: int,
    trial: int,
    errors: Iterable[int],
) -> TrialResult:
    """Decode the planted error pattern on the zero word.

    A decoder sees a word only through its syndrome and the weight of its
    distance to a candidate, so decoding c XOR e for a codeword c gives the
    outcome for e shifted by c: the trial needs no codeword, and ``recovered``
    means the zero word came back.
    """
    err_mask = indices_to_mask(errors, g.n_left)
    if cfg.algorithm == "erasure":
        word = Word(g.n_left, 0, err_mask)
    else:
        word = Word(g.n_left, err_mask)
    start = time.perf_counter()
    out = dispatch_decode(cfg, g, word)
    elapsed = time.perf_counter() - start if cfg.measure_time else 0.0
    status = out.status if out.ok else f"failure:{out.reason}"
    recovered = bool(out.ok and out.word is not None and out.word.bits == 0)
    return TrialResult(
        algorithm=cfg.algorithm,
        n=g.n_left,
        m=g.m_right,
        d=g.d_left,
        alpha=cfg.alpha,
        eps=cfg.eps,
        radius=radius,
        trial=trial,
        errors=err_mask.bit_count(),
        status=status,
        recovered=recovered,
        iterations=out.iterations,
        wall_time=elapsed,
    )


def sweep(cfg: ExperimentConfig, g: BipartiteGraph) -> list[TrialResult]:
    """Run the configured sweep; rows come back in (radius, trial) order.
    ``cfg.budget`` bounds each radius's patterns, or a sampled model's trials."""
    if cfg.radius_to > g.n_left:
        raise InvalidParameters(
            f"radius_to {cfg.radius_to} exceeds N = {g.n_left}"
        )
    if cfg.model != "exhaustive" and cfg.trials > cfg.budget:
        raise BudgetExceeded(
            f"{cfg.model} model needs {cfg.trials} trials > budget {cfg.budget}",
            required=cfg.trials,
        )
    radii = range(cfg.radius_from, cfg.radius_to + 1, cfg.radius_step)
    if cfg.model == "exhaustive":
        for radius in radii:  # refuse an over-budget radius before any decode
            iter_error_patterns(g.n_left, radius, cfg.budget)
    results: list[TrialResult] = []
    for radius in radii:
        if cfg.model == "exhaustive":
            patterns = iter_error_patterns(g.n_left, radius, cfg.budget)
            for trial, errs in enumerate(patterns):
                results.append(run_trial(cfg, g, radius, trial, errs))
        else:
            for trial in range(cfg.trials):
                seed = trial_seed(cfg.seed, radius, trial)
                errs = _error_set(g, cfg.model, radius, seed)
                results.append(run_trial(cfg, g, radius, trial, errs))
    return results


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_to_csv(results: Iterable[TrialResult]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in results:
        out.write(",".join(_csv_cell(getattr(r, c)) for c in CSV_COLUMNS) + "\n")
    return out.getvalue()


# -- closed-form radius table --------------------------------------------------


@dataclass(frozen=True)
class RadiiReport:
    """Distance and decoding radii as fractions of N, by eps regime.

    ``new_exact`` is None exactly when the regime formula is irrational
    ((sqrt(2)-1)/(2 eps) * alpha, small-eps regime); ``new_value`` is always
    the float value. ``prior`` is the find-and-erase baseline, defined for
    eps < 1/3.
    """

    alpha: Fraction
    eps: Fraction
    distance: Fraction
    prior: Optional[Fraction]
    regime: str
    formula: str
    new_exact: Optional[Fraction]
    new_value: Optional[float]


def report_radii(alpha, eps) -> RadiiReport:
    alpha = as_fraction(alpha)
    eps = as_fraction(eps)
    if not 0 < alpha <= 1:
        raise InvalidParameters(f"alpha must be in (0, 1], got {alpha}")
    if not 0 < eps < Fraction(1, 2):
        raise InvalidParameters(f"eps must be in (0, 1/2), got {eps}")
    if float(eps) == 0 or alpha / eps > sys.float_info.max:
        raise InvalidParameters("eps and alpha/eps must be within the float range")
    distance = alpha / (2 * eps)
    prior = (1 - 3 * eps) / (1 - 2 * eps) * alpha if eps < Fraction(1, 3) else None
    # eps < (3 - 2*sqrt(2))/2  <=>  (3 - 2*eps)^2 > 8, decided exactly
    t = 3 - 2 * eps
    if t * t > 8:
        regime = "eps < (3-2*sqrt(2))/2"
        formula = "(sqrt(2)-1)/(2*eps)*alpha"
        exact = None
        value = (math.sqrt(2) - 1) / (2 * float(eps)) * float(alpha)
    elif eps < Fraction(1, 8):
        regime = "(3-2*sqrt(2))/2 <= eps < 1/8"
        formula = "(1-2*eps)/(4*eps)*alpha"
        exact = (1 - 2 * eps) / (4 * eps) * alpha
        value = float(exact)
    elif eps < Fraction(1, 4):
        regime = "1/8 <= eps < 1/4"
        formula = "3/(16*eps)*alpha"
        exact = Fraction(3) / (16 * eps) * alpha
        value = float(exact)
    else:
        regime = "eps >= 1/4"
        formula = "(none)"
        exact = None
        value = None
    return RadiiReport(alpha, eps, distance, prior, regime, formula, exact, value)


def format_radii_table(report: RadiiReport) -> str:
    lines = [
        f"alpha = {report.alpha}, eps = {report.eps}  (regime: {report.regime})",
        f"  distance / N:          {report.distance} = {float(report.distance):.6g}",
    ]
    if report.prior is not None:
        lines.append(
            f"  prior radius / N:      {report.prior} = {float(report.prior):.6g}"
        )
    else:
        lines.append("  prior radius / N:      (undefined for eps >= 1/3)")
    if report.new_value is not None:
        exact = str(report.new_exact) if report.new_exact is not None else report.formula
        lines.append(f"  this-work radius / N:  {exact} = {report.new_value:.6g}")
    else:
        lines.append("  this-work radius / N:  (no improvement regime)")
    return "\n".join(lines) + "\n"
