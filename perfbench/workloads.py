"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
oracle that checks each op's output.

Every call into the package goes through a module attribute looked up when
the op runs (``decoders.viderman_decode(...)``), so a traced run sees it.
Set-up makes the graphs, graph files, codewords and words; an op receives
only these generated inputs. The sizes and why each workload exists are
recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from expander_codes import (
    cli,
    decoders,
    experiments,
    graphs,
    linear_code,
    list_decoding,
)
from expander_codes.decoders import ErasureConfig
from expander_codes.experiments import ExperimentConfig, results_to_csv
from expander_codes.graphs import ExpanderParams
from expander_codes.linear_code import Word

REASONS = ("no-candidate", "radius-exceeded", "not-a-codeword", "stalled")


class CheckFailed(Exception):
    """An op's output broke the oracle."""


@dataclass
class Op:
    """One unit of work: ``run`` makes the call, ``check`` validates its
    result and returns the text that stands for it in digests."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    errors: int = 0  # planted errors, the base of suspects_per_error
    known_defect: Optional[type] = None  # exception the op raises today


def _syndrome(g, bits: int) -> int:
    """The oracle's own syndrome, kept apart from the package's
    ``syndrome_bits`` so that checks neither trust nor trace it."""
    s = 0
    masks = g.left_masks
    while bits:
        low = bits & -bits
        s ^= masks[low.bit_length() - 1]
        bits ^= low
    return s


def _error_mask(rng: random.Random, n: int, k: int) -> int:
    mask = 0
    for i in rng.sample(range(n), k):
        mask |= 1 << i
    return mask


def _decoded(g, word: Word, planted: Word, must_recover: bool):
    """Oracle for a DecodeOutcome on ``word``, made from ``planted``."""

    def check(out) -> str:
        recovered = False
        if out.status == "success":
            w = out.word
            if w is None or w.n != g.n_left or w.has_erasures:
                raise CheckFailed("success without a full word")
            if _syndrome(g, w.bits):
                raise CheckFailed("success word has a nonzero syndrome")
            if word.has_erasures:
                if (w.bits ^ word.bits) & ~word.erasures:
                    raise CheckFailed("erasure decoding changed a known bit")
                dist = word.erasures.bit_count()
            else:
                dist = (w.bits ^ word.bits).bit_count()
            if out.radius is not None and dist > out.radius:
                raise CheckFailed(f"success at distance {dist} > radius {out.radius}")
            if out.corrected != dist:
                raise CheckFailed(f"corrected={out.corrected}, distance is {dist}")
            recovered = w.bits == planted.bits
        elif out.status != "failure" or out.reason not in REASONS:
            raise CheckFailed(f"outcome {out.status}/{out.reason}")
        if must_recover and not recovered:
            raise CheckFailed("planted codeword not recovered")
        return (
            f"{out.algorithm} {out.status} {out.reason} corrected={out.corrected} "
            f"iterations={out.iterations} recovered={int(recovered)}"
        )

    return check


# -- sweep ---------------------------------------------------------------------

SWEEP_N, SWEEP_M, SWEEP_D = 512, 384, 6
SWEEP_ALPHA, SWEEP_EPS = Fraction(1, 50), Fraction(1, 6)
# (algorithm, error model, radii, radii whose trial must recover the codeword).
# Viderman failures under uniform-random-set, radius 20 and up, are the
# dearest trials (40-55 ms); four of them are the top four of the 21 ops, so
# that the 90th percentile (rank 19.8) falls among them.
SWEEP_CELLS = (
    ("viderman", "uniform-random-set", (2, 5, 10, 20, 30, 40, 60), (2,)),
    ("ss-flip", "uniform-random-set", (2, 10, 20, 40, 80), (2,)),
    ("erasure", "uniform-random-set", (10, 60, 120, 180, 240), (10,)),
    ("viderman", "low-expansion-greedy", (2, 5, 10, 20), ()),
)


def _sweep_check(cfg: ExperimentConfig, n: int, must_recover: bool):
    def check(rows) -> str:
        if len(rows) != 1:
            raise CheckFailed(f"{len(rows)} rows for one trial")
        row = rows[0]
        if (row.algorithm, row.n, row.radius, row.errors) != (
            cfg.algorithm, n, cfg.radius_from, cfg.radius_from
        ):
            raise CheckFailed(f"row does not match its cell: {row}")
        if row.status != "success" and row.status.removeprefix("failure:") not in REASONS:
            raise CheckFailed(f"status {row.status!r}")
        if row.recovered and row.status != "success":
            raise CheckFailed("recovered on a failed trial")
        if must_recover and not row.recovered:
            raise CheckFailed("planted codeword not recovered")
        if row.wall_time != 0.0:
            raise CheckFailed("wall_time set without measure_time")
        return results_to_csv(rows)

    return check


def sweep(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"sweep:{seed}")
    g = graphs.gen_left_regular(SWEEP_N, SWEEP_M, SWEEP_D, rng.getrandbits(32))
    ops = []
    for algo, model, radii, must in SWEEP_CELLS:
        for r in radii:
            cfg = ExperimentConfig(
                algorithm=algo, radius_from=r, radius_to=r, trials=1,
                model=model, seed=rng.getrandbits(32),
                alpha=SWEEP_ALPHA, eps=SWEEP_EPS,
            )
            ops.append(Op(
                f"sweep {algo} {model} r={r}",
                lambda cfg=cfg: experiments.sweep(cfg, g),
                _sweep_check(cfg, SWEEP_N, r in must),
                errors=r,
            ))
    return ops


# -- decode --------------------------------------------------------------------

DECODE_N, DECODE_M, DECODE_D = 2000, 1500, 6
DECODE_PARAMS = ExpanderParams(Fraction(1, 50), Fraction(1, 6))
# (decoder, error weights, weights that must recover the codeword). The
# weights place a block of same-cost ops at the median (19 viderman and
# find-erase successes) and at the 90th percentile: of the 34 ops, the six
# no-candidate failures at 80, 90 and 100 errors are the top six, and the
# 90th percentile (rank 31.5) is the middle of them, so it does not hang
# on the cost of a single op.
DECODE_MIX = (
    ("viderman", (3, 5, 8, 10, 12, 15, 20, 25, 30, 35, 80, 90, 100), (3, 10)),
    ("find-erase", (3, 5, 8, 10, 12, 15, 20, 25, 30, 80, 90, 100), (3, 10)),
    ("ss-flip", (3, 10, 40, 80, 200), (3, 10)),
    ("erasure", (10, 400, 1000), (10,)),
    ("erasure-capped", (1000,), ()),
)


def decode(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"decode:{seed}")
    g = graphs.gen_left_regular(DECODE_N, DECODE_M, DECODE_D, rng.getrandbits(32))
    planted = [linear_code.sample_codeword(g, rng.getrandbits(32)) for _ in range(2)]
    p = DECODE_PARAMS
    cap = ErasureConfig.from_params(p)
    calls = {
        "viderman": lambda w: decoders.viderman_decode(g, w, p),
        "find-erase": lambda w: decoders.fixed_find_and_decode(g, w, p),
        "ss-flip": lambda w: decoders.flip_decode_ss(g, w, eps=p.eps),
        "erasure": lambda w: decoders.decode_erasures(g, w),
        "erasure-capped": lambda w: decoders.decode_erasures(g, w, cap),
    }
    ops = []
    for algo, weights, must in DECODE_MIX:
        for k in weights:
            c = planted[len(ops) % 2]
            mask = _error_mask(rng, DECODE_N, k)
            if algo.startswith("erasure"):
                word = Word(DECODE_N, c.bits & ~mask, mask)
            else:
                word = Word(DECODE_N, c.bits ^ mask)
            ops.append(Op(
                f"{algo} w={k}",
                lambda call=calls[algo], word=word: call(word),
                _decoded(g, word, c, k in must),
                errors=k,
            ))
    return ops


# -- guess ---------------------------------------------------------------------

GUESS_ALPHA = Fraction(1, 50)
GUESS_EXP = ExpanderParams(GUESS_ALPHA, Fraction(1, 8))  # guess-expansion
GUESS_FLIP = ExpanderParams(GUESS_ALPHA, Fraction(1, 6))  # guess-flip
GUESS_BETA = Fraction(1, 12)  # largest beta with eps <= 1/4 - beta
GUESS_ETA = Fraction(1, 100)  # scaled guess-flip
GRID_ETA = Fraction(1, 2)  # grid step eta' (eta = eps * eta')
GUESS_GRAPH_SEED = 1
DEFECT_BETA = Fraction(1, 1000)  # schedule depth ell = 1099 > recursion limit
# (decoder, N, error weights, weights that must recover the codeword). A
# repeated weight is a fresh error set. Every decoder has success and
# failure cases. Of the 29 ops, 16 grid failures and a guess-flip failure
# at N=200 hold the median (rank 15). The three poly failures at N=60 and
# the scaled guess-flip failure, 60-100 ms each, lie just under the known
# defect, so that the 90th percentile (rank 27) falls among them. Poly
# fails at N=60 for any weight; a poly failure takes 0.2-0.25 s at N=100
# and 0.65-1 s at N=200, too long an op to time steadily on a shared
# machine, so those are left out. Failure weights were chosen by weight alone:
# guess-flip at N=200 fails in tens of ms with 6 errors, but 8-error sets
# take from 0.02 s to seconds and 10 errors and up take seconds (README.md).
GUESS_MIX = (
    ("poly", 60, (4, 5, 6), ()),
    ("poly", 100, (1,), (1,)),
    ("poly", 200, (1,), (1,)),
    ("grid", 100, (1,), (1,)),
    ("grid", 200, (2, 6, 7, 8, 10, 12, 14, 16, 9, 11, 13, 15, 18, 20, 6, 8, 10), ()),
    ("flip", 100, (1,), (1,)),
    ("flip", 200, (2, 6), ()),
    ("scaled-flip", 200, (2, 6), ()),
    ("flip-deep", 60, (3,), ()),
)


def guess(seed: int, workdir: Path) -> list[Op]:
    # The cost of an enumeration, above all of the guess-flip DFS, depends on
    # the graph and the error set, and not on the codeword: decoders see a
    # word only through its syndrome. Graphs and error sets are therefore
    # fixed (graph seed GUESS_GRAPH_SEED, each error set seeded by its place
    # in GUESS_MIX), and the seed draws the planted codewords, so every seed
    # makes new words at one cost.
    rng = random.Random(f"guess:{seed}")
    codes = {}
    for n in (60, 100, 200):
        g = graphs.gen_left_regular(n, 3 * n // 4, 6, GUESS_GRAPH_SEED)
        codes[n] = (g, linear_code.sample_codeword(g, rng.getrandbits(32)))
    calls = {
        "poly": lambda g, w: decoders.guess_expansion_decode_poly(g, w, GUESS_EXP),
        "grid": lambda g, w: decoders.guess_expansion_decode_grid(
            g, w, GUESS_EXP, GRID_ETA),
        "flip": lambda g, w: decoders.guess_flip_decode(g, w, GUESS_FLIP, GUESS_BETA),
        "scaled-flip": lambda g, w: decoders.scaled_guess_flip_decode(
            g, w, GUESS_FLIP, GUESS_ETA),
        "flip-deep": lambda g, w: decoders.guess_flip_decode(
            g, w, GUESS_FLIP, DEFECT_BETA),
    }
    ops = []
    for algo, n, weights, must in GUESS_MIX:
        g, c = codes[n]
        for j, k in enumerate(weights):
            errors = random.Random(f"guess:errors:{algo}:{n}:{j}")
            word = Word(n, c.bits ^ _error_mask(errors, n, k))
            ops.append(Op(
                f"{algo} N={n} w={k}",
                lambda call=calls[algo], g=g, word=word: call(g, word),
                _decoded(g, word, c, k in must),
                errors=k,
                known_defect=RecursionError if algo == "flip-deep" else None,
            ))
    return ops


# -- certify -------------------------------------------------------------------

# (name, N, M) of the graph files; D = 6 throughout. A code on N bits with
# M checks of even left degree has dimension N - M + 1 (all rows sum to 0).
CERTIFY_GRAPHS = (
    ("p24", 24, 18), ("p32", 32, 24), ("p36", 36, 27), ("q36", 36, 27),
    ("d26", 26, 12), ("d30", 30, 13), ("d32", 32, 14), ("d28", 28, 12),
)
# (graph, argv after the subcommand's --graph, expected exit code). Of the
# 19 ops, the ten ~40 ms ops (profile p24, distance d30, list+tau) hold the
# median (rank 10), and the three N=36 exhaustive enumerations and distance
# d32, ~75 ms each, are the top four, so that the 90th percentile (rank 18)
# falls among them.
CERTIFY_CLI = (
    ("p24", ["verify", "--alpha", "1/6", "--eps", "5/12"], 0),
    ("p32", ["verify", "--alpha", "1/8", "--eps", "5/12"], 0),
    ("p36", ["verify", "--alpha", "1/7", "--eps", "1/3"], 0),
    ("p24", ["profile", "--smax", "6"], 0),
    ("p32", ["profile", "--smax", "4"], 0),
    ("p36", ["profile", "--smax", "5"], 0),
    ("q36", ["profile", "--smax", "5"], 0),
    ("d26", ["distance"], 0),
    ("d30", ["distance"], 0),
    ("d32", ["distance"], 0),
    ("d26", ["distance", "--budget", "12"], 2),  # dimension 15 > budget
)
LIST_RADIUS = 4
LIST_ERRORS = (1, 2, 3, 1, 2, 3, 2, 3)


def _cli_check(g, argv, expected: int):
    command = argv[0]

    def check(result) -> str:
        code, out, err = result
        if code != expected:
            raise CheckFailed(f"exit code {code}, expected {expected}: {err.strip()}")
        if expected == 2:
            if out or not err.startswith("error: "):
                raise CheckFailed("exit 2 without exactly one error line")
            return f"exit 2 {err}"
        if command == "verify":
            if not out.startswith(("PASS (exhaustive)", "FAIL (exhaustive)")):
                raise CheckFailed(f"verify printed {out!r}")
        elif command == "profile":
            lines = out.splitlines()
            minima = [int(line.split(",")[1]) for line in lines[1:]]
            if lines[0] != "size,min_neighbors,expansion_ratio,witness,mode":
                raise CheckFailed("profile CSV header")
            if minima[0] != g.d_left or minima != sorted(minima):
                raise CheckFailed(f"profile minima {minima} not monotone from D")
        elif command == "distance":
            head = out.splitlines()[0].split()
            distance, witness = int(head[1]), linear_code.parse_word(head[3])
            if witness.weight() != distance or _syndrome(g, witness.bits):
                raise CheckFailed(f"witness {head[3]} is not a weight-{distance} codeword")
        return f"exit {code} {out}"

    return check


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _list_and_tau(g, y: Word):
    found = list_decoding.enumerate_list(g, y, LIST_RADIUS)
    return found, list_decoding.tau_profile(g, y, found)


def _list_check(g, y: Word, planted: Word):
    def check(result) -> str:
        found, tau = result
        bits = [w.bits for w in found]
        if planted.bits not in bits or bits != sorted(set(bits)):
            raise CheckFailed("list misses the planted codeword or is unsorted")
        dists = [(b ^ y.bits).bit_count() for b in bits]
        if max(dists) > LIST_RADIUS or any(_syndrome(g, b) for b in bits):
            raise CheckFailed("list holds a non-codeword or a word beyond the radius")
        if tau.list_size != len(bits) or tau.sum_tau != sum(dists):
            raise CheckFailed("tau profile disagrees with the list")
        if not tau.gamma_odd_consistent:
            raise CheckFailed("odd-neighbor sets differ across the list")
        return (
            f"list {[hex(b) for b in bits]} tau {tau.tau} heavy {tau.heavy} "
            f"triples {tau.triple_count} d_min {tau.d_min}"
        )

    return check


def certify(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    loaded = {}
    for name, n, m in CERTIFY_GRAPHS:
        g = graphs.gen_left_regular(n, m, 6, rng.getrandbits(32))
        path = workdir / f"{name}.txt"
        path.write_text(graphs.store(g))
        loaded[name] = (g, str(path))
    ops = []
    for name, args, code in CERTIFY_CLI:
        g, path = loaded[name]
        argv = [args[0], "--graph", path, *args[1:]]
        ops.append(Op(
            f"cli {' '.join(args)} {name}",
            lambda argv=argv: _run_cli(argv),
            _cli_check(g, argv, code),
        ))
    g, _ = loaded["d28"]
    c = linear_code.sample_codeword(g, rng.getrandbits(32))
    for k in LIST_ERRORS:
        y = Word(g.n_left, c.bits ^ _error_mask(rng, g.n_left, k))
        ops.append(Op(
            f"list+tau d28 w={k}",
            lambda y=y: _list_and_tau(g, y),
            _list_check(g, y, c),
            errors=k,
        ))
    return ops


WORKLOADS = {"sweep": sweep, "decode": decode, "guess": guess, "certify": certify}
