"""Command-line front end.

Subcommands: gen, verify, profile, distance, decode, sweep, list-radius,
report-radii. Exit codes:

- 0: success;
- 1: the decode subcommand ran but failed to decode;
- 2: invalid input (bad arguments, parameters, files or words) or any other
  typed refusal, such as an exceeded budget or a non-converged bisection;
- 3: an internal error, reported as one ``error: internal:`` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from ._util import as_fraction
from .errors import ExpanderCodeError
from .expansion import measure_profile, profile_to_csv, verify_expander
from .experiments import (
    DECODER_NAMES,
    ERROR_MODELS,
    ExperimentConfig,
    format_radii_table,
    report_radii,
    results_to_csv,
    sweep,
    dispatch_decode,
)
from .graphs import (
    ExpanderParams,
    gen_biregular,
    gen_left_regular,
    load,
    store,
)
from .linear_code import (
    distance_lower_bound,
    min_distance_bruteforce,
    nullspace,
    parse_word,
)
from .list_decoding import improved_radius, johnson_radius


def _frac(text: str) -> Fraction:
    return as_fraction(text)


def _load_graph(path: str):
    return load(Path(path).read_text())


def _write_out(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _params(args) -> ExpanderParams:
    if args.alpha is None or args.eps is None:
        raise ExpanderCodeError("this command needs --alpha and --eps")
    return ExpanderParams(args.alpha, args.eps)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expander-codes",
        description="Expander-code toolkit: graphs, expansion, decoding, radii.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, graph=False, params=False):
        if graph:
            sp.add_argument("--graph", required=True, help="graph file")
        if params:
            sp.add_argument("--alpha", type=_frac, help="set-size fraction")
            sp.add_argument("--eps", type=_frac, help="expansion defect")

    sp = sub.add_parser("gen", help="generate a left-regular or biregular graph")
    sp.add_argument("-n", type=int, required=True, help="left vertices")
    sp.add_argument("-m", type=int, required=True, help="right vertices")
    sp.add_argument("-d", type=int, required=True, help="left degree")
    sp.add_argument("--kind", choices=("left-regular", "biregular"),
                    default="left-regular")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("verify", help="verify expansion parameters")
    common(sp, graph=True, params=True)
    sp.add_argument("--sampled", action="store_true", help="sampled mode")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=1 << 26)

    sp = sub.add_parser("profile", help="expansion profile as CSV")
    common(sp, graph=True)
    sp.add_argument("--smax", type=int, help="largest set size (default N)")
    sp.add_argument("--sampled", action="store_true")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=1 << 26)
    sp.add_argument("--out")

    sp = sub.add_parser("distance", help="brute-force minimum distance")
    common(sp, graph=True, params=True)
    sp.add_argument("--budget", type=int, default=24)
    sp.add_argument("--nullspace-out", help="also write the code basis as 0/1 rows")

    sp = sub.add_parser("decode", help="decode one word file")
    common(sp, graph=True, params=True)
    sp.add_argument("word", help="word file over {0,1,?}")
    sp.add_argument("--algo", choices=DECODER_NAMES, required=True)
    sp.add_argument("--beta", type=_frac)
    sp.add_argument("--eta", type=_frac)
    sp.add_argument("--slack", type=_frac, default=Fraction(0))
    sp.add_argument("--threshold", type=_frac,
                    help="ss-flip threshold fraction (default 1-2*eps)")

    sp = sub.add_parser("sweep", help="radius sweep, CSV output")
    common(sp, graph=True, params=True)
    sp.add_argument("--algo", choices=DECODER_NAMES, required=True)
    sp.add_argument("--radius-from", type=int, required=True)
    sp.add_argument("--radius-to", type=int, required=True)
    sp.add_argument("--radius-step", type=int, default=1)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--model", choices=ERROR_MODELS, default="uniform-random-set")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--beta", type=_frac)
    sp.add_argument("--eta", type=_frac)
    sp.add_argument("--slack", type=_frac, default=Fraction(0))
    sp.add_argument("--measure-time", action="store_true")
    sp.add_argument("--budget", type=int, default=1 << 26)
    sp.add_argument("--out")

    sp = sub.add_parser("list-radius", help="list-decoding radius calculators")
    sp.add_argument("--delta", type=_frac, help="relative distance")
    sp.add_argument("--alpha", type=_frac)
    sp.add_argument("--eps", type=_frac)
    sp.add_argument("--dr", type=_frac, help="average right degree")
    sp.add_argument("--dmax", type=int, required=True, help="max right degree")
    sp.add_argument("--out")

    sp = sub.add_parser("report-radii", help="distance/radius formula table")
    sp.add_argument("--alpha", type=_frac, required=True)
    sp.add_argument("--eps", type=_frac, required=True)
    return p


def _cmd_gen(args) -> int:
    gen = gen_left_regular if args.kind == "left-regular" else gen_biregular
    g = gen(args.n, args.m, args.d, args.seed)
    _write_out(args.out, store(g))
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    mode = "sampled" if args.sampled else "exhaustive"
    res = verify_expander(
        g, _params(args), mode, budget=args.budget, trials=args.trials,
        seed=args.seed,
    )
    if res.passed:
        print(f"PASS ({mode}): every size up to {res.profile.s_max} expands")
    else:
        witness = ",".join(str(i) for i in res.counterexample)
        print(
            f"FAIL ({mode}): size {res.failing_size} set {{{witness}}} has "
            f"{res.profile.min_at(res.failing_size)} neighbors, needs {res.required}"
        )
    return 0


def _cmd_profile(args) -> int:
    g = _load_graph(args.graph)
    s_max = args.smax if args.smax is not None else g.n_left
    mode = "sampled" if args.sampled else "exhaustive"
    prof = measure_profile(
        g, s_max, mode, budget=args.budget, trials=args.trials, seed=args.seed
    )
    _write_out(args.out, profile_to_csv(prof))
    return 0


def _cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    res = min_distance_bruteforce(g, budget=args.budget)
    print(f"distance {res.distance} witness {res.witness}")
    if args.alpha is not None and args.eps is not None:
        bound = distance_lower_bound(_params(args), g.d_left, g.n_left)
        print(
            f"headline lower bound {bound.headline} = {float(bound.headline):.6g}, "
            f"certified floor {bound.certified_floor}"
        )
    if args.nullspace_out:
        Path(args.nullspace_out).write_text(nullspace(g).to_text())
    return 0


def _cmd_decode(args) -> int:
    g = _load_graph(args.graph)
    word = parse_word(Path(args.word).read_text())
    cfg = ExperimentConfig(
        algorithm=args.algo,
        radius_from=0,
        radius_to=0,
        alpha=args.alpha,
        eps=args.eps,
        beta=args.beta,
        eta=args.eta,
        slack=args.slack,
        threshold_fraction=args.threshold,
    )
    out = dispatch_decode(cfg, g, word)
    if out.ok:
        print(f"success {out.word} corrected={out.corrected}")
        return 0
    print(f"failure reason={out.reason}")
    return 1


def _cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    cfg = ExperimentConfig(
        algorithm=args.algo,
        radius_from=args.radius_from,
        radius_to=args.radius_to,
        radius_step=args.radius_step,
        trials=args.trials,
        model=args.model,
        seed=args.seed,
        alpha=args.alpha,
        eps=args.eps,
        beta=args.beta,
        eta=args.eta,
        slack=args.slack,
        measure_time=args.measure_time,
        budget=args.budget,
    )
    _write_out(args.out, results_to_csv(sweep(cfg, g)))
    return 0


def _cmd_list_radius(args) -> int:
    if args.delta is not None:
        delta = args.delta
    elif args.alpha is not None and args.eps is not None and args.eps > 0:
        delta = args.alpha / (2 * args.eps)
    else:
        raise ExpanderCodeError("need --delta, or --alpha with a positive --eps")
    breakdown = improved_radius(
        delta, args.dmax, alpha=args.alpha, eps=args.eps, d_r=args.dr
    )
    jr = johnson_radius(delta)
    header = "delta,theta,s_h,n_h,e,rho_star,johnson_r,regime,conditions\n"
    conds = (
        ";".join(f"{k}={v}" for k, v in breakdown.claim_conditions.items())
        if breakdown.claim_conditions
        else ""
    )
    row = (
        f"{breakdown.delta!r},{breakdown.theta!r},{breakdown.s_h!r},"
        f"{breakdown.n_h!r},{breakdown.e!r},{breakdown.rho_star!r},"
        f"{float(jr)!r},{breakdown.regime},{conds}\n"
    )
    _write_out(args.out, header + row)
    return 0


def _cmd_report_radii(args) -> int:
    sys.stdout.write(format_radii_table(report_radii(args.alpha, args.eps)))
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "distance": _cmd_distance,
    "decode": _cmd_decode,
    "sweep": _cmd_sweep,
    "list-radius": _cmd_list_radius,
    "report-radii": _cmd_report_radii,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ExpanderCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "decode failed", so an unexpected error must not
        # escape as a traceback with that status
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
