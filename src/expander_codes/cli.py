"""Command-line front end.

Subcommands: gen, verify, profile, distance, decode, sweep, list-radius,
report-radii; decode and sweep share the decoder options, verify and profile
the sampling options. A malformed fraction, a zero denominator, nan or inf is
invalid input. Exit codes:

- 0: success;
- 1: the decode subcommand ran but failed to decode;
- 2: invalid input (bad arguments, parameters, files or words) or any other
  typed refusal, such as an exceeded budget or a non-converged bisection;
- 3: an internal error, reported as one ``error: internal:`` line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
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


def _sampling(args) -> dict:
    """The mode and keyword arguments of verify_expander and measure_profile."""
    return {k: getattr(args, k) for k in ("mode", "budget", "trials", "seed")}


def _config(args, **fixed) -> ExperimentConfig:
    """The ExperimentConfig of the options whose dests name its fields; an
    option left unset (None) leaves its field at the default."""
    names = {f.name for f in fields(ExperimentConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return ExperimentConfig(**given, **fixed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expander-codes",
        description="Expander-code toolkit: graphs, expansion, decoding, radii.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # option groups that several subcommands share, as argparse parents
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True, help="graph file")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--alpha", type=_frac, help="set-size fraction")
    params.add_argument("--eps", type=_frac, help="expansion defect")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--sampled", dest="mode", action="store_const",
                          const="sampled", default="exhaustive", help="sampled mode")
    sampling.add_argument("--trials", type=int, default=2000)
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--budget", type=int, default=1 << 26)
    # each dest is the ExperimentConfig field that _config fills from it
    decoder = argparse.ArgumentParser(add_help=False, parents=[graph, params])
    decoder.add_argument("--algo", dest="algorithm", choices=DECODER_NAMES,
                         required=True)
    decoder.add_argument("--beta", type=_frac)
    decoder.add_argument("--eta", type=_frac)
    decoder.add_argument("--slack", type=_frac)
    decoder.add_argument("--threshold", dest="threshold_fraction", type=_frac,
                         metavar="THRESHOLD",
                         help="ss-flip threshold fraction (default 1-2*eps)")

    sp = sub.add_parser("gen", help="generate a left-regular or biregular graph")
    sp.add_argument("-n", type=int, required=True, help="left vertices")
    sp.add_argument("-m", type=int, required=True, help="right vertices")
    sp.add_argument("-d", type=int, required=True, help="left degree")
    sp.add_argument("--kind", choices=("left-regular", "biregular"),
                    default="left-regular")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(run=_cmd_gen)

    sp = sub.add_parser("verify", parents=[graph, params, sampling],
                        help="verify expansion parameters")
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("profile", parents=[graph, sampling],
                        help="expansion profile as CSV")
    sp.add_argument("--smax", type=int, help="largest set size (default N)")
    sp.add_argument("--out")
    sp.set_defaults(run=_cmd_profile)

    sp = sub.add_parser("distance", parents=[graph, params],
                        help="brute-force minimum distance")
    sp.add_argument("--budget", type=int, default=24)
    sp.add_argument("--nullspace-out", help="also write the code basis as 0/1 rows")
    sp.set_defaults(run=_cmd_distance)

    sp = sub.add_parser("decode", parents=[decoder], help="decode one word file")
    sp.add_argument("word", help="word file over {0,1,?}")
    sp.set_defaults(run=_cmd_decode)

    sp = sub.add_parser("sweep", parents=[decoder], help="radius sweep, CSV output")
    sp.add_argument("--radius-from", type=int, required=True)
    sp.add_argument("--radius-to", type=int, required=True)
    sp.add_argument("--radius-step", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--model", choices=ERROR_MODELS)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--measure-time", action="store_true")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--out")
    sp.set_defaults(run=_cmd_sweep)

    sp = sub.add_parser("list-radius", parents=[params],
                        help="list-decoding radius calculators")
    sp.add_argument("--delta", type=_frac, help="relative distance")
    sp.add_argument("--dr", type=_frac, help="average right degree")
    sp.add_argument("--dmax", type=int, required=True, help="max right degree")
    sp.add_argument("--out")
    sp.set_defaults(run=_cmd_list_radius)

    sp = sub.add_parser("report-radii", help="distance/radius formula table")
    sp.add_argument("--alpha", type=_frac, required=True)
    sp.add_argument("--eps", type=_frac, required=True)
    sp.set_defaults(run=_cmd_report_radii)
    return p


def _cmd_gen(args) -> int:
    gen = gen_left_regular if args.kind == "left-regular" else gen_biregular
    g = gen(args.n, args.m, args.d, args.seed)
    _write_out(args.out, store(g))
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    res = verify_expander(g, _params(args), **_sampling(args))
    if res.passed:
        print(f"PASS ({args.mode}): every size up to {res.profile.s_max} expands")
    else:
        witness = ",".join(str(i) for i in res.counterexample)
        print(
            f"FAIL ({args.mode}): size {res.failing_size} set {{{witness}}} has "
            f"{res.profile.min_at(res.failing_size)} neighbors, needs {res.required}"
        )
    return 0


def _cmd_profile(args) -> int:
    g = _load_graph(args.graph)
    s_max = args.smax if args.smax is not None else g.n_left
    _write_out(args.out, profile_to_csv(measure_profile(g, s_max, **_sampling(args))))
    return 0


def _cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    res = min_distance_bruteforce(g, budget=args.budget)
    print(f"distance {res.distance} witness {res.witness}")
    if args.alpha is not None and args.eps is not None:
        bound = distance_lower_bound(_params(args), g.d_left, g.n_left)
        if bound.headline > sys.float_info.max:
            raise ExpanderCodeError("the headline bound is beyond the float range")
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
    out = dispatch_decode(_config(args, radius_from=0, radius_to=0), g, word)
    if out.ok:
        print(f"success {out.word} corrected={out.corrected}")
        return 0
    print(f"failure reason={out.reason}")
    return 1


def _cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    _write_out(args.out, results_to_csv(sweep(_config(args), g)))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` reads, built on its first call and kept for
    the process: a build costs about 1.6 ms, more than most commands' own
    work on small graphs. Parsing reads the parser and never changes it;
    each parse fills a fresh namespace from the defaults."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (ExpanderCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "decode failed", so an unexpected error must not
        # escape as a traceback with that status
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
