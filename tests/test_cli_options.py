"""The command line's option surface: decode and sweep share one decoder
option group, verify and profile one sampling group, and no text given to a
fraction-valued option makes the CLI exit 3."""

import argparse
import contextlib
import io
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expander_codes import ExperimentConfig, gen_left_regular, results_to_csv, store, sweep
from expander_codes import cli
from expander_codes.cli import build_parser, main
from conftest import tri3_graph


def _subparsers() -> dict:
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _run(argv) -> tuple[int, str]:
    """The exit code and stderr of one CLI run; argparse errors exit by raising."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _options(command: str) -> dict:
    """A subcommand's optional actions by option string."""
    return {s: a for a in _subparsers()[command]._actions for s in a.option_strings}


@pytest.mark.parametrize("first, second, shared", [
    ("decode", "sweep", ("--graph", "--alpha", "--eps", "--algo", "--beta", "--eta",
                         "--slack", "--threshold")),
    ("verify", "profile", ("--graph", "--sampled", "--trials", "--seed", "--budget")),
])
def test_shared_option_groups(first, second, shared):
    a, b = _options(first), _options(second)
    for opt in shared:
        x, y = a[opt], b[opt]
        assert (x.dest, x.type, x.default, x.const, x.choices, x.required) == (
            y.dest, y.type, y.default, y.const, y.choices, y.required
        ), opt


@pytest.mark.parametrize("command, own", [
    ("decode", {"help", "graph"}),
    ("sweep", {"help", "graph", "out"}),
])
def test_decoder_options_name_config_fields(command, own):
    # every other option reaches ExperimentConfig under its field's name
    dests = {a.dest for a in _options(command).values()}
    assert dests - {f.name for f in fields(ExperimentConfig)} == own


def test_sweep_threshold_matches_library(tmp_path):
    g = gen_left_regular(12, 9, 3, 1)
    graph, out = tmp_path / "g.graph", tmp_path / "sweep.csv"
    graph.write_text(store(g))
    assert main(["sweep", "--graph", str(graph), "--algo", "ss-flip",
                 "--threshold", "3/4", "--radius-from", "0", "--radius-to", "3",
                 "--trials", "4", "--seed", "2", "--out", str(out)]) == 0
    cfg = ExperimentConfig("ss-flip", 0, 3, trials=4, seed=2,
                           threshold_fraction=Fraction(3, 4))
    assert out.read_bytes() == results_to_csv(sweep(cfg, g)).encode()


@pytest.mark.parametrize("argv", [
    ["report-radii", "--alpha", "1/0", "--eps", "1/8"],
    ["list-radius", "--delta", "1/0", "--dmax", "9"],
    ["list-radius", "--delta", "1/20", "--dmax", "9", "--alpha", "1/10", "--eps", "0"],
    ["list-radius", "--delta", "1e400", "--dmax", "9"],
    ["report-radii", "--alpha", "1/100", "--eps", "1e-400"],
])
def test_bad_fraction_exits_2(argv):
    code, err = _run(argv)
    assert code == 2 and err.splitlines()[-1].startswith(
        ("error: ", f"expander-codes {argv[0]}: error: argument ")
    )


# valid values for every fraction-valued option; each test run replaces one
_DECODER_VALUES = {"--alpha": "1/3", "--eps": "1/8", "--beta": "1/20",
                   "--eta": "1/2", "--slack": "0", "--threshold": "3/4"}
_VALUES = {
    "verify": {"--alpha": "1/3", "--eps": "1/10"},
    "distance": {"--alpha": "2/3", "--eps": "1/4"},
    "decode": _DECODER_VALUES,
    "sweep": _DECODER_VALUES,
    "list-radius": {"--delta": "1/20", "--alpha": "1/100", "--eps": "1/10", "--dr": "30"},
    "report-radii": {"--alpha": "1/100", "--eps": "1/8"},
}
# the decoders that read each decoder option; each run of a decoder option
# runs it with every reader
_PARAMS_READERS = ("find-erase", "viderman", "guess-flip", "guess-flip-scaled",
                   "guess-expansion", "guess-expansion-grid")
_READERS = {"--alpha": _PARAMS_READERS, "--eps": (*_PARAMS_READERS, "ss-flip"),
            "--beta": ("guess-flip",), "--eta": ("guess-flip-scaled", "guess-expansion-grid"),
            "--slack": ("guess-expansion",), "--threshold": ("ss-flip",)}
# a reader's valid values in place of _DECODER_VALUES; None leaves an option
# out. guess-flip-scaled needs eta <= 1/4, and ss-flip reads --eps only
# without --threshold.
_READER_VALUES = {"guess-flip-scaled": {"--eta": "1/100"}, "ss-flip": {"--threshold": None}}
_FRACTION_OPTIONS = sorted(
    (command, opt)
    for command, parser in _subparsers().items()
    for action in parser._actions
    if action.type is cli._frac
    for opt in action.option_strings
)


def test_every_fraction_option_is_drawn():
    assert _FRACTION_OPTIONS == sorted(
        (command, opt) for command, values in _VALUES.items() for opt in values
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "tri3.graph").write_text(store(tri3_graph()))
    (root / "word.txt").write_text("100\n")
    return str(root / "tri3.graph"), str(root / "word.txt")


# the recursion overrun of guess-flip's schedule for beta below about 1/900,
# and so of the scaled entry for eta (its beta) below that, is a known defect,
# pinned at exit 3 by test_cli.py's test_internal_error_exit_3
_KNOWN_DEFECT = {("--beta", "guess-flip"), ("--eta", "guess-flip-scaled")}


def _check(files, command: str, opt: str, text: str) -> None:
    graph, word = files
    decoding = command in ("decode", "sweep")
    for algo in _READERS[opt] if decoding else (None,):
        values = {**_VALUES[command], **_READER_VALUES.get(algo, {}), opt: text}
        argv = [command, *(f"{o}={v}" for o, v in values.items() if v is not None)]
        if command in ("verify", "distance", "decode", "sweep"):
            argv += ["--graph", graph]
        if decoding:
            argv += ["--algo", algo]
        if command == "decode":
            argv.append(word)
        if command == "sweep":
            argv += ["--radius-from", "0", "--radius-to", "1", "--trials", "2"]
        if command == "list-radius":
            argv += ["--dmax", "33"]
        code, err = _run(argv)
        if (code == 3 and (opt, algo) in _KNOWN_DEFECT
                and err.startswith("error: internal: RecursionError: ")):
            continue
        assert code in (0, 1, 2), (argv, err)


_SPECIAL_TEXT = ("1/0", "-3/0", "nan", "inf", "-inf", "", " ", "abc", "0", "-1", "1",
                 "1/2", "1e400", "-1e400", "1e-400", "1e-310", "5e-324", "2e308",
                 "1e-20")


def test_special_fraction_text_never_exits_3(files):
    for command, opt in _FRACTION_OPTIONS:
        for text in _SPECIAL_TEXT:
            _check(files, command, opt, text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(_FRACTION_OPTIONS),
    st.one_of(
        st.sampled_from(_SPECIAL_TEXT),
        st.fractions().map(str),
        st.decimals().map(str),
        st.floats().map(repr),
        st.text(alphabet="0123456789/.-+eE nainf", max_size=10),
        st.text(max_size=10),
    ),
)
def test_fraction_text_never_exits_3(files, option, text):
    _check(files, *option, text)


# -- the parser main keeps for the process -----------------------------------


def _corpus(root) -> list[list[str]]:
    """argv for every subcommand: successes, a decode failure (exit 1), typed
    refusals (exit 2), argparse errors (SystemExit 2) and help (SystemExit 0).
    ``verify --sampled`` comes before a plain ``verify``, so that a default
    the sampled run left behind would show."""
    graph, word = root / "g.graph", root / "word.txt"
    graph.write_text(store(gen_left_regular(12, 9, 3, 1)))
    word.write_text("000000000001\n")
    g, w = ["--graph", str(graph)], str(word)
    decoding = [*g, "--alpha", "1/6", "--eps", "1/8"]
    return [
        ["gen", "-n", "12", "-m", "9", "-d", "3", "--seed", "1"],
        ["gen", "-n", "12", "-m", "9", "-d", "3", "--kind", "biregular"],
        ["verify", *g, "--alpha", "1/12", "--eps", "1/3", "--sampled", "--trials", "5",
         "--seed", "3"],
        ["verify", *g, "--alpha", "1/12", "--eps", "1/3"],
        ["verify", *g],  # no --alpha and --eps: exit 2
        ["profile", *g, "--smax", "3"],
        ["profile", *g, "--smax", "3", "--sampled", "--trials", "4"],
        ["profile", *g, "--smax", "3"],
        ["distance", *g],
        ["distance", *g, "--budget", "2"],  # dimension 4 > budget: exit 2
        ["distance", *g, "--alpha", "1/6", "--eps", "1/8"],
        ["decode", *decoding, "--algo", "viderman", w],
        ["decode", *decoding, "--algo", "ss-flip", "--threshold", "3/4", w],
        ["decode", *decoding, "--algo", "guess-flip", "--beta", "1/12", w],
        ["decode", *decoding, "--algo", "viderman", str(root / "missing.txt")],
        ["decode", *decoding, "--algo", "nope", w],
        ["sweep", *decoding, "--algo", "viderman", "--radius-from", "0", "--radius-to",
         "2", "--trials", "2", "--seed", "5"],
        ["sweep", *decoding, "--algo", "erasure", "--radius-from", "1", "--radius-to",
         "1", "--trials", "3", "--model", "erasure"],
        ["sweep", *decoding, "--algo", "viderman", "--radius-from", "0"],
        ["list-radius", "--delta", "1/20", "--dmax", "9"],
        ["list-radius", "--alpha", "1/100", "--eps", "1/10", "--dr", "30", "--dmax", "33"],
        ["list-radius", "--dmax", "9"],  # no delta: exit 2
        ["report-radii", "--alpha", "1/100", "--eps", "1/8"],
        ["report-radii", "--alpha", "1/0", "--eps", "1/8"],
        ["gen", "-n", "x", "-m", "9", "-d", "3"],
        ["nonsense"],
        [],
        ["--help"],
        ["verify", "--help"],
        ["sweep", "--help"],
    ]


def _outcome(argv) -> tuple:
    """(exit code, stdout, stderr) of one main call; argparse exits raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _namespace(parser, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return ("SystemExit", exc.code, err.getvalue())


def test_cached_parser_reads_every_argv_as_a_fresh_one(tmp_path):
    corpus = _corpus(tmp_path)
    codes = {_outcome(a)[0] for a in corpus}
    assert {0, 1, 2, ("SystemExit", 0), ("SystemExit", 2)} <= codes
    for argv in corpus + corpus[::-1]:
        assert _namespace(cli._parser(), argv) == _namespace(build_parser(), argv), argv
    assert cli._parser() is cli._parser()


def test_cached_parser_runs_like_a_fresh_one(tmp_path, monkeypatch):
    corpus = _corpus(tmp_path)
    # the cached parser, twice over in interleaved orders
    cached = [_outcome(a) for a in corpus + corpus[::-1] + corpus]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", build_parser)
        fresh = [_outcome(a) for a in corpus]
    assert cached == fresh + fresh[::-1] + fresh
