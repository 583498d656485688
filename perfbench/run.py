"""Seeded benchmark of the expander_codes package.

    python3 perfbench/run.py --workload {sweep,decode,guess,certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread, one closed-loop client: set-up builds the inputs
from the seed, then passes over the workload's op list repeat until
``--seconds`` have elapsed, the last pass always completing. An op's
latency is its fastest run over the passes. Every op's output is checked
by the workload's oracle and must equal its output in the first pass; for
the pinned seed it must also match the digests in digests.json.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a warm-up
pass, then untraced passes and passes with layer spans installed in turn,
and reports per-layer calls, self times and counts, plus the tracing
overhead. The last line of stdout is one JSON object: correct, attempted,
failed, metrics. README.md next to this file records the workloads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
PINNED_SEED = 1
SETUP_SAMPLES = 5
clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "decode", "guess", "certify"))
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for setup_s samples)")
    p.add_argument("--pin", action="store_true",
                   help=f"record the output digests of seed {PINNED_SEED} in digests.json")
    return p.parse_args(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs passes over one op list and keeps the oracle's verdicts."""

    def __init__(self, ops):
        self.ops = ops
        self.outputs = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.defects: dict[str, int] = {}
        self.problems: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i} ({self.ops[i].label}): {why}")

    def run_pass(self, tracer=None) -> list[float]:
        latencies = []
        for i, op in enumerate(self.ops):
            exc = result = None
            start = clock()
            try:
                result = tracer.op(op.run) if tracer is not None else op.run()
            except Exception as e:  # an op that raises is a failed op
                exc = e
            latencies.append(clock() - start)
            self.attempted += 1
            self.runs[i] += 1
            if exc is not None and not isinstance(exc, op.known_defect or ()):
                self._fail(i, f"raised {type(exc).__name__}: {exc}")
                continue
            if exc is not None:
                name = type(exc).__name__
                self.defects[name] = self.defects.get(name, 0) + 1
            else:
                try:
                    text = op.check(result)
                except Exception as e:
                    self._fail(i, str(e))
                    continue
            # a fix of the known defect may change the outcome, not the digest
            if op.known_defect is not None:
                text = "known-defect"
            if self.outputs[i] is None:
                self.outputs[i] = text
            elif self.outputs[i] != text:
                self._fail(i, "output differs from its first run")
        return latencies

    def check_digests(self, pinned: list[str]) -> None:
        if len(pinned) != len(self.ops):
            self.failed += sum(self.runs)
            self.problems.append(f"{len(pinned)} pinned digests for {len(self.ops)} ops")
            return
        for i, want in enumerate(pinned):
            if self.outputs[i] is not None and digest(self.outputs[i]) != want:
                self.failed += self.runs[i]
                self.problems.append(f"op {i} ({self.ops[i].label}): output digest changed")


def timed_passes(runner, seconds: float):
    """Whole passes until ``seconds`` have elapsed; per-pass latencies and
    the wall time."""
    passes = []
    start = clock()
    while not passes or clock() - start < seconds:
        passes.append(runner.run_pass())
    return passes, clock() - start


def fastest(passes) -> list[float]:
    """Each op's fastest run over the passes. Every op is deterministic, so
    its spread comes from the machine; on a shared machine other tenants
    slow whole stretches of a run by 20% and more, and the minimum is the
    estimate of the op's own cost that such stretches leave alone."""
    return [min(runs) for runs in zip(*passes)]


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def layer_metrics(summary, find_errors: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one summary (see spans.summarize)."""

    def get(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def ms(name):
        return get(name, "self_s") * 1000.0

    def share(num, den):
        return num / den if den else 0.0

    lc, dec = "linear_code", "decoders"
    poly, grid = f"{dec}.guess_expansion_decode_poly", f"{dec}.guess_expansion_decode_grid"
    prof = "expansion.measure_profile"
    return {
        f"{lc}.nullspace.calls": (get(f"{lc}.nullspace"), "count"),
        f"{lc}.nullspace.self_ms": (ms(f"{lc}.nullspace"), "ms"),
        f"{lc}.syndrome_bits.calls": (get(f"{lc}.syndrome_bits"), "count"),
        f"{lc}.syndrome_bits.self_ms": (ms(f"{lc}.syndrome_bits"), "ms"),
        f"{lc}.min_distance_bruteforce.self_ms": (ms(f"{lc}.min_distance_bruteforce"), "ms"),
        f"{lc}.codewords_walked": (get(f"{lc}.min_distance_bruteforce", "codewords"), "count"),
        f"{dec}.find_suspects.calls": (get(f"{dec}.find_suspects"), "count"),
        f"{dec}.find_suspects.self_ms": (ms(f"{dec}.find_suspects"), "ms"),
        f"{dec}.find_suspects.suspects": (get(f"{dec}.find_suspects", "suspects"), "count"),
        f"{dec}.find_suspects.suspects_per_error": (
            share(get(f"{dec}.find_suspects", "suspects"), find_errors), "ratio"),
        f"{dec}.decode_erasures.calls": (get(f"{dec}.decode_erasures"), "count"),
        f"{dec}.decode_erasures.self_ms": (ms(f"{dec}.decode_erasures"), "ms"),
        f"{dec}.decode_erasures.gauss_share": (
            share(get(f"{dec}.decode_erasures", "gauss"), get(f"{dec}.decode_erasures")),
            "fraction"),
        f"{dec}.flip_decode_ss.self_ms": (ms(f"{dec}.flip_decode_ss"), "ms"),
        f"{dec}.flip_decode_ss.rounds": (get(f"{dec}.flip_decode_ss", "rounds"), "count"),
        f"{dec}.guess_flip_decode.self_ms": (ms(f"{dec}.guess_flip_decode"), "ms"),
        f"{dec}.guess_flip_decode.dfs_nodes": (get(f"{dec}.guess_flip_decode", "dfs_nodes"), "count"),
        f"{poly}.self_ms": (ms(poly), "ms"),
        f"{poly}.branches": (get(poly, "branches"), "count"),
        f"{poly}.attempts": (get(poly, "attempts"), "count"),
        f"{poly}.attempt_ratio": (share(get(poly, "attempts"), get(poly, "branches")), "ratio"),
        f"{grid}.self_ms": (ms(grid), "ms"),
        f"{grid}.attempts": (get(grid, "attempts"), "count"),
        f"{prof}.self_ms": (ms(prof), "ms"),
        f"{prof}.subsets": (get(prof, "subsets"), "count"),
        f"{prof}.subsets_per_s": (share(get(prof, "subsets"), get(prof, "self_s")), "1/s"),
        "expansion.verify_expander.self_ms": (ms("expansion.verify_expander"), "ms"),
        "experiments.sweep.self_ms": (ms("experiments.sweep"), "ms"),
        "list_decoding.enumerate_list.self_ms": (ms("list_decoding.enumerate_list"), "ms"),
        "list_decoding.enumerate_list.codewords_scanned": (
            get("list_decoding.enumerate_list", "codewords"), "count"),
        "graphs.load.self_ms": (ms("graphs.load"), "ms"),
        "graphs.gen.self_ms": (ms("graphs.gen"), "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
    }


def find_errors(spans, ops) -> int:
    """Planted errors of the ops whose spans include a find_suspects call."""
    total, k, counted = 0, -1, False
    for rec in spans:
        if rec[1] < 0:
            k, counted = k + 1, False
        elif rec[0] == "decoders.find_suspects" and not counted:
            total += ops[k].errors
            counted = True
    return total


def merge(*summaries):
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    return out


def traced_run(args, spans, runner, setup_spans, report):
    """A warm-up pass, then untraced and traced passes in turn until
    ``--seconds`` have elapsed, so both see the same warm caches."""
    runner.run_pass()
    tracer = spans.Tracer()
    plain, traced, passes = [], [], []
    start = clock()
    while not passes or clock() - start < args.seconds:
        plain.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer.take())
    problems = spans.check_spans(setup_spans)
    for p in passes:
        problems += spans.check_spans(p)
    base = spans.summarize(setup_spans)
    per_pass = [
        layer_metrics(merge(base, spans.summarize(p)), find_errors(p, runner.ops))
        for p in passes
    ]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "count" and len(set(values)) != 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    untraced_rate = len(runner.ops) / sum(fastest(plain))
    traced_rate = len(runner.ops) / sum(fastest(traced))
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate, "x")
    metrics["ops.known_defects"] = (
        sum(runner.defects.values()) / (runner.attempted / len(runner.ops)), "count")
    report.append(
        f"  {len(passes)} traced and {len(passes)} untraced passes after a warm-up; "
        "per-layer values are the traced set-up plus one pass (median over passes)"
    )
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expander_codes" / "__init__.py").is_file():
        print(f"error: no expander_codes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            return run(args, spans, setup, Path(tmp))
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there


def run(args, spans, setup, workdir: Path) -> int:
    setup_tracer = None
    if args.trace:
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        try:
            ops = setup_tracer.op(lambda: setup(args.seed, workdir), name="setup")
        finally:
            setup_tracer.uninstall()
    else:
        ops = setup(args.seed, workdir)
    setup_s = clock() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(ops)
    report = [f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass"]
    problems = []
    if args.trace:
        metrics, problems = traced_run(args, spans, runner, setup_tracer.take(), report)
    else:
        samples = setup_samples(args, setup_s)
        passes, wall = timed_passes(runner, args.seconds)
        best = fastest(passes)
        n = len(passes) * len(ops)
        p90 = statistics.quantiles(best, n=10)[8]
        beyond = sum(x > p90 for x in best)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "ops_per_s": (len(ops) / sum(best), "ops/s"),
            "op_p50_ms": (statistics.median(best) * 1000.0, "ms"),
            "op_p90_ms": (p90 * 1000.0, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report += [
            f"  setup_s        median of {len(samples)} set-ups in fresh processes: "
            + ", ".join(f"{s:.3f}" for s in samples),
            f"  latencies      each op's fastest of {len(passes)} passes "
            f"({n} ops run in {wall:.3f} s, {n / wall:.4g} ops/s by the wall clock)",
            f"  ops_per_s      {len(ops)} ops of a pass over the sum of their latencies",
            f"  op_p50_ms      median of {len(ops)} op latencies ({n} samples)",
            f"  op_p90_ms      {beyond} ops, {beyond * len(passes)} samples, beyond it",
        ]
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.pin and args.seed == PINNED_SEED and runner.failed == 0:
        pinned[args.workload] = [digest(text) for text in runner.outputs]
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    elif args.seed == PINNED_SEED and args.workload in pinned:
        runner.check_digests(pinned[args.workload])

    error_rate = runner.failed / runner.attempted
    report.append(
        f"  op_error_rate  {error_rate:.6g} fraction "
        f"({runner.failed} failed of {runner.attempted} attempted)"
    )
    for name, count in sorted(runner.defects.items()):
        report.append(f"  known defect   {name} x{count} (expected today, not failed)")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name} = {value:.6g} {unit}")
    for line in runner.problems + problems:
        report.append(f"  FAILED: {line}")
    print("\n".join(report))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
