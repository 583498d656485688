"""Self-checks of the benchmark's tracing and oracle.

    python3 -m pytest perfbench/test_trace.py

Each workload's set-up and one pass run with spans installed; the spans
must nest and add up, and every per-layer count must repeat exactly when
the whole traced run is repeated from a fresh set-up.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from expander_codes import cli, decoders, graphs  # noqa: E402


def traced_run(name, workdir, seed=1):
    workdir.mkdir()
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = tracer.op(lambda: workloads.WORKLOADS[name](seed, workdir), name="setup")
        runner = run.Runner(ops)
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return runner, tracer.take()


def counts(recorded, ops):
    metrics = run.layer_metrics(spans.summarize(recorded), run.find_errors(recorded[1:], ops))
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_nest_add_up_and_counts_repeat(name, tmp_path):
    first, recorded = traced_run(name, tmp_path / "a")
    assert first.failed == 0, first.problems
    assert spans.check_spans(recorded) == []
    roots = [rec for rec in recorded if rec[1] < 0]
    assert [r[0] for r in roots] == ["setup"] + ["op"] * len(first.ops)

    second, again = traced_run(name, tmp_path / "b")
    assert second.outputs == first.outputs
    assert counts(again, second.ops) == counts(recorded, first.ops)


def test_uninstall_restores_every_binding():
    def bindings():
        return {
            (mod.__name__, key): value
            for mod in spans._package_modules()
            for key, value in vars(mod).items()
            if callable(value)
        }

    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    assert cli.load is graphs.load and cli.load.__wrapped__ is before[("expander_codes.graphs", "load")]
    assert hasattr(decoders.find_suspects, "__wrapped__")
    tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_check_spans_reports_broken_nesting():
    ok = [["op", -1, 0.0, 10.0, None], ["a", 0, 1.0, 4.0, None], ["b", 0, 5.0, 9.0, None]]
    assert spans.check_spans(ok) == []
    outside = [["op", -1, 0.0, 10.0, None], ["a", 0, 1.0, 11.0, None]]
    assert any("outside its parent" in p for p in spans.check_spans(outside))
    overlap = [["op", -1, 0.0, 10.0, None], ["a", 0, 1.0, 6.0, None], ["b", 0, 5.0, 9.0, None]]
    assert any("overlaps a sibling" in p for p in spans.check_spans(overlap))
    crowded = [["op", -1, 0.0, 4.0, None], ["a", 0, 0.0, 4.0, None], ["b", 0, 0.0, 4.0, None]]
    assert any("self time" in p for p in spans.check_spans(crowded))


def test_poly_branches_counts_the_enumeration_order():
    # N=3, M=5, D=2: i=1 allows j in 2..1, i=2 j in 4..1, i=3 j in 5..1
    assert spans.poly_branches(3, 5, 2) == 2 + 4 + 5
    assert spans.poly_branches(3, 5, 2, stop=(1, 2)) == 1
    assert spans.poly_branches(3, 5, 2, stop=(2, 3)) == 2 + 2


def test_known_defect_is_counted_not_failed(tmp_path):
    ops = [op for op in workloads.guess(1, tmp_path) if op.known_defect]
    runner = run.Runner(ops)
    runner.run_pass()
    assert runner.failed == 0
    assert runner.defects == {"RecursionError": 1}
