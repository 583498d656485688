import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from expander_codes import (
    BudgetExceeded,
    ExperimentConfig,
    InvalidParameters,
    format_radii_table,
    gen_left_regular,
    iter_error_patterns,
    neighbors,
    report_radii,
    results_to_csv,
    sweep,
    trial_seed,
)
from expander_codes import experiments
from expander_codes.experiments import _error_set, _greedy_low_expansion_set


def _greedy_by_rescan(g, size):
    """The former chooser: rescan every vertex's marginal new-neighbor count
    per pick; the reference for the kept per-vertex counts."""
    chosen = []
    cur = 0
    covered = 0
    for _ in range(size):
        best_i = None
        best_gain = None
        for i in range(g.n_left):
            if (cur >> i) & 1:
                continue
            gain = (g.left_masks[i] | covered).bit_count() - covered.bit_count()
            if best_gain is None or gain < best_gain:
                best_gain, best_i = gain, i
        chosen.append(best_i)
        cur |= 1 << best_i
        covered |= g.left_masks[best_i]
    return tuple(sorted(chosen))


class TestInjectErrors:
    def test_radius_zero(self, tri3):
        for model in ("uniform-random-set", "low-expansion-greedy"):
            assert _error_set(tri3, model, 0, 1) == ()
        with pytest.raises(InvalidParameters):
            _error_set(tri3, "exhaustive", 0, 1)

    def test_greedy_on_tri3_shares_a_check(self, tri3):
        errs = _error_set(tri3, "low-expansion-greedy", 2, 0)
        assert len(errs) == 2
        assert len(neighbors(tri3, errs)) == 3  # every pair shares exactly one

    def test_greedy_prefers_collisions(self):
        g = gen_left_regular(14, 9, 3, 7)
        errs = _error_set(g, "low-expansion-greedy", 4, 0)
        # the greedy set's neighborhood is no larger than a typical one
        import random

        rng = random.Random(0)
        sizes = [
            len(neighbors(g, rng.sample(range(14), 4))) for _ in range(50)
        ]
        assert len(neighbors(g, errs)) <= sum(sizes) / len(sizes)

    def test_greedy_matches_rescanning_chooser(self):
        # few checks per vertex and M near D make many ties on the least gain
        rng = random.Random(11)
        for seed in range(120):
            n, d = rng.randint(1, 60), rng.randint(1, 6)
            g = gen_left_regular(n, rng.randint(d, max(d, n)), d, seed)
            for size in range(n + 1):
                assert _greedy_low_expansion_set(g, size) == _greedy_by_rescan(g, size), (seed, size)

    def test_greedy_matches_rescanning_chooser_at_scale(self):
        # N = 512 gives long runs of stale heap entries; with M = D every
        # vertex has every check, so each pick after the first ties at gain 0
        g = gen_left_regular(512, 384, 6, 1)
        for size in (20, 60):
            assert _greedy_low_expansion_set(g, size) == _greedy_by_rescan(g, size), size
        ties = gen_left_regular(40, 5, 5, 0)
        for size in range(41):
            assert _greedy_low_expansion_set(ties, size) == _greedy_by_rescan(ties, size), size

    @pytest.mark.parametrize("model", ["uniform-random-set", "low-expansion-greedy"])
    def test_radius_outside_zero_to_n_is_refused(self, tri3, model):
        assert len(_error_set(tri3, model, 3, 0)) == 3
        for radius in (-1, 4):
            with pytest.raises(InvalidParameters, match="radius <= N = 3"):
                _error_set(tri3, model, radius, 0)

    def test_deterministic(self, tri3):
        a = _error_set(tri3, "uniform-random-set", 2, 9)
        assert a == _error_set(tri3, "uniform-random-set", 2, 9)
        assert len(a) == 2 and list(a) == sorted(set(a))

    def test_exhaustive_iterator(self):
        pats = list(iter_error_patterns(4, 2))
        assert len(pats) == math.comb(4, 2)
        assert pats[0] == (0, 1)

    def test_exhaustive_iterator_negative_radius(self):
        with pytest.raises(InvalidParameters):
            iter_error_patterns(3, -1)


class TestSweep:
    def _cfg(self, **kw):
        base = dict(
            algorithm="viderman",
            radius_from=0,
            radius_to=1,
            trials=5,
            seed=42,
            alpha=Fraction(2, 14),
            eps=Fraction(1, 6),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_radius_zero_always_succeeds(self, decode_instances):
        inst = decode_instances[0]
        for algo, extra in [
            ("viderman", {}),
            ("erasure", {}),
            ("ss-flip", {}),
            ("find-erase", {}),
            ("guess-flip", {"beta": Fraction(1, 12)}),
        ]:
            cfg = self._cfg(
                algorithm=algo,
                radius_to=0,
                alpha=inst.params.alpha,
                eps=inst.eps,
                **extra,
            )
            rows = sweep(cfg, inst.graph)
            assert all(r.status == "success" and r.recovered for r in rows)

    def test_radius_zero_small_eps_algorithms(self, guess_expansion_instance):
        inst = guess_expansion_instance
        for algo, extra in [
            ("guess-expansion", {}),
            ("guess-expansion-grid", {"eta": Fraction(1, 10)}),
            ("guess-flip-scaled", {"eta": Fraction(1, 100)}),
        ]:
            cfg = self._cfg(
                algorithm=algo,
                radius_to=0,
                alpha=inst.params.alpha,
                eps=inst.eps,
                **extra,
            )
            rows = sweep(cfg, inst.graph)
            assert all(r.recovered for r in rows), algo

    def test_scaled_radius_near_quarter_eps(self):
        # eps -> 1/4 sends k -> 1 and the scaled radius toward (3/4)*alpha*N
        eps, alpha, n = Fraction(6, 25), Fraction(1, 5), 20
        k = (Fraction(1, 4) - Fraction(1, 1000)) / eps
        assert k > 1
        radius = (1 - k * eps) * k * alpha * n
        assert abs(radius / (alpha * n) - Fraction(3, 4)) < Fraction(1, 20)

    def test_recovered_implies_success(self, decode_instances):
        inst = decode_instances[0]
        cfg = self._cfg(alpha=inst.params.alpha, eps=inst.eps, radius_to=3)
        for r in sweep(cfg, inst.graph):
            if r.recovered:
                assert r.status == "success"

    def test_csv_byte_identical(self, decode_instances):
        inst = decode_instances[0]
        cfg = self._cfg(alpha=inst.params.alpha, eps=inst.eps)
        a = results_to_csv(sweep(cfg, inst.graph))
        b = results_to_csv(sweep(cfg, inst.graph))
        assert a == b
        assert a.splitlines()[0] == (
            "algorithm,n,m,d,alpha,eps,radius,trial,errors,status,recovered,"
            "iterations,wall_time"
        )
        assert all(line.endswith(",0.0") for line in a.splitlines()[1:])

    def test_sweep_runs_no_elimination_and_pinned_csv(self, eliminations):
        # 3 radii x 4 trials decode their error patterns on the zero word
        g = gen_left_regular(96, 72, 6, 3)
        cfg = self._cfg(radius_from=1, radius_to=3, trials=4, seed=11,
                        alpha=Fraction(1, 48))
        csv = results_to_csv(sweep(cfg, g))
        assert len(eliminations) == 0
        assert len(csv.splitlines()) == 1 + 3 * 4
        # sha256 of this sweep's CSV from when each trial planted a codeword
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "f3c6baffab1ed3786f55b624340a1d5a53475ee5d09fcfdb547f9985dbcc19b4"
        )

    def test_large_sweep_runs_no_elimination_and_pinned_csv(self, eliminations):
        # successes, radius-exceeded and no-candidate failures at N = 2000,
        # where a code basis costs an elimination over 2000 columns
        g = gen_left_regular(2000, 1500, 6, 1)
        csv = "".join(
            results_to_csv(sweep(self._cfg(
                algorithm=algo, radius_from=0, radius_to=60, radius_step=20,
                trials=3, seed=5, alpha=Fraction(1, 50)), g))
            for algo in ("viderman", "erasure", "ss-flip")
        )
        assert len(eliminations) == 0
        assert ",failure:radius-exceeded," in csv and ",failure:no-candidate," in csv
        # sha256 of these CSVs from when each trial planted a codeword
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "fef391ad403175f4b44851b45a7b2faf22e7f23bc5e68baa385e17a656193f99"
        )

    def test_greedy_sweep_pinned_csv(self):
        # one greedy set per radius on the perfbench sweep's graph shape
        g = gen_left_regular(512, 384, 6, 1)
        cfg = self._cfg(model="low-expansion-greedy", radius_to=60, radius_step=10,
                        trials=1, seed=0, alpha=Fraction(1, 50))
        csv = results_to_csv(sweep(cfg, g))
        assert len(csv.splitlines()) == 1 + 7
        # sha256 of this CSV, and of the error sets, from the rescanning chooser
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "87af6bf3cd044011328d9836fab9884c281fb44f0b79a7593887fe73cf40c9e4"
        )
        sets = repr([_greedy_low_expansion_set(g, r) for r in range(0, 61, 10)])
        assert hashlib.sha256(sets.encode()).hexdigest() == (
            "b58ee5e59ecca1bcaa30b51be045376f9adcb10e6ef128db0fb35443efd96a64"
        )

    def test_exhaustive_model(self, decode_instances):
        inst = decode_instances[0]
        cfg = self._cfg(
            alpha=inst.params.alpha, eps=inst.eps,
            model="exhaustive", radius_from=1, radius_to=1,
        )
        rows = sweep(cfg, inst.graph)
        assert len(rows) == inst.graph.n_left
        assert all(r.recovered for r in rows)

    def test_exhaustive_budget_refuses_before_any_decode(self, monkeypatch):
        # radii 0-3 fit the budget, radius 4 needs C(60, 4) = 487635 patterns
        g = gen_left_regular(60, 45, 6, 1)
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *a: calls.append(a))
        refusals = []
        for start in (0, 4):
            cfg = self._cfg(model="exhaustive", radius_from=start, radius_to=4,
                            alpha=Fraction(1, 30), eps=Fraction(1, 8), budget=400000)
            with pytest.raises(BudgetExceeded) as exc:
                sweep(cfg, g)
            refusals.append((str(exc.value), exc.value.required))
        assert calls == []
        assert refusals[0] == refusals[1]
        assert refusals[0][0].startswith("exhaustive model needs 487635 patterns > budget 400000")
        assert refusals[0][1] == 487635

    @pytest.mark.parametrize("model", ["uniform-random-set", "low-expansion-greedy"])
    def test_sampled_budget_bounds_trials_per_radius(self, decode_instances, model):
        inst = decode_instances[0]
        cfg = self._cfg(alpha=inst.params.alpha, eps=inst.eps, model=model, budget=4)
        with pytest.raises(BudgetExceeded) as exc:
            sweep(cfg, inst.graph)
        assert exc.value.required == 5
        # a per-radius bound: 2 radii of 5 trials fit a budget of 5
        assert len(sweep(self._cfg(alpha=inst.params.alpha, eps=inst.eps, model=model,
                                   budget=5), inst.graph)) == 10

    def test_radius_to_is_bounded_by_n(self, tri3):
        # a radius of N flips every position; one past it has no error set
        cfg = self._cfg(algorithm="erasure", model="exhaustive", radius_from=3, radius_to=3)
        assert [r.errors for r in sweep(cfg, tri3)] == [3]
        with pytest.raises(InvalidParameters, match="exceeds N"):
            sweep(replace(cfg, radius_to=4), tri3)

    def test_greedy_set_drawn_once_per_radius(self, decode_instances, monkeypatch):
        inst = decode_instances[0]
        cfg = self._cfg(alpha=inst.params.alpha, eps=inst.eps, model="low-expansion-greedy",
                        radius_to=3, trials=5)
        g = inst.graph
        # the rows of one draw per trial
        want = [
            experiments.run_trial(cfg, g, r, t, _error_set(g, cfg.model, r, trial_seed(cfg.seed, r, t)))
            for r in range(4) for t in range(5)
        ]
        draws = []
        greedy = experiments._greedy_low_expansion_set

        def counted(g, size):
            draws.append(size)
            return greedy(g, size)

        monkeypatch.setattr(experiments, "_greedy_low_expansion_set", counted)
        assert sweep(cfg, g) == want
        assert draws == [0, 1, 2, 3]

    def test_trial_seed_stability(self):
        assert trial_seed(42, 1, 0) == trial_seed(42, 1, 0)
        assert trial_seed(42, 1, 0) != trial_seed(42, 1, 1)
        # pinned so the CSV golden property survives refactors
        assert trial_seed(0, 0, 0) == 16774267956234540618

    def test_config_validation(self):
        with pytest.raises(InvalidParameters):
            ExperimentConfig(algorithm="nope", radius_from=0, radius_to=0)
        with pytest.raises(InvalidParameters):
            ExperimentConfig(algorithm="viderman", radius_from=2, radius_to=1)


class TestReportRadii:
    def test_eighth(self):
        rep = report_radii(Fraction(1, 100), Fraction(1, 8))
        assert rep.distance == Fraction(1, 25)  # 0.04
        assert rep.new_exact == Fraction(3, 200)  # 1.5 * alpha = 0.015
        assert rep.prior == Fraction(5, 6) * Fraction(1, 100)
        assert rep.regime == "1/8 <= eps < 1/4"

    def test_point_two(self):
        rep = report_radii(Fraction(1, 100), Fraction(1, 5))
        assert rep.new_exact == Fraction(3, 16) * 5 * Fraction(1, 100)  # 0.9375*alpha

    def test_small_eps_regime_is_irrational(self):
        rep = report_radii(Fraction(1, 100), Fraction(1, 20))
        assert rep.regime == "eps < (3-2*sqrt(2))/2"
        assert rep.new_exact is None
        assert rep.new_value == pytest.approx(
            (math.sqrt(2) - 1) / (2 * 0.05) * 0.01, abs=1e-15
        )

    def test_middle_regime(self):
        rep = report_radii(Fraction(1, 100), Fraction(1, 10))
        assert rep.regime == "(3-2*sqrt(2))/2 <= eps < 1/8"
        assert rep.new_exact == (1 - Fraction(2, 10)) / Fraction(4, 10) * Fraction(1, 100)

    def test_boundary_continuity(self):
        # at eps = (3-2*sqrt(2))/2 both regime formulas coincide
        eps = (3 - 2 * math.sqrt(2)) / 2
        lhs = (1 - 2 * eps) / (4 * eps)
        rhs = (math.sqrt(2) - 1) / (2 * eps)
        assert abs(lhs - rhs) <= 1e-12

    def test_no_improvement_regime(self):
        rep = report_radii(Fraction(1, 100), Fraction(3, 10))
        assert rep.new_value is None and rep.prior is not None
        rep = report_radii(Fraction(1, 100), Fraction(2, 5))
        assert rep.prior is None

    def test_rejects_bad_eps(self):
        with pytest.raises(InvalidParameters):
            report_radii(Fraction(1, 100), Fraction(1, 2))

    @pytest.mark.parametrize("alpha, eps", [
        (Fraction(1, 100), Fraction(1, 10**400)),  # float(eps) == 0
        (Fraction(1), Fraction(1, 10**310)),  # float(alpha/eps) overflows
    ])
    def test_rejects_eps_beyond_float_range(self, alpha, eps):
        with pytest.raises(InvalidParameters):
            report_radii(alpha, eps)

    def test_table_renders(self):
        text = format_radii_table(report_radii(Fraction(1, 100), Fraction(1, 8)))
        assert "distance / N" in text and "3/200" in text
