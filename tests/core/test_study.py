"""Case-level study runner."""

import numpy as np
import pytest

from repro.core import evaluate_case
from repro.core.metrics import METRIC_NAMES


class TestEvaluateCase:
    def test_panel_composition(self, small_workload, model):
        res = evaluate_case(small_workload, model, n_random=10, rng=0, name="t")
        # 10 random + 3 heuristics
        assert res.panel.n_schedules == 13
        assert set(res.heuristic_metrics) == {"heft", "bil", "bmct"}
        assert res.name == "t"

    def test_pearson_over_random_only(self, small_workload, model):
        res = evaluate_case(small_workload, model, n_random=10, rng=0)
        assert res.pearson.shape == (len(METRIC_NAMES), len(METRIC_NAMES))
        assert np.allclose(np.diag(res.pearson), 1.0)

    def test_requires_two_random(self, small_workload, model):
        with pytest.raises(ValueError):
            evaluate_case(small_workload, model, n_random=1, rng=0)

    def test_custom_heuristics(self, small_workload, model):
        res = evaluate_case(
            small_workload, model, n_random=5, rng=0, heuristics=("heft", "cpop")
        )
        assert set(res.heuristic_metrics) == {"heft", "cpop"}

    def test_heuristics_have_good_makespan(self, small_workload, model):
        res = evaluate_case(small_workload, model, n_random=30, rng=1)
        rand_makespans = res.panel.column("makespan")[:30]
        for hm in res.heuristic_metrics.values():
            assert hm.makespan <= np.percentile(rand_makespans, 25)

    def test_spelde_method_panel(self, small_workload, model):
        res = evaluate_case(
            small_workload, model, n_random=6, rng=2, method="spelde"
        )
        assert res.panel.n_schedules == 9

    def test_determinism(self, small_workload, model):
        a = evaluate_case(small_workload, model, n_random=5, rng=42)
        b = evaluate_case(small_workload, model, n_random=5, rng=42)
        assert np.allclose(a.panel.values, b.panel.values)


class TestBatchedMonteCarlo:
    def test_batched_panel_composition(self, small_workload, model):
        res = evaluate_case(
            small_workload,
            model,
            n_random=6,
            rng=3,
            method="montecarlo",
            mc_realizations=500,
            mc_batch=True,
        )
        assert res.panel.n_schedules == 9
        assert set(res.heuristic_metrics) == {"heft", "bil", "bmct"}
        assert res.pearson.shape == (len(METRIC_NAMES), len(METRIC_NAMES))

    def test_batched_is_deterministic(self, small_workload, model):
        kwargs = dict(
            n_random=5, rng=7, method="montecarlo", mc_realizations=400, mc_batch=True
        )
        a = evaluate_case(small_workload, model, **kwargs)
        b = evaluate_case(small_workload, model, **kwargs)
        assert np.array_equal(a.panel.values, b.panel.values)

    def test_batched_agrees_with_unbatched_statistically(
        self, small_workload, model
    ):
        kwargs = dict(n_random=5, rng=8, method="montecarlo", mc_realizations=6000)
        batched = evaluate_case(small_workload, model, mc_batch=True, **kwargs)
        solo = evaluate_case(small_workload, model, **kwargs)
        # The random populations differ (the two paths interleave draws
        # differently), so compare the heuristics — deterministic
        # schedules whose MC means must agree between the paths.
        for name in batched.heuristic_metrics:
            assert batched.heuristic_metrics[name].makespan == pytest.approx(
                solo.heuristic_metrics[name].makespan, rel=1e-2
            )

    def test_mc_batch_rejected_for_analytic_methods(self, small_workload, model):
        # Historically mc_batch=True was silently ignored for analytic
        # methods, quietly running the slow per-schedule path.
        with pytest.raises(ValueError, match="mc_batch"):
            evaluate_case(small_workload, model, n_random=5, rng=9, mc_batch=True)
        with pytest.raises(ValueError, match="mc_batch"):
            evaluate_case(
                small_workload, model, n_random=5, rng=9,
                method="spelde", mc_batch=True,
            )


class TestSharedEngineAndFastConv:
    def test_panel_matches_per_schedule_engines(self, small_workload, model):
        """The case-wide shared engine is bit-identical to fresh engines."""
        from repro.core.metrics import evaluate_schedule
        from repro.schedule import ALL_HEURISTICS
        from repro.schedule.random_schedule import random_schedules
        from repro.util.rng import as_generator

        for method in ("classical", "dodin"):
            res = evaluate_case(
                small_workload, model, n_random=5, rng=21, method=method
            )
            gen = as_generator(21)
            solo = [
                evaluate_schedule(s, model, method=method).as_array()
                for s in random_schedules(small_workload, 5, gen)
            ]
            for hname in ("heft", "bil", "bmct"):
                schedule = ALL_HEURISTICS[hname](small_workload)
                solo.append(
                    evaluate_schedule(schedule, model, method=method).as_array()
                )
            assert np.array_equal(res.panel.values, np.array(solo))

    def test_fast_conv_smoke(self, small_workload, model):
        res = evaluate_case(
            small_workload, model.with_fast_conv(), n_random=5, rng=22
        )
        assert res.panel.n_schedules == 8
        assert np.isfinite(res.panel.values).all()
