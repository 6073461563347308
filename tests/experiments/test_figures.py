"""Every figure module runs at tiny scale and reproduces the paper's shape."""

import numpy as np
import pytest

from repro.experiments import fig1_precision, fig2_visual, fig345_panels
from repro.experiments import fig6_aggregate, fig78_clt, fig9_slack_quadrants
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import Scale

TINY = Scale(
    name="tiny",
    n_random_small=25,
    n_random_medium=12,
    n_random_large=6,
    mc_realizations=4_000,
    grid_n=65,
    fig1_sizes=(10, 30),
    fig8_max_sum=10,
)


class TestFig1:
    def test_bounds_and_rendering(self):
        res = fig1_precision.run(TINY, schedules_per_size=2)
        assert len(res.sizes) == 2
        assert all(0 <= k <= 1 for k in res.ks)
        assert all(c >= 0 for c in res.cm)
        assert "KS" in res.render()

    def test_error_grows_with_graph_size(self):
        # Per-schedule KS is noisy (±0.05) on small graphs, so the trend test
        # contrasts 10 vs 100 tasks where the gap is an order of magnitude.
        wide = Scale(
            name="wide",
            n_random_small=10,
            n_random_medium=10,
            n_random_large=4,
            mc_realizations=4_000,
            grid_n=65,
            fig1_sizes=(10, 100),
            fig8_max_sum=10,
        )
        res = fig1_precision.run(wide, schedules_per_size=3)
        assert res.ks[1] > res.ks[0], "independence error must grow with size"
        assert res.cm[1] > res.cm[0]


class TestFig2:
    def test_densities_overlap(self):
        res = fig2_visual.run(TINY, n_tasks=30)
        assert res.ks < 0.5
        # The densities must share support (visual closeness).
        both = (res.analytic_pdf > 0) & (res.empirical_pdf > 0)
        assert both.sum() > 20
        assert "KS" in res.render()


class TestPanels:
    def test_fig3_headline_block(self):
        res = fig345_panels.run_panel("Fig. 3", CaseSpec("cholesky", 3, 1.01), TINY)
        p = res.case.pearson
        names = list(
            __import__("repro.core.metrics", fromlist=["METRIC_NAMES"]).METRIC_NAMES
        )
        i_std = names.index("makespan_std")
        for other in ("makespan_entropy", "lateness", "abs_prob"):
            j = names.index(other)
            assert p[i_std, j] > 0.95, f"σ_M vs {other} must be ≈ 1"
        # §VII: oriented R/M vs σ_M close to 1.
        assert res.rel_prob_over_m_vs_std > 0.9
        assert "Pearson" in res.render()

    def test_fig4_and_fig5_specs(self):
        assert fig345_panels.FIG4_SPEC.n_tasks == 30
        assert fig345_panels.FIG5_SPEC.n_tasks == 104
        assert fig345_panels.FIG5_SPEC.ul == 1.1

    def test_heuristics_beat_random_on_makespan(self):
        res = fig345_panels.run_panel("Fig. 3", CaseSpec("cholesky", 3, 1.01), TINY)
        panel = res.case.panel
        n_rand = panel.n_schedules - len(res.case.heuristic_metrics)
        rand_ms = panel.column("makespan")[:n_rand]
        for hm in res.case.heuristic_metrics.values():
            assert hm.makespan < np.median(rand_ms)


class TestFig6:
    def test_mini_suite_aggregation(self):
        specs = [
            CaseSpec("cholesky", 3, 1.01),
            CaseSpec("cholesky", 3, 1.1),
            CaseSpec("random", 10, 1.1),
        ]
        res = fig6_aggregate.run(TINY, specs=specs)
        agg = res.aggregate
        assert agg.mean.shape == (8, 8)
        names = list(
            __import__("repro.core.metrics", fromlist=["METRIC_NAMES"]).METRIC_NAMES
        )
        i = names.index("makespan_std")
        j = names.index("lateness")
        assert agg.mean[i, j] > 0.95
        assert agg.std[i, j] < 0.2
        assert agg.rel_mean > 0.9
        assert "Fig. 6" in res.render()
        assert "heuristic" in agg.heuristic_summary()


class TestFig78:
    def test_fig7_moment_matching(self):
        res = fig78_clt.run_fig7()
        # The two densities share mean/σ by construction.
        assert res.mean == pytest.approx(13.0, abs=2.0)
        assert "special" in res.render()

    def test_fig8_monotone_convergence(self):
        res = fig78_clt.run_fig8(TINY)
        assert res.counts[0] == 1
        # KS decreases (CLT) and is small after ~10 sums (paper: negligible).
        assert res.ks[-1] < res.ks[0] / 3
        assert res.ks[min(9, len(res.ks) - 1)] < 0.05
        assert "Fig. 8" in res.render()


class TestFig9:
    def test_quadrants(self):
        res = fig9_slack_quadrants.run(TINY)
        checks = res.quadrant_check()
        assert all(checks.values()), f"quadrant violations: {checks}"
        assert "Fig. 9" in res.render()

    def test_serial_is_least_robust(self):
        res = fig9_slack_quadrants.run(TINY)
        by_label = dict(zip(res.labels, res.makespan_stds))
        assert by_label["c_serial"] > by_label["a_spread"]
        assert by_label["c_serial"] > by_label["b_balanced"]

    def test_streamed_median_tracks_the_mean(self):
        # The P²-estimated p50 of a narrow makespan distribution must land
        # within a few σ of the mean for every quadrant schedule.
        res = fig9_slack_quadrants.run(TINY)
        for mean, std, median in zip(
            res.makespans, res.makespan_stds, res.makespan_medians
        ):
            assert abs(median - mean) < 4 * std

    @pytest.mark.fleet
    def test_parallel_identical_to_serial(self):
        # Each quadrant samples from its own spawned child stream, so the
        # process fan-out cannot change the numbers.
        serial = fig9_slack_quadrants.run(TINY, jobs=1)
        fanned = fig9_slack_quadrants.run(TINY, jobs=2)
        assert serial == fanned
