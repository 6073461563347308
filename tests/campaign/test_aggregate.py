"""The streaming suite aggregation: bit-identity, partial caches, O(1) memory."""

import tracemalloc

import numpy as np
import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    CampaignCase,
    SuiteAggregator,
    case_contribution,
    expand_suite,
)
from repro.core.metrics import METRIC_NAMES
from repro.core.panel import MetricPanel
from repro.core.study import CaseResult
from repro.experiments import fig6_aggregate
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

SPECS = [
    CaseSpec("cholesky", 3, 1.01),
    CaseSpec("cholesky", 3, 1.1),
    CaseSpec("random", 10, 1.1),
]


def _fake_case_and_result(index: int, n_random: int = 50) -> tuple[CampaignCase, CaseResult]:
    """A synthetic finished case with a panel of ``n_random`` rows."""
    rng = np.random.default_rng(index)
    values = np.abs(rng.normal(size=(n_random, len(METRIC_NAMES)))) + 1.0
    case = CampaignCase(spec=CaseSpec("random", 10, 1.1, index), n_random=n_random)
    result = CaseResult(
        name=f"fake_{index}",
        panel=MetricPanel(values),
        pearson=rng.uniform(-1.0, 1.0, size=(8, 8)),
        heuristic_metrics={},
    )
    return case, result


def assert_fig6_results_identical(a, b):
    a, b = a.aggregate, b.aggregate
    assert np.array_equal(a.mean, b.mean, equal_nan=True)
    assert np.array_equal(a.std, b.std, equal_nan=True)
    assert a.rel_mean == b.rel_mean
    assert a.rel_std == b.rel_std
    assert a.heuristic_rows == b.heuristic_rows
    assert a.n_cases == b.n_cases


class TestFig6Streaming:
    @pytest.mark.fleet
    def test_parallel_warm_and_cache_aggregate_bit_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        parallel = fig6_aggregate.run(TINY, specs=SPECS, jobs=2, cache=cache)
        warm = fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        from_cache = fig6_aggregate.aggregate_from_cache(
            TINY, specs=SPECS, cache=cache
        )
        assert_fig6_results_identical(parallel, warm)
        assert_fig6_results_identical(parallel, from_cache)
        assert from_cache.render() == parallel.render()
        assert "Fig. 6" in from_cache.render()
        assert "heuristic" in from_cache.aggregate.heuristic_summary()

    def test_partial_cache_aggregates_completed_cases_exactly(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        # Simulate an interrupted sweep: the middle case never finished.
        cases = expand_suite(SPECS, TINY)
        cache.path_for(cases[1]).unlink()
        partial = fig6_aggregate.aggregate_from_cache(TINY, specs=SPECS, cache=cache)
        assert partial.aggregate.n_cases == 2
        assert "partial: 2/3" in partial.render()
        # Exact: equal to aggregating only the completed cases in-memory.
        reference = fig6_aggregate.run(
            TINY, specs=[SPECS[0], SPECS[2]], cache=cache
        )
        partial, reference = partial.aggregate, reference.aggregate
        assert np.array_equal(partial.mean, reference.mean, equal_nan=True)
        assert np.array_equal(partial.std, reference.std, equal_nan=True)
        assert partial.rel_mean == reference.rel_mean

    def test_case_list_is_its_own_suite(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        cases = expand_suite(SPECS, TINY)
        # 3 of the 3 cases asked for, not 3 of the 24-case fig-6 suite.
        result = fig6_aggregate.aggregate_from_cache(cases=cases, cache=cache)
        assert "(partial:" not in result.render()
        assert result.suite_size == result.aggregate.n_cases == 3
        assert_fig6_results_identical(
            fig6_aggregate.run(cases=cases, cache=cache), result
        )
        cache.path_for(cases[0]).unlink()
        result = fig6_aggregate.aggregate_from_cache(cases=cases, cache=cache)
        assert "(partial: 2/3 cases)" in result.render()

    def test_empty_cache_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path / "empty")
        with pytest.raises(ValueError, match="no artifacts"):
            fig6_aggregate.aggregate_from_cache(TINY, specs=SPECS, cache=cache)
        cases = expand_suite(SPECS, TINY)
        with pytest.raises(ValueError, match=r"of the 3 requested case\(s\) found in"):
            fig6_aggregate.aggregate_from_cache(cases=cases, cache=cache)
        with pytest.raises(ValueError, match="artifact cache"):
            fig6_aggregate.aggregate_from_cache(TINY, specs=SPECS, cache=None)


class TestSuiteAggregator:
    def test_fold_is_independent_of_arrival_order(self):
        pairs = [_fake_case_and_result(i) for i in range(8)]
        contributions = [
            case_contribution(i, case, result)
            for i, (case, result) in enumerate(pairs)
        ]
        in_order = SuiteAggregator()
        for c in contributions:
            in_order.add(c)
        shuffled = SuiteAggregator()
        order = np.random.default_rng(42).permutation(len(contributions))
        for idx in order:
            shuffled.add(contributions[idx])
        a, b = in_order.finalize(), shuffled.finalize()
        assert np.array_equal(a.mean, b.mean, equal_nan=True)
        assert np.array_equal(a.std, b.std, equal_nan=True)
        assert a.rel_mean == b.rel_mean and a.rel_std == b.rel_std
        assert shuffled.n_buffered == 0

    def test_duplicate_index_rejected(self):
        case, result = _fake_case_and_result(0)
        agg = SuiteAggregator()
        agg.add_case(0, case, result)
        with pytest.raises(ValueError, match="duplicate"):
            agg.add_case(0, case, result)

    def test_fold_rejects_duplicate_index_even_unordered(self):
        case, result = _fake_case_and_result(0)
        agg = SuiteAggregator(ordered=False)
        agg.add_case(2, case, result)
        with pytest.raises(ValueError, match="duplicate case index"):
            agg.add_case(2, case, result)

    def test_finalize_empty_rejected(self):
        with pytest.raises(ValueError, match="no case results"):
            SuiteAggregator().finalize()

    def test_aggregation_memory_is_constant_in_suite_size(self):
        """Streaming a mocked suite must not accumulate panels.

        The fold's tracemalloc peak over 20 cases stays within one panel of
        its peak over 5; holding every case's panel would add 15 panels
        (4.8 MB).
        """
        n_random = 5_000
        panel_bytes = n_random * len(METRIC_NAMES) * 8  # 320 kB each

        def fold_peak(n_cases):
            tracemalloc.start()
            agg = SuiteAggregator()
            for i in range(n_cases):
                agg.add_case(i, *_fake_case_and_result(i, n_random=n_random))
            aggregate = agg.finalize()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert aggregate.n_cases == n_cases
            return peak

        small, large = fold_peak(5), fold_peak(20)
        assert large - small < panel_bytes, (
            f"peak grew {(large - small) / 1e6:.2f} MB from 5 to 20 cases"
        )
        # A few live panels at a time, never the whole suite.
        assert large < 6 * panel_bytes, f"peak {large / 1e6:.2f} MB"


class TestCampaignIterResults:
    def _cases(self):
        return [
            CampaignCase(spec=s, base_seed=99, n_random=8, grid_n=65) for s in SPECS
        ]

    @pytest.mark.fleet
    def test_iter_results_yields_every_case_once(self):
        cases = self._cases()
        campaign = Campaign(cases, jobs=2)
        seen = {}
        for i, case, result in campaign.iter_results():
            assert case is cases[i]
            assert i not in seen
            seen[i] = result
        assert sorted(seen) == [0, 1, 2]
        reference = Campaign(cases, jobs=1).run()
        for i, result in seen.items():
            assert np.array_equal(result.panel.values, reference[i].panel.values)

    def test_results_persisted_before_yield(self, tmp_path):
        cases = self._cases()
        cache = ArtifactCache(tmp_path / "cache")
        campaign = Campaign(cases, jobs=1, cache=cache)
        for i, case, _ in campaign.iter_results():
            assert cache.path_for(case).exists()

    def test_abandoned_stream_keeps_completed_artifacts(self, tmp_path):
        cases = self._cases()
        cache = ArtifactCache(tmp_path / "cache")
        campaign = Campaign(cases, jobs=1, cache=cache)
        it = campaign.iter_results()
        next(it)
        it.close()  # consumer walks away mid-sweep
        stored = list((tmp_path / "cache").glob("*.json"))
        assert len(stored) == 1
        # The partial cache aggregates exactly the completed prefix.
        agg = SuiteAggregator(ordered=False)
        for i, case, result in cache.iter_results(cases):
            agg.add_case(i, case, result)
        assert agg.n_cases == 1


class TestCacheIterResults:
    def test_missing_directory_is_empty_iteration(self, tmp_path):
        cases = [CampaignCase(spec=SPECS[0], base_seed=7, n_random=6, grid_n=65)]
        cache = ArtifactCache(tmp_path / "never-created")
        assert list(cache.iter_results(cases)) == []
        assert list(cache.iter_results([])) == []
        assert cache.stats.misses == 1


class TestPercentileColumn:
    """The P²-streamed per-case p50/p95 makespan column (ROADMAP follow-up)."""

    def test_case_contribution_percentiles_track_exact_quantiles(self):
        case, result = _fake_case_and_result(3, n_random=400)
        c = case_contribution(0, case, result)
        ms = result.panel.column("makespan")[: case.n_random]
        # P² is approximate; at 400 samples it lands within a few percent.
        assert c.makespan_p50 == pytest.approx(float(np.quantile(ms, 0.5)), rel=0.05)
        assert c.makespan_p95 == pytest.approx(float(np.quantile(ms, 0.95)), rel=0.05)
        assert c.makespan_p50 <= c.makespan_p95

    def test_case_rows_follow_fold_order(self):
        pairs = [_fake_case_and_result(i) for i in range(4)]
        agg = SuiteAggregator()
        for index in (2, 0, 3, 1):  # arrival order ≠ case order
            agg.add_case(index, *pairs[index])
        rows = agg.finalize().case_rows
        assert [name for name, _, _ in rows] == [f"fake_{i}" for i in range(4)]
        assert all(np.isfinite(p50) and np.isfinite(p95) for _, p50, p95 in rows)

    def test_percentile_column_rendered_and_identical_across_paths(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run = fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        from_cache = fig6_aggregate.aggregate_from_cache(
            TINY, specs=SPECS, cache=cache
        )
        assert run.aggregate.case_rows == from_cache.aggregate.case_rows
        assert len(run.aggregate.case_rows) == len(SPECS)
        table = run.aggregate.percentile_summary()
        assert "p50(M)" in table and "p95(M)" in table
        for name, p50, p95 in run.aggregate.case_rows:
            assert name in table
            assert 0.0 < p50 <= p95
        assert table in run.render()
