"""The streaming suite aggregation: bit-identity, partials, O(1) memory."""

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


def assert_fig6_results_identical(a, b, compare_panels=False):
    assert np.array_equal(a.mean, b.mean, equal_nan=True)
    assert np.array_equal(a.std, b.std, equal_nan=True)
    assert a.rel_over_m_vs_std_mean == b.rel_over_m_vs_std_mean
    assert a.rel_over_m_vs_std_std == b.rel_over_m_vs_std_std
    assert a.heuristic_rows == b.heuristic_rows
    assert a.n_cases == b.n_cases
    if compare_panels:
        for ra, rb in zip(a.case_results, b.case_results):
            assert np.array_equal(ra.panel.values, rb.panel.values)


class TestFig6Streaming:
    @pytest.mark.fleet
    def test_memory_stream_and_cache_aggregate_bit_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        mem = fig6_aggregate.run(TINY, specs=SPECS, jobs=2, cache=cache)
        streamed = fig6_aggregate.run(TINY, specs=SPECS, stream=True, cache=cache)
        from_cache = fig6_aggregate.aggregate_from_cache(
            TINY, specs=SPECS, cache=cache
        )
        assert mem.case_results is not None and len(mem.case_results) == len(SPECS)
        assert streamed.case_results is None
        assert from_cache.case_results is None
        assert_fig6_results_identical(mem, streamed)
        assert_fig6_results_identical(mem, from_cache)
        assert "Fig. 6" in from_cache.render()
        assert "heuristic" in from_cache.heuristic_summary()

    def test_keep_case_results_flag_overrides_default(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        kept = fig6_aggregate.run(
            TINY, specs=SPECS, cache=cache, stream=True, keep_case_results=True
        )
        dropped = fig6_aggregate.run(
            TINY, specs=SPECS, cache=cache, keep_case_results=False
        )
        assert kept.case_results is not None
        assert dropped.case_results is None
        assert_fig6_results_identical(kept, dropped)

    def test_partial_cache_aggregates_completed_cases_exactly(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        fig6_aggregate.run(TINY, specs=SPECS, cache=cache)
        # Simulate an interrupted sweep: the middle case never finished.
        cases = expand_suite(SPECS, TINY)
        cache.path_for(cases[1]).unlink()
        partial = fig6_aggregate.aggregate_from_cache(TINY, specs=SPECS, cache=cache)
        assert partial.n_cases == 2
        assert "partial: 2/3" in partial.render()
        # Exact: equal to aggregating only the completed cases in-memory.
        reference = fig6_aggregate.run(
            TINY, specs=[SPECS[0], SPECS[2]], cache=cache, keep_case_results=False
        )
        assert np.array_equal(partial.mean, reference.mean, equal_nan=True)
        assert np.array_equal(partial.std, reference.std, equal_nan=True)
        assert partial.rel_over_m_vs_std_mean == reference.rel_over_m_vs_std_mean

    def test_empty_cache_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path / "empty")
        with pytest.raises(ValueError, match="no artifacts"):
            fig6_aggregate.aggregate_from_cache(TINY, specs=SPECS, cache=cache)
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

    def test_merge_agrees_with_sequential_fold_to_1e12(self):
        pairs = [_fake_case_and_result(i) for i in range(12)]
        sequential = SuiteAggregator()
        for i, (case, result) in enumerate(pairs):
            sequential.add_case(i, case, result)
        left, right = SuiteAggregator(), SuiteAggregator(ordered=False)
        for i, (case, result) in enumerate(pairs[:7]):
            left.add_case(i, case, result)
        for i, (case, result) in enumerate(pairs[7:]):
            right.add_case(7 + i, case, result)
        left.merge(right)
        a, b = sequential.finalize(), left.finalize()
        assert a.n_cases == b.n_cases == 12
        assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12, equal_nan=True)
        assert np.allclose(a.std, b.std, rtol=1e-12, atol=1e-12, equal_nan=True)
        assert abs(a.rel_mean - b.rel_mean) < 1e-12

    def test_merge_empty_aggregator_is_a_noop(self):
        pairs = [_fake_case_and_result(i) for i in range(4)]
        full = SuiteAggregator()
        for i, (case, result) in enumerate(pairs):
            full.add_case(i, case, result)
        reference = full.finalize()

        # empty folded *into* a populated aggregator...
        padded = SuiteAggregator()
        for i, (case, result) in enumerate(pairs):
            padded.add_case(i, case, result)
        padded.merge(SuiteAggregator())
        a = padded.finalize()
        assert a.n_cases == reference.n_cases
        assert np.array_equal(a.mean, reference.mean, equal_nan=True)
        assert np.array_equal(a.std, reference.std, equal_nan=True)

        # ...and a populated aggregator folded into an empty one.
        empty = SuiteAggregator()
        empty.merge(full)
        b = empty.finalize()
        assert b.n_cases == reference.n_cases
        assert np.array_equal(b.mean, reference.mean, equal_nan=True)
        assert b.heuristic_rows == reference.heuristic_rows

    def test_merge_disjoint_shard_case_sets(self):
        # Interleaved (non-contiguous) shards, the hash-partition shape.
        pairs = [_fake_case_and_result(i) for i in range(6)]
        even, odd = SuiteAggregator(ordered=False), SuiteAggregator(ordered=False)
        for i, (case, result) in enumerate(pairs):
            (even if i % 2 == 0 else odd).add_case(i, case, result)
        even.merge(odd)
        merged = even.finalize()
        assert merged.n_cases == 6
        sequential = SuiteAggregator()
        for i, (case, result) in enumerate(pairs):
            sequential.add_case(i, case, result)
        reference = sequential.finalize()
        assert np.allclose(
            merged.mean, reference.mean, rtol=1e-12, atol=1e-12, equal_nan=True
        )

    def test_merge_rejects_overlapping_case_sets(self):
        case, result = _fake_case_and_result(0)
        a, b = SuiteAggregator(ordered=False), SuiteAggregator(ordered=False)
        a.add_case(3, case, result)
        b.add_case(3, case, result)
        with pytest.raises(ValueError, match="duplicate case indices"):
            a.merge(b)

    def test_fold_rejects_duplicate_index_even_unordered(self):
        case, result = _fake_case_and_result(0)
        agg = SuiteAggregator(ordered=False)
        agg.add_case(2, case, result)
        with pytest.raises(ValueError, match="duplicate case index"):
            agg.add_case(2, case, result)

    def test_merge_with_buffered_contributions_rejected(self):
        case, result = _fake_case_and_result(5)
        holding = SuiteAggregator()
        holding.add_case(3, case, result)  # index 3 ≠ next (0): buffered
        assert holding.n_buffered == 1
        other = SuiteAggregator()
        with pytest.raises(ValueError, match="undrained"):
            other.merge(holding)

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
        assert len(stored) == 1  # one artifact (plus the cache index)
        # The partial cache aggregates exactly the completed prefix.
        agg = SuiteAggregator(ordered=False)
        for i, case, result in cache.iter_results(cases):
            agg.add_case(i, case, result)
        assert agg.n_cases == 1


class TestCacheIterResults:
    def test_directory_scan_yields_valid_artifacts(self, tmp_path):
        cases = [
            CampaignCase(spec=s, base_seed=7, n_random=6, grid_n=65) for s in SPECS
        ]
        cache = ArtifactCache(tmp_path / "cache")
        results = Campaign(cases, cache=cache).run()
        by_key = {c.key: r for c, r in zip(cases, results)}
        scanned = list(cache.iter_results())
        assert len(scanned) == len(cases)
        assert [i for i, _, _ in scanned] == [0, 1, 2]
        for _, case, result in scanned:
            assert np.array_equal(
                result.panel.values, by_key[case.key].panel.values
            )

    def test_directory_scan_skips_corrupt_files(self, tmp_path):
        cases = [CampaignCase(spec=SPECS[0], base_seed=7, n_random=6, grid_n=65)]
        cache = ArtifactCache(tmp_path / "cache")
        Campaign(cases, cache=cache).run()
        (tmp_path / "cache" / "zz-corrupt.json").write_text("{not json")
        corrupt_before = cache.stats.corrupt
        scanned = list(cache.iter_results())
        assert len(scanned) == 1
        assert cache.stats.corrupt == corrupt_before + 1

    def test_missing_directory_is_empty_iteration(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created")
        assert list(cache.iter_results()) == []
        assert list(cache.iter_results([])) == []


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

    def test_case_rows_follow_fold_order_and_survive_merge(self):
        pairs = [_fake_case_and_result(i) for i in range(4)]
        agg = SuiteAggregator()
        for index in (2, 0, 3, 1):  # arrival order ≠ case order
            agg.add_case(index, *pairs[index])
        rows = agg.finalize().case_rows
        assert [name for name, _, _ in rows] == [f"fake_{i}" for i in range(4)]
        assert all(np.isfinite(p50) and np.isfinite(p95) for _, p50, p95 in rows)

        half_a, half_b = SuiteAggregator(ordered=False), SuiteAggregator(ordered=False)
        half_a.add_case(0, *pairs[0])
        half_a.add_case(1, *pairs[1])
        half_b.add_case(2, *pairs[2])
        half_b.add_case(3, *pairs[3])
        half_a.merge(half_b)
        assert half_a.finalize().case_rows == rows

    def test_percentile_column_rendered_and_identical_across_paths(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run = fig6_aggregate.run(TINY, specs=SPECS, cache=cache, stream=True)
        from_cache = fig6_aggregate.aggregate_from_cache(
            TINY, specs=SPECS, cache=cache
        )
        assert run.case_rows == from_cache.case_rows
        assert len(run.case_rows) == len(SPECS)
        table = run.percentile_summary()
        assert "p50(M)" in table and "p95(M)" in table
        for name, p50, p95 in run.case_rows:
            assert name in table
            assert 0.0 < p50 <= p95
        assert run.percentile_summary() in run.render()
