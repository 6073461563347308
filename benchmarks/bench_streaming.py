"""Benchmark: in-memory vs streaming Figure 6 aggregation (RAM + time).

Runs a small case suite once into an artifact cache, then re-derives the
Figure 6 report two ways from the warm cache:

* **in-memory** — ``Campaign(...).run()``, which returns every raw
  :class:`CaseResult` panel, folded once all of them are held;
* **streaming** — ``aggregate_from_cache``, folding one artifact at a time
  through the :class:`~repro.campaign.aggregate.SuiteAggregator`.

Reports wall time and the ``tracemalloc`` peak of both, asserts the
reports are bit-identical, and demonstrates the O(1)-memory claim on a
mocked large suite (big synthetic panels) where retention would cost
hundreds of MB.  Scale with ``REPRO_SCALE`` like every other benchmark.
"""

import time
import tracemalloc

import numpy as np

from benchmarks.conftest import run_once
from repro.campaign import (
    ArtifactCache,
    Campaign,
    CampaignCase,
    SuiteAggregator,
    expand_suite,
)
from repro.core.metrics import METRIC_NAMES
from repro.core.panel import MetricPanel
from repro.core.study import CaseResult
from repro.experiments import fig6_aggregate
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import get_scale


def _suite() -> list[CaseSpec]:
    return [
        CaseSpec("cholesky", 3, 1.01),
        CaseSpec("cholesky", 5, 1.1),
        CaseSpec("random", 10, 1.01),
        CaseSpec("random", 30, 1.1),
        CaseSpec("ge", 4, 1.01),
        CaseSpec("ge", 7, 1.1),
    ]


def _traced(fn):
    tracemalloc.start()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return out, elapsed, peak


def test_streaming_vs_inmemory_fig6_aggregation(benchmark, report, tmp_path):
    scale = get_scale(None)
    specs = _suite()
    cache = ArtifactCache(tmp_path / "artifacts")

    t0 = time.perf_counter()
    fig6_aggregate.run(scale, specs=specs, jobs=2, cache=cache)
    compute_s = time.perf_counter() - t0

    def in_memory_fold():
        cases = expand_suite(specs, scale)
        results = Campaign(cases, cache=cache).run()  # every panel held
        aggregator = SuiteAggregator()
        for index, (case, result) in enumerate(zip(cases, results)):
            aggregator.add_case(index, case, result)
        return aggregator.finalize()

    in_memory, mem_s, mem_peak = _traced(in_memory_fold)
    streamed = run_once(
        benchmark,
        lambda: fig6_aggregate.aggregate_from_cache(scale, specs=specs, cache=cache),
    )
    _, stream_s, stream_peak = _traced(
        lambda: fig6_aggregate.aggregate_from_cache(scale, specs=specs, cache=cache)
    )

    report(
        f"fig6 aggregation over {len(specs)} cases (compute+store {compute_s:.2f}s):\n"
        f"  in-memory (panels retained): {mem_s:.2f}s, peak {mem_peak / 1e6:.1f} MB\n"
        f"  streaming (cache replay):    {stream_s:.2f}s, peak {stream_peak / 1e6:.1f} MB"
    )
    report(streamed.render())

    assert np.array_equal(in_memory.mean, streamed.mean, equal_nan=True)
    assert np.array_equal(in_memory.std, streamed.std, equal_nan=True)
    assert in_memory.rel_mean == streamed.rel_over_m_vs_std_mean


def test_streaming_memory_is_flat_on_mocked_large_suite(report):
    """Retention grows linearly with the suite; the aggregator does not."""
    n_cases, n_random = 60, 50_000
    panel_mb = n_random * len(METRIC_NAMES) * 8 / 1e6

    def fake(index: int) -> tuple[CampaignCase, CaseResult]:
        rng = np.random.default_rng(index)
        values = np.abs(rng.normal(size=(n_random, len(METRIC_NAMES)))) + 1.0
        case = CampaignCase(
            spec=CaseSpec("random", 10, 1.1, index), n_random=n_random
        )
        result = CaseResult(
            name=f"fake_{index}",
            panel=MetricPanel(values),
            pearson=rng.uniform(-1.0, 1.0, size=(8, 8)),
            heuristic_metrics={},
        )
        return case, result

    def retained() -> list[CaseResult]:
        return [fake(i)[1] for i in range(n_cases)]

    def streaming() -> SuiteAggregator:
        agg = SuiteAggregator()
        for i in range(n_cases):
            agg.add_case(i, *fake(i))
        return agg

    _, retain_s, retain_peak = _traced(retained)
    agg, stream_s, stream_peak = _traced(streaming)
    assert agg.finalize().n_cases == n_cases

    report(
        f"mocked suite: {n_cases} cases × {panel_mb:.1f} MB panels\n"
        f"  retain all panels: {retain_s:.2f}s, peak {retain_peak / 1e6:.1f} MB\n"
        f"  streaming fold:    {stream_s:.2f}s, peak {stream_peak / 1e6:.1f} MB"
    )
    # The streamed peak is a few live panels, not the whole suite.
    assert stream_peak < retain_peak / 4
