"""Micro-benchmark: campaign fan-out vs the serial case loop.

Runs a small case suite serially (``jobs=1``) and with two workers
(``jobs=2``), reports both wall times and the speedup, and asserts the
results are bit-identical (the campaign determinism guarantee) — plus a
cache-warm replay that must do no case work at all.  A second bench
compares the execution backends (serial / process pool / 2-worker queue
fleet) on the same suite: the queue fleet pays worker start-up plus
manifest + claim + partial + artifact-file overhead per shard, which this
bench quantifies (``bench_queue.py`` records it as a ``BENCH_core.json``
row).

Scale with ``REPRO_SCALE`` like every other benchmark; at quick scale this
is a ~minute-long experiment.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.campaign import (
    ArtifactCache,
    Campaign,
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    expand_suite,
)
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


def test_campaign_parallel_speedup(benchmark, report, tmp_path):
    cases = expand_suite(_suite(), get_scale(None), base_seed=7)

    t0 = time.perf_counter()
    serial = Campaign(cases, jobs=1).run()
    serial_s = time.perf_counter() - t0

    parallel = run_once(benchmark, lambda: Campaign(cases, jobs=2).run())

    t0 = time.perf_counter()
    cache = ArtifactCache(tmp_path / "artifacts")
    Campaign(cases, jobs=2, cache=cache).run()
    warm_cache = ArtifactCache(cache.root)
    Campaign(cases, jobs=2, cache=warm_cache).run()
    warm_s = time.perf_counter() - t0

    parallel_s = benchmark.stats.stats.mean
    report(
        f"campaign of {len(cases)} cases: serial {serial_s:.2f}s, "
        f"2 workers {parallel_s:.2f}s ({serial_s / parallel_s:.2f}x), "
        f"cache store+warm replay {warm_s:.2f}s"
    )

    for a, b in zip(serial, parallel):
        assert np.array_equal(a.panel.values, b.panel.values)
    assert warm_cache.stats.hits == len(cases)


def test_campaign_backend_comparison(benchmark, report):
    """Serial vs process-pool vs 2-worker queue fleet on the same suite."""
    cases = expand_suite(_suite(), get_scale(None), base_seed=7)

    t0 = time.perf_counter()
    serial = Campaign(cases, backend=SerialBackend()).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = Campaign(cases, backend=ProcessPoolBackend(2)).run()
    pool_s = time.perf_counter() - t0

    queued = run_once(
        benchmark,
        lambda: Campaign(cases, backend=QueueBackend(n_shards=2, jobs=2)).run(),
    )
    queue_s = benchmark.stats.stats.mean

    report(
        f"backends over {len(cases)} cases: serial {serial_s:.2f}s, "
        f"process×2 {pool_s:.2f}s ({serial_s / pool_s:.2f}x), "
        f"queue fleet×2 {queue_s:.2f}s ({serial_s / queue_s:.2f}x incl. "
        "worker start-up and manifest/claim/partial/artifact file overhead)"
    )

    for a, b, c in zip(serial, pooled, queued):
        assert np.array_equal(a.panel.values, b.panel.values)
        assert np.array_equal(a.panel.values, c.panel.values)
