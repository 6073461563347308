"""Micro-benchmark: queue-backed fleet vs the local process pool.

Times the same case suite through :class:`ProcessPoolBackend` (the
``--jobs N`` default: one pool, per-case load balancing) and the
:class:`QueueBackend` (filesystem work queue, ``campaign queue-worker``
subprocesses, reaper) and reports the overhead the queue protocol adds —
worker start-up, claim files, heartbeats, per-shard partial landing, and
coordinator polling.  Both result sets must stay bit-identical to the
serial loop; the queue's price is latency only, never results.

Scale with ``REPRO_SCALE`` like every other benchmark.  Records an
``op="queue_campaign"`` row (ratio = pool wall / queue wall) into
``BENCH_core.json`` so queue overhead is trackable across PRs.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.campaign import (
    Campaign,
    ProcessPoolBackend,
    QueueBackend,
    QueueConfig,
    expand_suite,
)
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import get_scale


def _suite(quick: bool) -> list[CaseSpec]:
    specs = [
        CaseSpec("cholesky", 3, 1.01),
        CaseSpec("cholesky", 5, 1.1),
        CaseSpec("random", 10, 1.01),
        CaseSpec("random", 30, 1.1),
        CaseSpec("ge", 4, 1.01),
        CaseSpec("ge", 7, 1.1),
    ]
    return specs[:3] if quick else specs


def test_queue_backend_overhead(benchmark, report, record_bench, bench_quick):
    """Process pool vs queue fleet on one suite, identical results."""
    cases = expand_suite(_suite(bench_quick), get_scale(None), base_seed=7)

    t0 = time.perf_counter()
    serial = Campaign(cases, jobs=1).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = Campaign(cases, backend=ProcessPoolBackend(2)).run()
    pool_s = time.perf_counter() - t0

    config = QueueConfig(lease_seconds=30.0, poll_seconds=0.1)
    queued = run_once(
        benchmark,
        lambda: Campaign(
            cases,
            backend=QueueBackend(n_shards=2, jobs=2, config=config),
        ).run(),
    )
    queue_s = benchmark.stats.stats.mean

    report(
        f"queue fleet over {len(cases)} cases: serial {serial_s:.2f}s, "
        f"process x2 {pool_s:.2f}s, queue 2x2 {queue_s:.2f}s "
        f"({queue_s / pool_s:.2f}x of the pool — worker start-up + "
        "claim/heartbeat/partial + poll overhead)"
    )
    record_bench(
        op="queue_campaign",
        shape=f"suite_{len(cases)}cases_2workers",
        ns_per_op=queue_s * 1e9,
        baseline_ns_per_op=pool_s * 1e9,
        ratio=pool_s / queue_s,
    )

    for a, b, c in zip(serial, pooled, queued):
        assert np.array_equal(a.panel.values, b.panel.values)
        assert np.array_equal(a.panel.values, c.panel.values)
