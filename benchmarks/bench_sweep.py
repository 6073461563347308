"""Micro-benchmark: the sweep engine's warm fold and cold first-update.

Two rows for ``BENCH_core.json``:

* ``sweep_warm`` — a fully-cached sweep streamed end to end through the
  HTTP stack.  The row records cases folded per second; the zero-scan
  claim is asserted (the warm split probes each case's artifact path,
  never a directory walk).
* ``sweep_cold`` — an empty-cache sweep with an in-thread worker behind
  the queue: the row records time-to-first-update, i.e. how long a
  streaming client waits before the first incremental aggregate lands.

Scale with ``REPRO_SCALE`` like every other benchmark; ``--bench-quick``
shrinks the sweep to CI-smoke sizes.
"""

import json
import threading
import time
import urllib.parse
import urllib.request
from contextlib import contextmanager

from benchmarks.conftest import run_once
from repro.campaign import ArtifactCache, Campaign, QueueConfig
from repro.campaign.queue import queue_worker
from repro.caseset import parse
from repro.service import (
    AdmissionConfig,
    RobustnessService,
    ServiceConfig,
    make_server,
)

#: HIT-sized cases so the cold path measures dispatch, not scheduling.
MODS = "n_random[5] x mc_realizations[50] x grid_n[17] x base_seed[7]"


def _expr(n_seeds: int) -> str:
    return f"graph[rand10] x ul[1.1] x seed[0-{n_seeds - 1}] x {MODS}"


@contextmanager
def _serving(tmp_path, *, warm_expr: "str | None" = None):
    """An in-process sweep-capable service on an ephemeral port."""
    cache_dir = tmp_path / "cache"
    if warm_expr is not None:
        cache = ArtifactCache(cache_dir)
        for _ in Campaign(parse(warm_expr).cases(), cache=cache).iter_results():
            pass
    config = ServiceConfig(
        cache_dir=cache_dir,
        queue_dir=tmp_path / "queue",
        port=0,
        workers=0,
        admission=AdmissionConfig(max_inflight=4096),
        queue=QueueConfig(poll_seconds=0.02),
        poll_seconds=0.01,
        sweep_deadline_seconds=600.0,
    )
    service = RobustnessService(config)
    httpd = make_server(service)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        yield service
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)


def _stream_events(port: int, expr: str) -> "list[tuple[str, dict, float]]":
    """GET /sweep as ndjson, stamping each event's arrival time."""
    query = urllib.parse.urlencode({"expr": expr, "format": "ndjson"})
    events = []
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/sweep?{query}", timeout=600
    ) as resp:
        assert resp.status == 200
        for line in resp:
            payload = json.loads(line)
            events.append((payload.pop("event"), payload, time.perf_counter()))
    return events


def test_sweep_warm_throughput(
    benchmark, report, record_bench, bench_quick, tmp_path
):
    """Fully-cached sweep: cases folded per second, zero scans."""
    n_cases = 8 if bench_quick else 32
    expr = _expr(n_cases)
    with _serving(tmp_path, warm_expr=expr) as service:

        def sweep() -> float:
            t0 = time.perf_counter()
            events = _stream_events(service.port, expr)
            assert events[0][0] == "start"
            assert events[0][1]["warm"] == n_cases
            assert events[-1][0] == "done"
            assert events[-1][1]["aggregate"]["n_cases"] == n_cases
            return time.perf_counter() - t0

        wall = run_once(benchmark, sweep)
        # the zero-scan assertion behind the warm-split claim
        assert service.cache.stats.scans == 0
        assert service.stats.sweep_warm >= n_cases
    report(
        f"sweep warm path: {n_cases} cached cases folded in {wall:.3f}s — "
        f"{n_cases / wall:.0f} cases/s, 0 directory scans"
    )
    record_bench(
        op="sweep_warm",
        shape=f"{n_cases}cases",
        ns_per_op=wall / n_cases * 1e9,
        cases_per_s=n_cases / wall,
    )


def test_sweep_cold_time_to_first_update(
    benchmark, report, record_bench, bench_quick, tmp_path
):
    """Empty-cache sweep: how fast the first incremental aggregate lands."""
    n_cases = 2 if bench_quick else 4
    expr = _expr(n_cases)
    with _serving(tmp_path) as service:
        stop = threading.Event()
        worker = threading.Thread(
            target=queue_worker,
            args=(service.queue, service.cache.root),
            kwargs={
                "worker_id": "bench0",
                "forever": True,
                "stop": stop,
                "env_faults": False,
            },
        )
        worker.start()
        try:

            def sweep() -> float:
                t0 = time.perf_counter()
                events = _stream_events(service.port, expr)
                assert events[-1][0] == "done"
                first = next(
                    stamp
                    for name, _, stamp in events
                    if name in ("update", "done")
                )
                return first - t0

            ttfu = run_once(benchmark, sweep)
        finally:
            stop.set()
            worker.join(timeout=60.0)
    report(
        f"sweep cold path: first incremental aggregate after {ttfu:.2f}s "
        f"({n_cases}-case sweep, single in-thread worker)"
    )
    record_bench(
        op="sweep_cold",
        shape=f"{n_cases}cases",
        ns_per_op=ttfu * 1e9,
        first_update_s=ttfu,
    )
