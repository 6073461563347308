"""Micro-benchmark: the robustness service's hit path and saturation.

Three rows for ``BENCH_core.json``:

* ``service_hit`` — sequential warm-hit latency through the full HTTP
  stack (socket, admission gate, cache path lookup, canonical-JSON
  render).  The O(1) claim is asserted, not assumed: after the whole
  batch the cache's directory-``scans`` counter must still read zero.
* ``service_hit_remembered`` — one warm case in process
  (``handle_case`` plus render), timed as first lookups on a fresh
  :class:`~repro.campaign.cache.ArtifactCache` (full check and render)
  and as repeat lookups (remembered result and body).  The bodies must
  be identical and the repeat hit at least 5× cheaper.
* ``service_saturation`` — concurrent clients against a deliberately
  tiny admission gate.  Every response must resolve to a structured
  200 or 429 (graceful degradation is the product here); the row
  records served throughput plus how much was shed.

Scale with ``REPRO_SCALE`` like every other benchmark; ``--bench-quick``
shrinks the request counts to CI-smoke sizes.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

from benchmarks.conftest import run_once
from repro.campaign import ArtifactCache, QueueConfig
from repro.io.json_io import canonical_json
from repro.service import (
    AdmissionConfig,
    RobustnessService,
    ServiceConfig,
    case_from_query,
    make_server,
)

HIT = {"kind": "cholesky", "param": "3", "ul": "1.1", "n_random": "5", "base_seed": "7"}
QUERY = "&".join(f"{k}={v}" for k, v in HIT.items())


@contextmanager
def _serving(tmp_path, admission: AdmissionConfig):
    """A warm in-process service on an ephemeral port."""
    case = case_from_query(HIT)
    cache_dir = tmp_path / "cache"
    ArtifactCache(cache_dir).store(case, case.run())
    config = ServiceConfig(
        cache_dir=cache_dir,
        queue_dir=tmp_path / "queue",
        port=0,
        workers=0,
        admission=admission,
        queue=QueueConfig(poll_seconds=0.05),
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


def _get_status(port: int) -> int:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/case?{QUERY}", timeout=60
        ) as resp:
            resp.read()
            return resp.status
    except urllib.error.HTTPError as err:
        err.read()
        return err.code


def test_service_hit_latency(
    benchmark, report, record_bench, bench_quick, tmp_path
):
    """Sequential warm hits: end-to-end latency of the O(1) path."""
    n = 50 if bench_quick else 300
    with _serving(tmp_path, AdmissionConfig()) as service:

        def batch() -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                assert _get_status(service.port) == 200
            return time.perf_counter() - t0

        wall = run_once(benchmark, batch)
        # the O(1) assertion: n warm hits, zero directory scans
        assert service.cache.stats.scans == 0
        assert service.cache.stats.hits == n
    per_req = wall / n
    report(
        f"service hit path: {n} sequential warm hits in {wall:.2f}s — "
        f"{per_req * 1e3:.2f} ms/request ({n / wall:.0f} req/s), "
        "0 directory scans"
    )
    record_bench(
        op="service_hit",
        shape=f"seq_{n}req",
        ns_per_op=per_req * 1e9,
        requests_per_s=n / wall,
    )


def test_service_hit_remembered(
    benchmark, report, record_bench, bench_quick, tmp_path
):
    """In-process hit of one warm case: first lookup vs repeat lookups."""
    n = 100 if bench_quick else 1000
    floor = 2.5 if bench_quick else 5.0
    # A quick-scale Cholesky 35 case (53 panel rows, ~12 KB artifact):
    # the size of the `serve` workload's warm artifacts.
    query = {"kind": "cholesky", "param": "5", "ul": "1.1", "base_seed": "7"}
    case = case_from_query(query)
    cache_dir = tmp_path / "cache"
    ArtifactCache(cache_dir).store(case, case.run())
    service = RobustnessService(
        ServiceConfig(cache_dir=cache_dir, queue_dir=tmp_path / "queue")
    )

    def hit() -> bytes:
        status, _, payload = service.handle_case(query)
        assert status == 200
        # what the HTTP skin writes: hit bodies arrive rendered
        if isinstance(payload, bytes):
            return payload
        return canonical_json(payload).encode()

    def first_lookup() -> bytes:
        service.cache = ArtifactCache(cache_dir)
        return hit()

    def per_hit(fn) -> tuple[float, bytes]:
        t0 = time.perf_counter()
        for _ in range(n):
            body = fn()
        return (time.perf_counter() - t0) / n, body

    first_s, first_body = per_hit(first_lookup)
    repeat_s, repeat_body = run_once(benchmark, per_hit, hit)
    assert repeat_body == first_body
    ratio = first_s / repeat_s
    assert ratio >= floor, f"repeat hit only {ratio:.1f}x cheaper"
    report(
        f"service remembered hit: first lookup {first_s * 1e3:.3f} ms, "
        f"repeat {repeat_s * 1e3:.3f} ms ({ratio:.1f}x), identical bodies"
    )
    record_bench(
        op="service_hit_remembered",
        shape=f"cholesky_n35_{n}hits",
        ns_per_op=repeat_s * 1e9,
        baseline_ns_per_op=first_s * 1e9,
        ratio=ratio,
    )


def test_service_saturation_throughput(
    benchmark, report, record_bench, bench_quick, tmp_path
):
    """Concurrent clients vs a tiny gate: bounded, structured, no hangs."""
    n_clients = 4 if bench_quick else 12
    per_client = 10 if bench_quick else 40
    gate = AdmissionConfig(
        max_inflight=2,
        max_waiting=2,
        wait_seconds=0.05,
        retry_after_seconds=0.1,
    )
    with _serving(tmp_path, gate) as service:
        statuses: list[int] = []
        lock = threading.Lock()

        def client() -> None:
            mine = [
                _get_status(service.port) for _ in range(per_client)
            ]
            with lock:
                statuses.extend(mine)

        def storm() -> float:
            t0 = time.perf_counter()
            threads = [
                threading.Thread(target=client)
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return time.perf_counter() - t0

        wall = run_once(benchmark, storm)
        snapshot = service.gate.snapshot()
    total = n_clients * per_client
    assert len(statuses) == total  # every request resolved — nothing hung
    served = statuses.count(200)
    shed = statuses.count(429)
    assert served + shed == total  # the only two outcomes under load
    assert served == snapshot["admitted"]
    report(
        f"service saturation: {n_clients} clients x {per_client} reqs in "
        f"{wall:.2f}s — {served} served ({served / wall:.0f} req/s), "
        f"{shed} shed with structured 429s"
    )
    record_bench(
        op="service_saturation",
        shape=f"{n_clients}clients_x{per_client}req",
        ns_per_op=wall / max(served, 1) * 1e9,
        served=served,
        shed=shed,
        served_per_s=served / wall,
    )
