"""The ``serve`` workload: one warm query server driven by one client.

Set-up fills an artifact cache with the 12 fixed-structure quick-suite
cases (Cholesky and GE graphs, both ULs) at the suite seed, once per
source tree under the work directory, and copies it into a fresh run
cache.  The server runs as ``repro.experiments.cli serve`` with one
fleet worker; it is ready once ``/healthz`` answers and a warm-up miss
has come back from the fleet.

The client is a closed loop with no think time: one request at a time,
each on its own connection (see :func:`keepalive_hits` for why).
Requests come in blocks of ``workloads.BLOCK`` with a fixed composition
in a seeded order.  ``wall_s`` is the fastest block: contention on a
shared host only ever adds time, in bursts that the best of the run's
blocks escapes.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import time
from pathlib import Path
from urllib.parse import urlencode

from perfbench import lib
from perfbench.campaign import BenchError, aggregate_text
from perfbench.workloads import (
    BLOCK,
    WARMUP_GRAPH,
    cold_base_seed,
    query,
    serve_blocks,
    serve_warm_expr,
)

#: Fleet idle scan and artifact poll intervals, sized against ~0.6 s misses.
SERVER_FLAGS = ("--port", "0", "--workers", "1", "--queue-poll", "0.05", "--poll", "0.01")
SETUP_SAMPLES = 3

#: Latency by request kind and throughput, reported as per-layer metrics.
SERVICE_ROWS = ("hit_p50_ms", "hit_p99_ms", "sweep_p50_ms", "miss_p50_s",
                "req_per_s", "keepalive_hit_p50_ms")


def fill_cache(ctx) -> Path:
    """The warm set, computed once per source tree and warm-set expression."""
    expr = serve_warm_expr()
    key = hashlib.sha256(f"{ctx.src_digest}\0{expr}".encode()).hexdigest()
    fill = ctx.state_dir / f"serve-fill-{key[:16]}"
    if (fill / "COMPLETE").is_file():
        return fill
    tmp = fill.with_name(fill.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    proc = ctx.spawn([ctx.python, "-m", "repro.experiments.cli", "campaign",
                      "sweep", expr, "--cache-dir", str(tmp)])
    proc.stdout.read()
    if ctx.wait(proc)[1] != 0:
        raise BenchError(f"filling the serve cache failed; see {ctx.errlog}")
    (tmp / "COMPLETE").write_text("")
    shutil.rmtree(fill, ignore_errors=True)
    tmp.rename(fill)
    return fill


class Server:
    """One ``serve`` subprocess (its own session, so its fleet goes with it)."""

    def __init__(self, ctx, cache_dir: Path, queue_dir: Path):
        self.ctx = ctx
        self.spawned = time.time()
        self.proc = ctx.spawn([ctx.python, "-m", "repro.experiments.cli", "serve",
                               "--cache-dir", str(cache_dir), "--queue-dir", str(queue_dir),
                               *SERVER_FLAGS])
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[\w.]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise BenchError(f"serve did not start (banner {banner!r}); see {ctx.errlog}")
        self.port = int(match.group(1))

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def ready(self, warmup: dict[str, str]) -> float:
        """Wait for /healthz, then one miss through the fleet; set-up time."""
        deadline = time.monotonic() + 60
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("serve never became healthy")
            time.sleep(0.01)
        status, body = self.get("/case?" + urlencode(warmup))
        if status != 200:
            raise BenchError(f"warm-up miss answered {status}: {body[:200]!r}")
        return time.time() - self.spawned

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (graceful drain of server and fleet), then wait."""
        os.kill(self.proc.pid, signal.SIGTERM)  # unreaped until ctx.wait
        self.proc.stdout.read()
        self.ctx.wait(self.proc)
        self.ctx.kill_group(self.proc)


def keepalive_hits(port: int, paths: list[str]) -> list[float]:
    """Hit latencies (ms) over one reused connection.

    The server sends a response's headers and body as two writes; on a
    reused connection the body waits for the client's delayed ACK (about
    40 ms on Linux), so the mix uses a connection per request and this
    path is reported on its own.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    latency = []
    try:
        for path in paths:
            t = time.perf_counter()
            conn.request("GET", path)
            conn.getresponse().read()
            latency.append((time.perf_counter() - t) * 1e3)
    finally:
        conn.close()
    return latency


def _envelope_result(path: Path) -> dict:
    return json.loads(path.read_text())["result"]


def run(ctx, workload: str) -> dict:
    """Measure the serve workload; returns the outcome record."""
    from repro.caseset import parse
    from repro.io.json_io import canonical_json
    from repro.service.spec import case_from_query

    sweep_expr = serve_warm_expr()
    warm_cases = parse(sweep_expr).cases()
    warm = [query(c.spec.kind, c.spec.param, c.spec.ul, c.spec.instance, c.base_seed)
            for c in warm_cases]

    # -- set-up outside timing: warm cache, expected answers ------------- #
    fill = fill_cache(ctx)
    cache_dir = ctx.run_dir / "cache"
    shutil.copytree(fill, cache_dir)
    failed: dict[str, str] = {}
    paths = {c.artifact_name: cache_dir / c.artifact_name for c in warm_cases}
    for name, why in lib.artifact_mismatches(ctx.load_golden()["artifacts"], paths).items():
        failed[f"fill/{name}"] = why
    expected_hit: dict[str, bytes] = {}
    for params, case in zip(warm, warm_cases):
        if case_from_query(params).key != case.key:
            raise BenchError(f"query {params} does not name {case.name}")
        expected_hit[urlencode(params)] = canonical_json({
            "case": case.to_dict(),
            "key": case.key,
            "source": "hit",
            "result": _envelope_result(cache_dir / case.artifact_name),
        }).encode()
    expected_sweep = aggregate_text(warm_cases, cache_dir).rstrip("\n")

    # -- set-up samples: two probe servers on empty caches, then the real one
    kind, param, ul = WARMUP_GRAPH
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        probe = Server(ctx, ctx.run_dir / f"probe{k}" / "cache", ctx.run_dir / f"probe{k}" / "queue")
        try:
            setups.append(probe.ready(query(kind, param, ul, base_seed=cold_base_seed(ctx.seed, k, True))))
        finally:
            probe.stop()
    server = Server(ctx, cache_dir, ctx.run_dir / "queue")
    try:
        setups.append(server.ready(
            query(kind, param, ul, base_seed=cold_base_seed(ctx.seed, SETUP_SAMPLES, True))))
        loop = _closed_loop(ctx, server, warm, sweep_expr)
        keepalive = keepalive_hits(
            server.port, ["/case?" + urlencode(warm[i % len(warm)]) for i in range(20)])
        status, stats_body = server.get("/stats")
        stats = json.loads(stats_body) if status == 200 else {}
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    # -- correctness, outside timing ---------------------------------- #
    for i, (kind_, params, status, body) in enumerate(loop["checks"]):
        tag = f"{kind_}{i}"
        if status != 200:
            failed[tag] = f"HTTP {status}"
        elif kind_ == "hit":
            if body != expected_hit[urlencode(params)]:
                failed[tag] = "hit body differs from the stored artifact"
        elif kind_ == "sweep":
            done = json.loads(body)
            if done.get("event") != "done" or canonical_json(done["aggregate"]) != expected_sweep:
                failed[tag] = "sweep done frame differs from aggregate_from_cache"
        else:
            payload = json.loads(body)
            path = cache_dir / case_from_query(params).artifact_name
            if payload.get("source") != "miss" or not path.is_file() or (
                canonical_json(payload["result"]) != canonical_json(_envelope_result(path))
            ):
                failed[tag] = "miss result differs from the artifact the fleet stored"
    scans = stats.get("cache", {}).get("scans", -1)
    if scans != 0:
        failed["stats/scans"] = f"server did {scans} directory scan(s); the warm path must do 0"

    lat = loop["latency"]
    all_ms = [ms for kind_ in lat for ms in lat[kind_]]
    hit_tail = lib.tail_percentile(lat["hit"])
    out = {
        "attempted": len(loop["checks"]),
        "failed": failed,
        "samples": {"setup_s": len(setups), "wall_s": len(loop["blocks"])},
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": min(loop["blocks"]),
        },
        "extra": {
            "block_p50_s": (statistics.median(loop["blocks"]), "s", len(loop["blocks"])),
            "hit_p50_ms": (statistics.median(lat["hit"]), "ms", len(lat["hit"])),
            "hit_p99_ms": (lib.percentile(lat["hit"], 99), "ms", len(lat["hit"])),
            "sweep_p50_ms": (statistics.median(lat["sweep"]), "ms", len(lat["sweep"])),
            "miss_p50_s": (statistics.median(lat["miss"]) / 1e3, "s", len(lat["miss"])),
            "req_per_s": (len(all_ms) / loop["elapsed"], "1/s", len(all_ms)),
            "keepalive_hit_p50_ms": (statistics.median(keepalive), "ms", len(keepalive)),
            "peak_rss_mb": (rss, "MB", 1),
        },
        "notes": [
            f"hit tail: {hit_tail.label() if hit_tail else 'fewer than 10 samples beyond p50'}",
        ],
    }
    if not ctx.trace:
        return out
    misses = [params for kind_, params, _, _ in loop["checks"] if kind_ == "miss"][:3]
    out["layer"] = _layer_probes(ctx, cache_dir, warm, warm_cases, sweep_expr, stats, misses)
    out["layer"].update({f"service.{name}": out["extra"][name][0] for name in SERVICE_ROWS})
    return out


def _closed_loop(ctx, server: Server, warm: list, sweep_expr: str) -> dict:
    """Send the seeded mix for ``ctx.seconds``; time every request."""
    latency: dict[str, list[float]] = {"hit": [], "sweep": [], "miss": []}
    checks = []
    blocks = []
    paths: dict[tuple, str] = {}
    start = time.perf_counter()
    deadline = start + ctx.seconds
    for block in serve_blocks(ctx.seed, warm, sweep_expr):
        block_start = time.perf_counter()
        for op in block:
            key = (op.kind, *op.params.items())
            path = paths.get(key)
            if path is None:
                route = "/sweep?" if op.kind == "sweep" else "/case?"
                path = paths[key] = route + urlencode(op.params)
            t = time.perf_counter()
            status, body = server.get(path)
            done = time.perf_counter()
            latency[op.kind].append((done - t) * 1e3)
            if op.kind == "sweep":
                body = body.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            checks.append((op.kind, op.params, status, body))
            if done >= deadline:
                break
        else:
            blocks.append(time.perf_counter() - block_start)
            continue
        break
    elapsed = time.perf_counter() - start
    if not blocks:
        raise BenchError(f"no request block of {BLOCK} completed in {ctx.seconds} s")
    return {"latency": latency, "checks": checks, "blocks": blocks, "elapsed": elapsed}


def _layer_probes(ctx, cache_dir: Path, warm: list, warm_cases: list,
                  sweep_expr: str, stats: dict, misses: list) -> dict:
    """In-process timings of the request path's layers, under spans.

    ``misses`` are the loop's first miss queries: their cases are enqueued
    on a scratch queue and recomputed here, so the fleet's queue and poll
    overhead is ``service.miss_p50_s`` minus ``campaign.queue.compute_s``.
    """
    from repro.campaign.queue import WorkQueue
    from repro.caseset import parse
    from repro.service.server import RobustnessService, ServiceConfig
    from repro.service.spec import case_from_query

    tr = ctx.tracer
    service = RobustnessService(ServiceConfig(
        cache_dir=cache_dir, queue_dir=ctx.run_dir / "probe-queue", workers=0))
    handle_ms, lookup_ms, sweep_ms, expand_ms = [], [], [], []
    for i in range(2000):
        params = warm[i % len(warm)]
        with tr.span("service.server.handle_case") as s:
            status, _, _ = service.handle_case(params)
        if status != 200:
            raise BenchError(f"in-process hit answered {status}")
        handle_ms.append((s.end - s.start) * 1e3)
    for i in range(200):
        with tr.span("campaign.cache.lookup") as s:
            service.cache.lookup(warm_cases[i % len(warm_cases)])
        lookup_ms.append((s.end - s.start) * 1e3)
    for _ in range(20):
        with tr.span("caseset.expand") as s:
            parse(sweep_expr).cases()
        expand_ms.append((s.end - s.start) * 1e3)
    for _ in range(20):
        with tr.span("service.server.handle_sweep") as s:
            status, _, stream = service.handle_sweep({"expr": sweep_expr, "format": "ndjson"})
            with stream:
                for _ in stream.frames():
                    pass
        sweep_ms.append((s.end - s.start) * 1e3)
    queue = WorkQueue(ctx.run_dir / "enqueue-probe").init()
    enqueue_ms, compute_s = [], []
    for case in map(case_from_query, misses):
        with tr.span("campaign.queue.enqueue") as s:
            queue.enqueue_case(case)
        enqueue_ms.append((s.end - s.start) * 1e3)
        with tr.span("campaign.queue.compute") as s:
            case.run()
        compute_s.append(s.end - s.start)
    admission = stats.get("admission", {})
    cache_stats = stats.get("cache", {})
    return {
        "service.server.handle_case_ms_p50": lib.percentile(handle_ms, 50),
        "service.server.handle_case_ms_p99": lib.percentile(handle_ms, 99),
        "service.server.handle_sweep_ms_p50": lib.percentile(sweep_ms, 50),
        "campaign.cache.lookup_ms_p50": lib.percentile(lookup_ms, 50),
        "campaign.cache.index_hits": cache_stats.get("index_hits", 0),
        "campaign.cache.scans": cache_stats.get("scans", 0),
        "caseset.expand_ms": lib.percentile(expand_ms, 50),
        "service.admission.shed": sum(
            admission.get(k, 0) for k in ("shed_full", "shed_timeout", "shed_forced")),
        "service.admission.inflight_hwm": admission.get("inflight_hwm", 0),
        "campaign.queue.enqueue_ms": lib.percentile(enqueue_ms, 50),
        "campaign.queue.compute_s": statistics.median(compute_s),
    }
