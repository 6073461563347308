"""The robustness-as-a-service HTTP server.

A long-lived, stdlib-only (:class:`http.server.ThreadingHTTPServer`)
query service over the campaign stack: ``GET /case?...`` answers from the
:class:`~repro.campaign.cache.ArtifactCache` in O(1) via the persistent
cache index, enqueues misses onto the :class:`~repro.campaign.queue`
fleet as single-case tasks, and degrades — never corrupts — under every
failure mode the stack can produce.

Request lifecycle (the state machine ``docs/architecture.md`` draws)::

    parse ──400──▶ rejected (bad query)
      │ admission gate ──429──▶ shed (Retry-After)
      ▼
    cache lookup (index-first, O(1)) ──hit──▶ 200 (source=hit)
      │ miss
      ▼
    enqueue case task (retry w/ backoff) ──retries exhausted──▶ 503
      │
      ▼
    poll artifact ──landed──▶ 200 (source=miss, byte-identical)
      │                        ──poisoned──▶ 502 (poison report attached)
      └─deadline──▶ 504 (task stays enqueued; a later retry hits warm)

Correctness invariant: a served ``result`` payload is byte-identical to
direct :func:`~repro.core.study.evaluate_case` output — both paths go
through the same canonical artifact serialization, and the service never
synthesizes or mutates result content.  Responses are rendered with
:func:`~repro.io.json_io.canonical_json`, so equal results are equal
bytes on the wire; a hit body is rendered once per result the cache
remembers and then served as those bytes.

Degradation ladder (every rung structured, none hangs): 400 bad query →
429 shed with ``Retry-After`` → 503 backend unavailable → 504 deadline
(the work keeps cooking) → 502 poisoned (the work is known-bad).  A
corrupt or torn cache index never surfaces at all: the cache degrades to
a directory probe/scan and rebuilds the index in the background.
"""

from __future__ import annotations

import os
import pathlib
import signal
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Mapping
from urllib.parse import parse_qsl, urlsplit

from repro.campaign.aggregate import SuiteAggregator, suite_aggregate_to_payload
from repro.campaign.cache import ArtifactCache
from repro.campaign.queue import (
    FaultInjector,
    QueueConfig,
    WorkerFleet,
    WorkQueue,
)
from repro.campaign.spec import CampaignCase
from repro.caseset import CaseSetError
from repro.io.json_io import canonical_json, case_result_to_payload
from repro.service.admission import AdmissionConfig, AdmissionGate, ShedError
from repro.service.spec import CaseSpecError, case_from_query
from repro.service.sweep import SweepRequest, sweep_from_query

__all__ = [
    "RobustnessService",
    "ServiceConfig",
    "ServiceStats",
    "SweepStream",
    "make_server",
    "serve",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance needs to run.

    Attributes
    ----------
    cache_dir:
        The artifact cache the service reads (and its fleet writes).
    queue_dir:
        Work-queue directory for miss dispatch.
    host, port:
        Bind address (``port=0`` picks a free port — tests use this).
    workers:
        Fleet size to spawn and babysit (0 = rely on external workers).
    deadline_seconds:
        Per-request compute budget for the miss path.
    poll_seconds:
        Artifact poll interval while a miss is cooking.
    enqueue_retries:
        Transient-enqueue-error retries (exponential backoff) before 503.
    admission:
        Load-shedding gate sizing.
    queue:
        Queue lease/retry policy for the fleet.
    force:
        Recompute even on artifact presence (debugging only).
    sweep_deadline_seconds:
        Whole-sweep compute budget (sweeps poll much longer than point
        queries — they wait for a whole cold subset to land).
    max_sweep_cases:
        Largest expansion a single ``/sweep`` expression may select;
        oversize expressions are 400s before any work starts.
    """

    cache_dir: pathlib.Path
    queue_dir: pathlib.Path
    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 0
    deadline_seconds: float = 60.0
    poll_seconds: float = 0.05
    enqueue_retries: int = 3
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    queue: QueueConfig = field(default_factory=QueueConfig)
    force: bool = False
    sweep_deadline_seconds: float = 600.0
    max_sweep_cases: int = 4096


@dataclass
class ServiceStats:
    """What the service actually did (the ``/stats`` payload core).

    Follows the :class:`~repro.campaign.runner.CampaignStats` convention:
    plain counters plus a one-line :meth:`summary` for logs.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    computed: int = 0
    shed: int = 0
    bad_requests: int = 0
    timeouts: int = 0
    poisoned: int = 0
    backend_errors: int = 0
    sweeps: int = 0
    sweep_cases: int = 0
    sweep_warm: int = 0
    sweep_cold: int = 0

    def summary(self) -> str:
        """One-line human summary for logs and reports."""
        return (
            f"{self.requests} requests, {self.hits} hits / "
            f"{self.misses} misses ({self.computed} computed), "
            f"{self.sweeps} sweeps ({self.sweep_cases} cases, "
            f"{self.sweep_warm} warm / {self.sweep_cold} cold), "
            f"{self.shed} shed, {self.bad_requests} bad, "
            f"{self.timeouts} timed out, {self.poisoned} poisoned, "
            f"{self.backend_errors} backend errors"
        )

    def to_payload(self) -> dict:
        """Counter dict for the ``/stats`` endpoint."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "computed": self.computed,
            "shed": self.shed,
            "bad_requests": self.bad_requests,
            "timeouts": self.timeouts,
            "poisoned": self.poisoned,
            "backend_errors": self.backend_errors,
            "sweeps": self.sweeps,
            "sweep_cases": self.sweep_cases,
            "sweep_warm": self.sweep_warm,
            "sweep_cold": self.sweep_cold,
        }


class _BackendUnavailable(RuntimeError):
    """Enqueueing a miss kept failing; the request maps to a 503."""


class RobustnessService:
    """The service core: cache, queue, gate, fleet — minus the HTTP skin.

    Separating the core from the handler keeps every degradation path
    unit-testable without sockets: :meth:`handle_case` returns
    ``(status, headers, payload)`` for a parsed query, and the HTTP layer
    only serializes.  All shared state is either monitor-protected
    (:class:`~repro.service.admission.AdmissionGate`), lock-protected
    (:class:`ServiceStats` under ``_stats_lock``; the
    :class:`~repro.campaign.queue.WorkerFleet` under its own lock) or
    immutable.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache = ArtifactCache(pathlib.Path(config.cache_dir))
        self.queue = WorkQueue(
            pathlib.Path(config.queue_dir), config.queue
        ).init()
        self.gate = AdmissionGate(config.admission)
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self.stop_event = threading.Event()
        self.fleet = WorkerFleet(
            self.queue, self.cache.root, "svc", force=config.force, forever=True
        )
        self._janitor: threading.Thread | None = None
        #: Bound port, filled in by :func:`serve` once the socket exists.
        self.port: int | None = None
        self.injector = FaultInjector.from_env(
            os.environ, self.queue, "service"
        )
        if self.injector is not None:
            self.gate.force_shed(self.injector.shed_storm_budget())

    # -- bookkeeping ---------------------------------------------------- #

    def _count(self, **deltas: int) -> None:
        """Bump stats counters under the lock."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # -- the request core ----------------------------------------------- #

    def handle_case(
        self, params: Mapping[str, str]
    ) -> tuple[int, dict[str, str], dict | bytes]:
        """Serve one ``/case`` query; returns (status, headers, payload).

        Implements the full lifecycle: parse → admit → indexed lookup →
        miss dispatch → poll; every exit is a structured JSON payload.
        A hit's payload comes already rendered, as canonical-JSON bytes
        (see :meth:`_hit_body`); every other payload is a dict.
        """
        self._count(requests=1)
        try:
            case = case_from_query(params)
        except CaseSpecError as exc:
            self._count(bad_requests=1)
            return 400, {}, {"error": "bad-request", "detail": str(exc)}
        try:
            with self.gate.admit():
                return self._serve_case(case)
        except ShedError as exc:
            self._count(shed=1)
            return (
                429,
                {"Retry-After": f"{exc.retry_after:g}"},
                {
                    "error": "shed",
                    "detail": str(exc),
                    "retry_after": exc.retry_after,
                },
            )

    def _serve_case(
        self, case: CampaignCase
    ) -> tuple[int, dict[str, str], dict | bytes]:
        """Admitted path: indexed lookup, then the miss state machine."""
        deadline = time.monotonic() + self.config.deadline_seconds
        if self.injector is not None:
            self.injector.on_cache_read()
            self.injector.on_index_refresh(self.cache.index_path)
        result = None if self.config.force else self.cache.lookup(case)
        if result is not None:
            self._count(hits=1)
            return 200, {}, self._hit_body(case, result)
        self._count(misses=1)

        try:
            task_id = self._enqueue_with_retry(case, deadline)
        except _BackendUnavailable as exc:
            self._count(backend_errors=1)
            return (
                503,
                {"Retry-After": f"{self.config.queue.poll_seconds:g}"},
                {"error": "backend-unavailable", "detail": str(exc)},
            )

        artifact = self.cache.path_for(case)
        while time.monotonic() < deadline and not self.stop_event.is_set():
            if artifact.exists():
                result = self.cache.lookup(case)
                if result is not None:
                    self._count(computed=1)
                    return 200, {}, self._ok_payload(case, result, "miss")
            if self.queue.is_poisoned(task_id):
                self._count(poisoned=1)
                return (
                    502,
                    {},
                    {
                        "error": "poisoned",
                        "detail": (
                            f"task {task_id} exhausted its retry budget"
                        ),
                        "task": task_id,
                        "report": self.queue.poisoned().get(task_id, {}),
                    },
                )
            time.sleep(self.config.poll_seconds)
        self._count(timeouts=1)
        return (
            504,
            {"Retry-After": f"{self.config.deadline_seconds:g}"},
            {
                "error": "deadline",
                "detail": (
                    f"case {case.name} not computed within "
                    f"{self.config.deadline_seconds:g}s; it remains "
                    "enqueued — retry later for a warm hit"
                ),
                "task": task_id,
            },
        )

    def _ok_payload(
        self, case: CampaignCase, result: Any, source: str
    ) -> dict:
        """Success body: the canonical result payload plus provenance."""
        return {
            "case": case.to_dict(),
            "key": case.key,
            "source": source,
            "result": case_result_to_payload(result),
        }

    def _hit_body(self, case: CampaignCase, result: Any) -> bytes:
        """The rendered hit body, rendered once per remembered result.

        Kept in the cache's memo (one byte bound with the artifact bytes
        and results it remembers) under the case key, and served again
        only while :meth:`ArtifactCache.lookup` returns the very object
        it was rendered from: a re-validated artifact decodes to a new
        object, so it is rendered again.  The entry holds that object,
        so its identity cannot pass to another result.
        """
        slot = ("hit-body", case.key)
        held = self.cache.memo.get(slot)
        if held is not None and held[0] is result:
            return held[1]
        body = canonical_json(self._ok_payload(case, result, "hit")).encode()
        self.cache.memo.put(slot, (result, body), len(body))
        return body

    def _enqueue_with_retry(self, case: CampaignCase, deadline: float) -> str:
        """Enqueue a miss, retrying transient queue errors with backoff."""
        delay = 0.05
        last: Exception | None = None
        for _ in range(max(1, self.config.enqueue_retries)):
            if self.injector is not None:
                self.injector.on_enqueue()
            try:
                return self.queue.enqueue_case(case)
            except OSError as exc:
                last = exc
                if time.monotonic() + delay >= deadline:
                    break
                time.sleep(delay)
                delay *= 2.0
        raise _BackendUnavailable(
            f"could not enqueue case task: {last}"
        )

    # -- the sweep engine ------------------------------------------------ #

    def handle_sweep(
        self, params: Mapping[str, str]
    ) -> "tuple[int, dict[str, str], dict | SweepStream]":
        """Serve one ``/sweep`` query; returns (status, headers, body).

        A non-stream body (dict) is a structured refusal: 400 for a
        malformed expression, 429 when the gate sheds.  A 200 carries a
        :class:`SweepStream` whose frames the HTTP layer writes as they
        are produced; the caller owns the stream and must ``close()`` it
        (that returns the sweep's admission weight to the gate).

        A sweep counts as its expanded size against the in-flight caps:
        ``gate.acquire(weight=n_cases)`` — one 500-case sweep occupies
        the gate like a burst of 500 point queries, so sweeps cannot
        starve point traffic unnoticed.
        """
        self._count(requests=1)
        try:
            request = sweep_from_query(
                params, max_cases=self.config.max_sweep_cases
            )
        except CaseSetError as exc:
            self._count(bad_requests=1)
            return 400, {}, {"error": "bad-sweep", "detail": str(exc)}
        try:
            weight = self.gate.acquire(weight=len(request.cases))
        except ShedError as exc:
            self._count(shed=1)
            return (
                429,
                {"Retry-After": f"{exc.retry_after:g}"},
                {
                    "error": "shed",
                    "detail": str(exc),
                    "retry_after": exc.retry_after,
                },
            )
        self._count(sweeps=1, sweep_cases=len(request.cases))
        return 200, {}, SweepStream(self, request, weight)

    def _sweep_events(
        self, request: SweepRequest
    ) -> "Iterator[tuple[str, dict]]":
        """Yield the sweep's event sequence: start → update* → done|error.

        The warm/cold split probes the cache index (O(1) per case, zero
        directory scans); the cold subset is enqueued on the fleet, then
        the loop folds artifacts into a :class:`SuiteAggregator` in
        strict case order — each ``update`` aggregates exactly the
        expansion prefix ``[0, done)``, so successive updates fold
        strict supersets (monotone by construction) and the final
        ``done`` aggregate performs the identical fold-op sequence as
        :func:`~repro.experiments.fig6_aggregate.aggregate_from_cache`
        over the same case list — byte-identical canonical JSON.
        """
        cfg = self.config
        caseset = request.cases
        cases = caseset.cases()
        total = len(cases)
        deadline = time.monotonic() + cfg.sweep_deadline_seconds
        if self.injector is not None:
            self.injector.on_cache_read()
            self.injector.on_index_refresh(self.cache.index_path)
        warm = (
            set()
            if cfg.force
            else {c.key for c in cases if self.cache.has(c)}
        )
        cold = [c for c in cases if c.key not in warm]
        self._count(sweep_warm=len(warm), sweep_cold=len(cold))

        def missing_expr(start: int) -> str:
            landed = {cases[i].key for i in range(start)}
            return caseset.subset(
                c.key for c in cases[start:] if c.key not in landed
            ).fold()

        yield "start", {
            "expr": caseset.fold(),
            "n_cases": total,
            "warm": total - len(cold),
            "cold": len(cold),
            "missing": caseset.subset(c.key for c in cold).fold(),
        }
        task_ids: dict[str, str] = {}
        try:
            for case in cold:
                task_ids[case.key] = self._enqueue_with_retry(case, deadline)
        except _BackendUnavailable as exc:
            self._count(backend_errors=1)
            yield "error", {
                "error": "backend-unavailable",
                "detail": str(exc),
                "missing": missing_expr(0),
            }
            return

        aggregator = SuiteAggregator(ordered=False)
        done = 0
        emitted = 0
        last_frame = time.monotonic()
        while done < total:
            while done < total:
                case = cases[done]
                result = (
                    self.cache.lookup(case)
                    if self.cache.path_for(case).exists()
                    else None
                )
                if result is None:
                    # A warm case can vanish between the split and the
                    # read (pruned/corrupted artifact): dispatch it like
                    # a cold one and wait for the fleet to re-land it.
                    if case.key not in task_ids:
                        try:
                            task_ids[case.key] = self._enqueue_with_retry(
                                case, deadline
                            )
                        except _BackendUnavailable as exc:
                            self._count(backend_errors=1)
                            yield "error", {
                                "error": "backend-unavailable",
                                "detail": str(exc),
                                "missing": missing_expr(done),
                            }
                            return
                    break
                aggregator.add_case(done, case, result)
                done += 1
            if done >= total:
                break
            now = time.monotonic()
            if done > emitted:
                emitted = done
                yield "update", {
                    "done": done,
                    "total": total,
                    "aggregate": suite_aggregate_to_payload(
                        aggregator.finalize()
                    ),
                }
                last_frame = now
            task_id = task_ids.get(cases[done].key)
            if task_id is not None and self.queue.is_poisoned(task_id):
                self._count(poisoned=1)
                yield "error", {
                    "error": "poisoned",
                    "detail": f"task {task_id} exhausted its retry budget",
                    "task": task_id,
                    "report": self.queue.poisoned().get(task_id, {}),
                    "missing": missing_expr(done),
                }
                return
            if self.stop_event.is_set():
                yield "error", {
                    "error": "draining",
                    "detail": "service is shutting down",
                    "missing": missing_expr(done),
                }
                return
            if now >= deadline:
                self._count(timeouts=1)
                yield "error", {
                    "error": "deadline",
                    "detail": (
                        f"sweep not complete within "
                        f"{cfg.sweep_deadline_seconds:g}s; missing cases "
                        "remain enqueued — retry later for a warm sweep"
                    ),
                    "missing": missing_expr(done),
                }
                return
            if now - last_frame >= 10.0:
                yield "ping", {}
                last_frame = now
            time.sleep(cfg.poll_seconds)
        yield "done", {
            "done": done,
            "total": total,
            "warm": total - len(cold),
            "cold": len(cold),
            "aggregate": suite_aggregate_to_payload(aggregator.finalize()),
        }

    # -- auxiliary endpoints -------------------------------------------- #

    def healthz(self) -> tuple[int, dict[str, str], dict]:
        """Cheap liveness probe: no scans, no locks beyond the gate's."""
        draining = self.stop_event.is_set()
        return (
            200 if not draining else 503,
            {},
            {
                "status": "draining" if draining else "ok",
                "inflight": self.gate.snapshot()["inflight"],
                "fleet": self.fleet.live(),
            },
        )

    def stats_payload(self) -> tuple[int, dict[str, str], dict]:
        """The ``/stats`` body: service + gate + cache + queue counters."""
        with self._stats_lock:
            service = self.stats.to_payload()
            summary = self.stats.summary()
        cache_stats = self.cache.stats
        return (
            200,
            {},
            {
                "summary": summary,
                "service": service,
                "admission": self.gate.snapshot(),
                "cache": {
                    "hits": cache_stats.hits,
                    "misses": cache_stats.misses,
                    "stores": cache_stats.stores,
                    "corrupt": cache_stats.corrupt,
                    "scans": cache_stats.scans,
                    "index_hits": cache_stats.index_hits,
                    "index_fallbacks": cache_stats.index_fallbacks,
                    "index_corrupt": cache_stats.index_corrupt,
                    "index_rebuilds": cache_stats.index_rebuilds,
                },
                "queue": self.queue.status().__dict__,
                "fleet": self.fleet.live(),
            },
        )

    # -- the worker fleet ------------------------------------------------ #

    def start_fleet(self) -> None:
        """Spawn the configured workers and the janitor thread."""
        if self.config.workers <= 0:
            return
        for _ in range(self.config.workers):
            self.fleet.spawn()
        self._janitor = threading.Thread(
            target=self._janitor_loop, name="fleet-janitor", daemon=True
        )
        self._janitor.start()

    def _janitor_loop(self) -> None:
        """Reap stale leases and refill the fleet to size until shutdown."""
        while not self.stop_event.wait(self.config.queue.poll_seconds):
            self.queue.requeue_stale()
            for _ in range(max(0, self.config.workers - self.fleet.prune())):
                self.fleet.spawn()

    def stop_fleet(self, timeout: float = 10.0) -> None:
        """SIGTERM the fleet (graceful finish-or-release) and wait."""
        self.stop_event.set()
        if self._janitor is not None:
            self._janitor.join(timeout=5.0)
        self.fleet.stop(timeout, terminate_first=True)


class SweepStream:
    """One admitted sweep: an event stream plus its gate bookkeeping.

    The stream owns the sweep's admission weight, and :meth:`close` is
    the *only* place it is returned — an explicit, idempotent method
    rather than a generator ``finally`` because closing a never-started
    generator would skip its cleanup entirely.  The HTTP handler (and
    any direct caller) must close the stream in a ``finally``; the
    context-manager form does so automatically.

    :meth:`events` yields ``(event, payload)`` pairs; :meth:`frames`
    renders them for the wire in the request's format — ``sse``
    (``event:``/``data:`` blocks, pings as comment lines, `curl -N`
    friendly) or ``ndjson`` (one canonical-JSON object per line with
    the event name inlined).
    """

    def __init__(
        self,
        service: RobustnessService,
        request: SweepRequest,
        weight: int,
    ):
        self.service = service
        self.request = request
        self._weight = weight
        self._closed = False
        self._lock = threading.Lock()

    @property
    def format(self) -> str:
        """The negotiated stream format (``sse`` or ``ndjson``)."""
        return self.request.format

    @property
    def content_type(self) -> str:
        """The Content-Type header for this stream's format."""
        if self.request.format == "sse":
            return "text/event-stream"
        return "application/x-ndjson"

    def events(self) -> Iterator[tuple[str, dict]]:
        """The sweep's ``(event, payload)`` sequence (lazy)."""
        return self.service._sweep_events(self.request)

    def frames(self) -> Iterator[bytes]:
        """Wire-encoded frames, one per event, flush-worthy each."""
        sse = self.request.format == "sse"
        for event, payload in self.events():
            if sse:
                if event == "ping":
                    yield b": ping\n\n"
                else:
                    yield (
                        f"event: {event}\n"
                        f"data: {canonical_json(payload)}\n\n"
                    ).encode()
            else:
                yield (
                    canonical_json({"event": event, **payload}) + "\n"
                ).encode()

    def close(self) -> None:
        """Return the sweep's slots to the admission gate (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.service.gate.release(self._weight)

    def __enter__(self) -> "SweepStream":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP skin over :class:`RobustnessService`."""

    protocol_version = "HTTP/1.1"
    # A reply goes out as two writes (headers, then body).  With Nagle on,
    # the body waits for the client's delayed ACK of the headers, ~40 ms
    # per keep-alive request.
    disable_nagle_algorithm = True
    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route GET requests to the service core."""
        url = urlsplit(self.path)
        service = self.server.service
        if url.path == "/case":
            params = dict(parse_qsl(url.query, keep_blank_values=True))
            status, headers, payload = service.handle_case(params)
        elif url.path == "/sweep":
            params = dict(parse_qsl(url.query, keep_blank_values=True))
            status, headers, payload = service.handle_sweep(params)
            if isinstance(payload, SweepStream):
                self._stream(status, headers, payload)
                return
        elif url.path == "/healthz":
            status, headers, payload = service.healthz()
        elif url.path == "/stats":
            status, headers, payload = service.stats_payload()
        else:
            status, headers, payload = (
                404,
                {},
                {"error": "not-found", "detail": f"no route {url.path!r}"},
            )
        self._reply(status, headers, payload)

    def _stream(
        self, status: int, headers: dict[str, str], stream: SweepStream
    ) -> None:
        """Write one event stream: headers, then flushed frames to EOF.

        No ``Content-Length`` — the response is delimited by connection
        close (``Connection: close`` + ``close_connection``), which is
        valid HTTP/1.1 and what SSE clients (`curl -N`, EventSource)
        expect.  Each frame is flushed as produced so partial aggregates
        reach the client while the cold subset is still cooking; a
        vanished client just ends the sweep (the gate weight is returned
        in the ``finally``).
        """
        self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", stream.content_type)
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            for frame in stream.frames():
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; the queue keeps cooking the cold set
        finally:
            stream.close()

    def _reply(
        self, status: int, headers: dict[str, str], payload: dict | bytes
    ) -> None:
        """Send one canonical-JSON response (rendered bytes go as they are)."""
        body = (
            payload
            if isinstance(payload, bytes)
            else canonical_json(payload).encode()
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; nothing to salvage

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr chatter (stats carry the signal)."""


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer wired for graceful drains.

    ``daemon_threads=False`` + ``block_on_close=True`` make
    ``server_close`` wait for in-flight request threads — a SIGTERM drain
    finishes every admitted request before the process exits.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: RobustnessService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(service: RobustnessService) -> _Server:
    """Bind the HTTP server for ``service`` (does not start serving).

    Fills in ``service.port`` with the bound port, so tests can pass
    ``port=0`` and drive ``serve_forever``/``shutdown`` themselves.
    """
    cfg = service.config
    httpd = _Server((cfg.host, cfg.port), service)
    service.port = httpd.server_address[1]
    return httpd


def serve(
    config: ServiceConfig,
    *,
    ready: "threading.Event | None" = None,
    on_bound: "Any | None" = None,
    install_signals: bool = True,
) -> RobustnessService:
    """Run the service until SIGTERM/SIGINT; returns the drained service.

    Builds the core, starts the fleet, binds the server, and blocks in
    ``serve_forever``.  The first SIGTERM/SIGINT initiates a graceful
    drain: stop admitting (``/healthz`` flips to draining), finish every
    in-flight request, then stop the fleet — workers receive SIGTERM and
    finish-or-release their claims.  ``ready`` (tests) is set once the
    socket is bound; the bound port is on the returned service's
    ``port`` attribute (useful with ``port=0``), and ``on_bound`` — a
    callable taking the service — fires right after binding so the CLI
    can announce the address before blocking.
    """
    service = RobustnessService(config)
    httpd = make_server(service)
    service.start_fleet()
    if on_bound is not None:
        on_bound(service)

    def _initiate_shutdown(signum: int, frame: Any) -> None:
        service.stop_event.set()
        # shutdown() must run off the serve_forever thread.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _initiate_shutdown)
        signal.signal(signal.SIGINT, _initiate_shutdown)
    if ready is not None:
        ready.set()
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()  # joins in-flight request threads
        service.stop_fleet()
    return service
