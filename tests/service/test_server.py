"""End-to-end robustness-service tests over real sockets.

Each test binds a real :class:`ThreadingHTTPServer` on an ephemeral port
(``port=0``) and drives it with stdlib ``urllib`` clients, so the full
stack — HTTP skin, admission gate, artifact cache, queue dispatch — is
exercised exactly as production traffic would.  The two invariants every
test circles back to:

* a served ``result`` is byte-identical to direct ``case.run()`` output
  (compared through ``canonical_json``), hit or miss, faults or not;
* every failure mode maps to a *structured* status (400/429/502/503/504)
  — the service never hangs and never serves torn or wrong content.

Miss-path tests run a real ``queue_worker`` on a thread (no subprocess
startup tax); the CLI drain test at the bottom spawns the real ``serve``
process and SIGTERMs it.
"""

import dataclasses
import http.client
import itertools
import json
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.campaign import ArtifactCache, QueueConfig, WorkQueue, queue_worker
from repro.io.json_io import canonical_json, case_result_to_payload
from repro.service import (
    AdmissionConfig,
    RobustnessService,
    ServiceConfig,
    case_from_query,
    make_server,
)
from tests.campaign.faultlib import fault_env, fired_markers

HIT = {"kind": "cholesky", "param": "3", "ul": "1.1", "n_random": "5", "base_seed": "7"}
MISS = {"kind": "random", "param": "10", "ul": "1.1", "n_random": "5", "base_seed": "7"}

FAST_QUEUE = QueueConfig(
    lease_seconds=10.0, poll_seconds=0.05, max_attempts=2, backoff_seconds=0.0
)


def qs(params: dict[str, str]) -> str:
    return "&".join(f"{k}={v}" for k, v in params.items())


@pytest.fixture(scope="module")
def hit_case():
    return case_from_query(HIT)


@pytest.fixture(scope="module")
def hit_result(hit_case):
    return hit_case.run()


@pytest.fixture(scope="module")
def miss_case():
    return case_from_query(MISS)


@pytest.fixture(scope="module")
def miss_result(miss_case):
    return miss_case.run()


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        cache_dir=tmp_path / "cache",
        queue_dir=tmp_path / "queue",
        port=0,
        workers=0,
        deadline_seconds=30.0,
        poll_seconds=0.02,
        queue=FAST_QUEUE,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@contextmanager
def serving(config: ServiceConfig):
    """An in-process service bound on an ephemeral port."""
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
        service.stop_fleet()
        thread.join(timeout=10.0)


@contextmanager
def fleet_thread(service: RobustnessService):
    """One real queue worker on a thread, draining the service's queue."""
    stop = threading.Event()
    thread = threading.Thread(
        target=queue_worker,
        args=(service.queue, service.cache.root),
        kwargs=dict(
            worker_id="inline0",
            forever=True,
            stop=stop,
            env_faults=False,
        ),
        daemon=True,
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=30.0)


def get_raw(service: RobustnessService, path: str, timeout: float = 60.0):
    """GET against the running service; returns (status, headers, raw bytes)."""
    url = f"http://127.0.0.1:{service.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def get(service: RobustnessService, path: str, timeout: float = 60.0):
    """GET against the running service; returns (status, headers, body)."""
    status, headers, raw = get_raw(service, path, timeout=timeout)
    return status, headers, json.loads(raw)


def assert_identical(body: dict, case, direct_result) -> None:
    """The byte-identity invariant, end to end through the HTTP layer."""
    assert body["key"] == case.key
    assert canonical_json(body["result"]) == canonical_json(
        case_result_to_payload(direct_result)
    )


class TestHitPath:
    def test_hit_is_byte_identical_and_scan_free(
        self, tmp_path, hit_case, hit_result
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        with serving(config) as service:
            status, _, body = get(service, f"/case?{qs(HIT)}")
            assert status == 200
            assert body["source"] == "hit"
            assert_identical(body, hit_case, hit_result)
            # the O(1) assertion: a warm hit does zero directory scans
            assert service.cache.stats.scans == 0
            assert service.cache.stats.hits == 1
            assert service.stats.hits == 1

    def test_repeated_hits_stay_scan_free(
        self, tmp_path, hit_case, hit_result
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        with serving(config) as service:
            for _ in range(5):
                status, _, body = get(service, f"/case?{qs(HIT)}")
                assert status == 200 and body["source"] == "hit"
            assert service.cache.stats.scans == 0
            assert service.cache.stats.hits == 5

    def test_keepalive_hits_do_not_stall(self, tmp_path, hit_case, hit_result):
        # A reply leaves in two writes (headers, body); with Nagle's
        # algorithm on, every hit on a reused connection waited ~40 ms for
        # the client's delayed ACK before the body went out.
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        latencies = []
        with serving(config) as service:
            conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
            try:
                for _ in range(20):
                    start = time.perf_counter()
                    conn.request("GET", f"/case?{qs(HIT)}")
                    resp = conn.getresponse()
                    body = json.loads(resp.read())
                    latencies.append(time.perf_counter() - start)
                    assert resp.status == 200 and body["source"] == "hit"
            finally:
                conn.close()
        assert statistics.median(latencies) < 0.020


class TestRememberedHits:
    """A hit body is rendered once per remembered result, never stale."""

    def test_hit_body_is_the_fresh_rendering(
        self, tmp_path, hit_case, hit_result
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        with serving(config) as service:
            loaded = ArtifactCache(config.cache_dir).load(hit_case)
            expected = canonical_json(
                service._ok_payload(hit_case, loaded, "hit")
            ).encode()
            for _ in range(3):
                status, headers, raw = get_raw(service, f"/case?{qs(HIT)}")
                assert status == 200
                assert raw == expected
                assert headers["Content-Length"] == str(len(expected))
            assert service.cache.stats.hits == 3

    def test_restored_result_is_served_on_the_next_hit(
        self, tmp_path, hit_case, hit_result
    ):
        config = _config(tmp_path)
        writer = ArtifactCache(config.cache_dir)
        writer.store(hit_case, hit_result)
        restored = dataclasses.replace(hit_result, name="restored")
        with serving(config) as service:
            assert get(service, f"/case?{qs(HIT)}")[0] == 200
            writer.store(hit_case, restored)
            status, _, raw = get_raw(service, f"/case?{qs(HIT)}")
            assert status == 200
            assert raw == canonical_json(
                service._ok_payload(hit_case, restored, "hit")
            ).encode()

    def test_threads_see_only_valid_renderings_while_a_key_is_restored(
        self, tmp_path, hit_result
    ):
        queries = [{**HIT, "base_seed": str(s)} for s in (7, 8, 9)]
        cases = [case_from_query(q) for q in queries]
        config = _config(tmp_path, admission=AdmissionConfig(max_inflight=16))
        writer = ArtifactCache(config.cache_dir)
        for case in cases:
            writer.store(case, hit_result)
        restored = dataclasses.replace(hit_result, name="restored")
        service = RobustnessService(config)

        def rendering(case, result) -> bytes:
            return canonical_json(service._ok_payload(case, result, "hit")).encode()

        valid = [{rendering(case, hit_result)} for case in cases]
        valid[0].add(rendering(cases[0], restored))
        stop = threading.Event()
        errors: list[BaseException] = []

        def restore() -> None:
            for result in itertools.cycle([restored, hit_result]):
                if stop.is_set():
                    return
                writer.store(cases[0], result)
                time.sleep(0.001)

        def client(offset: int) -> None:
            try:
                for i in range(200):
                    k = (offset + i) % len(cases)
                    status, _, body = service.handle_case(queries[k])
                    assert status == 200
                    assert body in valid[k]
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        restorer = threading.Thread(target=restore)
        clients = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            restorer.start()
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120.0)
            stop.set()
            restorer.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [restorer, *clients])
        assert errors == []
        assert service.stats.hits == 8 * 200
        memo = service.cache.memo
        # a lost update to the byte count would break this sum
        assert memo.nbytes == sum(size for _, size in memo._entries.values())
        assert memo.nbytes <= memo.max_bytes


class TestErrorSurface:
    def test_bad_query_is_a_structured_400(self, tmp_path):
        with serving(_config(tmp_path)) as service:
            status, _, body = get(service, "/case?kind=mesh&param=3&ul=1.1")
            assert status == 400
            assert body["error"] == "bad-request"
            assert "mesh" in body["detail"]
            assert service.stats.bad_requests == 1

    def test_graph_that_does_not_exist_is_a_counted_400(self, tmp_path):
        """GE needs b >= 2: the check runs before the task count does."""
        with serving(_config(tmp_path)) as service:
            status, _, body = get(service, "/case?kind=ge&param=1&ul=1.1")
            assert (status, body["error"]) == (400, "bad-request")
            assert "param" in body["detail"]
            status, _, stats = get(service, "/stats")
            assert status == 200
            assert stats["service"]["bad_requests"] == 1

    def test_unknown_parameter_is_a_400(self, tmp_path):
        with serving(_config(tmp_path)) as service:
            status, _, body = get(service, f"/case?{qs(HIT)}&gridn=65")
            assert status == 400
            assert "gridn" in body["detail"]

    def test_cases_no_worker_can_run_are_400s_and_never_enqueued(
        self, tmp_path
    ):
        unrunnable = [
            {"ul": "0.5"},
            {"ul": "nan"},
            {"ul": "inf"},
            {"n_random": "1"},
            {"grid_n": "4"},
            {"heuristics": "nope"},
            {"method": "spelde", "fast_conv": "1"},
            {"delta": "nan"},
            {"delta": "-1"},
            {"gamma": "0.5"},
            {"method": "montecarlo", "mc_realizations": "1"},
        ]
        config = _config(tmp_path, deadline_seconds=0.5)
        with serving(config) as service:
            for override in unrunnable:
                status, _, body = get(service, f"/case?{qs({**HIT, **override})}")
                assert status == 400, override
                assert body["error"] == "bad-request"
            assert service.queue.task_ids() == []
            assert service.stats.bad_requests == len(unrunnable)
            assert service.stats.misses == 0

    def test_unknown_route_is_a_404(self, tmp_path):
        with serving(_config(tmp_path)) as service:
            status, _, body = get(service, "/nope")
            assert status == 404
            assert body["error"] == "not-found"


class TestMissPath:
    def test_miss_dispatched_to_worker_is_byte_identical(
        self, tmp_path, miss_case, miss_result
    ):
        with serving(_config(tmp_path)) as service:
            with fleet_thread(service):
                status, _, body = get(service, f"/case?{qs(MISS)}")
            assert status == 200
            assert body["source"] == "miss"
            assert_identical(body, miss_case, miss_result)
            assert service.stats.misses == 1
            assert service.stats.computed == 1
            # the computed artifact is now a warm, scan-free hit
            scans_before = service.cache.stats.scans
            status, _, body = get(service, f"/case?{qs(MISS)}")
            assert status == 200 and body["source"] == "hit"
            assert service.cache.stats.scans == scans_before

    def test_deadline_is_a_504_and_the_task_survives(
        self, tmp_path, miss_case
    ):
        config = _config(tmp_path, deadline_seconds=0.3)
        with serving(config) as service:  # no workers anywhere
            start = time.monotonic()
            status, headers, body = get(service, f"/case?{qs(MISS)}")
            elapsed = time.monotonic() - start
            assert status == 504
            assert body["error"] == "deadline"
            assert elapsed < 10.0  # bounded, not hung
            assert "Retry-After" in headers
            task_id = body["task"]
            assert task_id == f"case-{miss_case.key[:12]}"
            # the work keeps cooking: task enqueued, nothing poisoned
            assert task_id in service.queue.task_ids()
            assert not service.queue.is_poisoned(task_id)
            assert service.stats.timeouts == 1

    def test_poisoned_task_is_a_502_with_report(self, tmp_path, miss_case):
        config = _config(tmp_path)
        poison_queue = WorkQueue(
            config.queue_dir, QueueConfig(max_attempts=1)
        ).init()
        task_id = poison_queue.enqueue_case(miss_case)
        assert poison_queue.claim(task_id, "w0")
        poison_queue.fail(task_id, "synthetic failure")
        assert poison_queue.is_poisoned(task_id)
        with serving(config) as service:
            status, _, body = get(service, f"/case?{qs(MISS)}")
            assert status == 502
            assert body["error"] == "poisoned"
            assert body["task"] == task_id
            assert body["report"]  # the poison report rides along
            assert service.stats.poisoned == 1


class TestShedding:
    def test_saturated_gate_sheds_with_429(self, tmp_path):
        config = _config(
            tmp_path,
            admission=AdmissionConfig(
                max_inflight=1, max_waiting=0, retry_after_seconds=2.0
            ),
        )
        with serving(config) as service:
            with service.gate.admit():  # capacity fully held
                status, headers, body = get(service, f"/case?{qs(HIT)}")
            assert status == 429
            assert body["error"] == "shed"
            assert headers["Retry-After"] == "2"
            assert body["retry_after"] == 2.0
            assert service.stats.shed == 1

    def test_shed_storm_fault_then_recovery(
        self, tmp_path, hit_case, hit_result, monkeypatch
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        monkeypatch.setenv("REPRO_QUEUE_FAULT", "shed-storm:2")
        with serving(config) as service:
            statuses = [
                get(service, f"/case?{qs(HIT)}")[0] for _ in range(3)
            ]
            assert statuses == [429, 429, 200]  # storm, then recovery
            assert "shed-storm" in fired_markers(service.queue)
            assert service.stats.shed == 2
            assert service.gate.snapshot()["shed_forced"] == 2


class TestFaultInjection:
    def test_slow_cache_read_is_slow_but_correct(
        self, tmp_path, hit_case, hit_result, monkeypatch
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        monkeypatch.setenv("REPRO_QUEUE_FAULT", "slow-cache-read:0.15")
        with serving(config) as service:
            start = time.monotonic()
            status, _, body = get(service, f"/case?{qs(HIT)}")
            assert time.monotonic() - start >= 0.15
            assert status == 200
            assert_identical(body, hit_case, hit_result)

    def test_torn_index_is_an_unknown_fault_kind(self, tmp_path, monkeypatch):
        # The cache keeps no index file, so there is nothing to tear.
        monkeypatch.setenv("REPRO_QUEUE_FAULT", "torn-index")
        with pytest.raises(ValueError, match="unknown fault kind 'torn-index'"):
            RobustnessService(_config(tmp_path))

    def test_backend_hang_delays_dispatch_but_serves(
        self, tmp_path, miss_case, miss_result, monkeypatch
    ):
        monkeypatch.setenv("REPRO_QUEUE_FAULT", "backend-hang:0.2")
        with serving(_config(tmp_path)) as service:
            with fleet_thread(service):
                status, _, body = get(service, f"/case?{qs(MISS)}")
            assert status == 200
            assert body["source"] == "miss"
            assert_identical(body, miss_case, miss_result)
            assert "backend-hang" in fired_markers(service.queue)


class TestOps:
    def test_healthz_flips_to_draining(self, tmp_path):
        with serving(_config(tmp_path)) as service:
            status, _, body = get(service, "/healthz")
            assert status == 200 and body["status"] == "ok"
            service.stop_event.set()
            status, _, body = get(service, "/healthz")
            assert status == 503 and body["status"] == "draining"

    def test_stats_exposes_every_layer(
        self, tmp_path, hit_case, hit_result
    ):
        config = _config(tmp_path)
        ArtifactCache(config.cache_dir).store(hit_case, hit_result)
        with serving(config) as service:
            assert get(service, f"/case?{qs(HIT)}")[0] == 200
            status, _, raw = get_raw(service, "/stats")
            assert status == 200
            body = json.loads(raw)
            # The wire bytes themselves are canonical, not just the
            # parsed payload: re-serializing the body reproduces the
            # response byte for byte.
            assert raw == canonical_json(body).encode()
            assert body["service"]["requests"] == 1
            assert body["service"]["hits"] == 1
            assert body["cache"] == {
                "hits": 1,
                "misses": 0,
                "stores": 0,
                "corrupt": 0,
                "scans": 0,
            }
            assert body["admission"]["admitted"] == 1
            assert "open" in body["queue"]
            assert isinstance(body["summary"], str)


class TestCliDrain:
    @pytest.mark.fleet
    def test_sigterm_drains_gracefully(self, tmp_path, hit_case, hit_result):
        """The real `serve` process: serve a hit, SIGTERM, exit 0 clean."""
        cache_dir = tmp_path / "cache"
        queue_dir = tmp_path / "queue"
        ArtifactCache(cache_dir).store(hit_case, hit_result)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "serve",
                "--cache-dir",
                str(cache_dir),
                "--queue-dir",
                str(queue_dir),
                "--port",
                "0",
                "--workers",
                "1",
                "--queue-poll",
                "0.05",
            ],
            env=fault_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no bind banner, got: {banner!r}"
            port = int(match.group(1))
            url = f"http://127.0.0.1:{port}/case?{qs(HIT)}"
            with urllib.request.urlopen(url, timeout=60) as resp:
                assert resp.status == 200
                body = json.loads(resp.read())
            assert_identical(body, hit_case, hit_result)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, out
        assert "serve drained" in out
        assert "1 requests" in out and "1 hits" in out
        # the drained fleet released everything: no claims left behind
        queue = WorkQueue(queue_dir)
        assert list(queue.claims_dir.glob("*")) == []
