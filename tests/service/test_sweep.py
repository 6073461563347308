"""Sweep-engine tests: ``/sweep`` streams vs the direct-aggregate oracle.

The invariant every test circles back to mirrors ``/case``'s: the final
streamed sweep aggregate is **byte-identical** (canonical JSON) to a
direct :func:`~repro.experiments.fig6_aggregate.aggregate_from_cache`
run over the identical expanded case list — warm, cold, mixed, and with
a worker killed mid-sweep.  On the way there: incremental updates are
monotone (each folds a strict superset prefix), the warm split performs
zero directory scans, malformed expressions are structured 400s, and a
sweep weighs its expanded size at the admission gate.
"""

import json
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    QueueConfig,
    WorkQueue,
    suite_aggregate_to_payload,
)
from repro.caseset import parse
from repro.experiments.fig6_aggregate import aggregate_from_cache
from repro.io.json_io import canonical_json
from repro.service import (
    AdmissionConfig,
    RobustnessService,
    ServiceConfig,
    SweepStream,
    case_from_query,
)
from tests.campaign.faultlib import fault_env, fired_markers, spawn_worker
from tests.caseset.test_algebra import MALFORMED
from tests.service.test_server import (
    HIT,
    _config,
    fleet_thread,
    get,
    qs,
    serving,
    wait_retired,
)

#: Cheap-case modifiers shared by every sweep in this file (HIT-sized).
MODS = "n_random[5] x mc_realizations[50] x grid_n[17] x base_seed[7]"
EXPR = f"graph[rand10] x ul[1.1,1.2] x seed[0-1] x {MODS}"


def caseset():
    return parse(EXPR)


def warm_cache(tmp_path, cases) -> None:
    """Precompute ``cases`` into the service cache."""
    cache = ArtifactCache(tmp_path / "cache")
    for _ in Campaign(list(cases), cache=cache).iter_results():
        pass


def oracle_bytes(tmp_path, cs) -> str:
    """The direct-aggregate oracle: canonical JSON over the same cases."""
    result = aggregate_from_cache(
        cases=cs.cases(), cache=ArtifactCache(tmp_path / "cache")
    )
    return canonical_json(suite_aggregate_to_payload(result.suite_aggregate()))


def collect(stream: SweepStream) -> list[tuple[str, dict]]:
    """Drain a stream's events, always returning the gate weight."""
    try:
        return list(stream.events())
    finally:
        stream.close()


def assert_monotone(events, total: int) -> None:
    """Updates fold strictly growing prefixes of the expansion order."""
    dones = [p["done"] for e, p in events if e == "update"]
    assert dones == sorted(set(dones))
    assert all(0 < d <= total for d in dones)
    for e, p in events:
        if e == "update":
            assert p["aggregate"]["n_cases"] == p["done"]


def parse_sse(text: str) -> list[tuple[str, dict]]:
    """Decode an SSE body into (event, payload) pairs (pings dropped)."""
    events = []
    for block in text.split("\n\n"):
        block = block.strip()
        if not block or block.startswith(":"):
            continue
        fields = dict(
            line.split(": ", 1) for line in block.split("\n") if ": " in line
        )
        events.append((fields["event"], json.loads(fields["data"])))
    return events


def sweep_path(expr: str, **params) -> str:
    """URL-encode a sweep request (expressions contain spaces)."""
    return "/sweep?" + urllib.parse.urlencode({"expr": expr, **params})


def raw_get(service, path: str, timeout: float = 120.0):
    """GET returning (status, headers, raw text) — for stream bodies."""
    url = f"http://127.0.0.1:{service.port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


class TestSweepResolution:
    @pytest.mark.parametrize(
        "expr,fragment", [(e, f) for e, f in MALFORMED if e]
    )
    def test_malformed_expression_is_a_structured_400(
        self, tmp_path, expr, fragment
    ):
        # The empty expression is a missing-parameter 400, tested below.
        service = RobustnessService(_config(tmp_path))
        status, _, body = service.handle_sweep({"expr": expr})
        assert status == 400
        assert body["error"] == "bad-sweep"
        assert fragment in body["detail"]

    def test_missing_expr_unknown_param_bad_format_are_400s(self, tmp_path):
        service = RobustnessService(_config(tmp_path))
        for params in (
            {},
            {"expr": EXPR, "bogus": "1"},
            {"expr": EXPR, "format": "xml"},
            {"expr": f"{EXPR} ! {EXPR}"},  # difference cancels everything
        ):
            status, _, body = service.handle_sweep(params)
            assert status == 400, params
            assert body["error"] == "bad-sweep"
        assert service.stats.bad_requests == 4

    def test_oversize_expansion_is_a_400_not_a_half_sweep(self, tmp_path):
        service = RobustnessService(_config(tmp_path, max_sweep_cases=3))
        status, _, body = service.handle_sweep({"expr": EXPR})  # 4 cases
        assert status == 400
        assert "limit" in body["detail"]
        assert service.queue.task_ids() == []  # nothing was enqueued


class TestWarmSweep:
    def test_final_aggregate_is_byte_identical_with_zero_scans(
        self, tmp_path
    ):
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        service = RobustnessService(_config(tmp_path))
        scans_before = service.cache.stats.scans
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        events = collect(stream)
        assert events[0][0] == "start"
        assert events[0][1]["warm"] == len(cs)
        assert events[0][1]["cold"] == 0
        assert events[0][1]["missing"] == ""
        assert events[-1][0] == "done"
        assert canonical_json(events[-1][1]["aggregate"]) == oracle_bytes(
            tmp_path, cs
        )
        assert service.cache.stats.scans == scans_before
        assert service.queue.task_ids() == []  # warm sweeps never enqueue
        assert service.gate.snapshot()["inflight"] == 0

    def test_sweep_counters_land_on_stats(self, tmp_path):
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        service = RobustnessService(_config(tmp_path))
        _, _, stream = service.handle_sweep({"expr": EXPR})
        collect(stream)
        assert service.stats.sweeps == 1
        assert service.stats.sweep_cases == len(cs)
        assert service.stats.sweep_warm == len(cs)
        assert service.stats.sweep_cold == 0


class TestColdSweep:
    def test_cold_sweep_streams_monotone_updates_to_the_same_bytes(
        self, tmp_path
    ):
        cs = caseset()
        config = _config(tmp_path, sweep_deadline_seconds=180.0)
        with serving(config) as service, fleet_thread(service):
            status, headers, text = raw_get(service, sweep_path(EXPR))
            assert status == 200
            assert headers["Content-Type"] == "text/event-stream"
            events = parse_sse(text)
            assert events[0][0] == "start"
            assert events[0][1]["cold"] == len(cs)
            assert parse(events[0][1]["missing"]).keys() == cs.keys()
            assert events[-1][0] == "done"
            assert_monotone(events, len(cs))
            assert service.stats.sweep_cold == len(cs)
            done = events[-1][1]
        assert canonical_json(done["aggregate"]) == oracle_bytes(
            tmp_path, cs
        )

    def test_mixed_sweep_splits_warm_cold_and_matches_oracle(self, tmp_path):
        cs = caseset()
        warm_cache(tmp_path, cs.cases()[:2])
        config = _config(tmp_path, sweep_deadline_seconds=180.0)
        with serving(config) as service, fleet_thread(service):
            status, _, text = raw_get(service, sweep_path(EXPR))
            assert status == 200
            events = parse_sse(text)
            assert events[0][1]["warm"] == 2
            assert events[0][1]["cold"] == 2
            missing = parse(events[0][1]["missing"])
            assert set(missing.keys()) == set(cs.keys()[2:])
            done = events[-1][1]
        assert canonical_json(done["aggregate"]) == oracle_bytes(
            tmp_path, cs
        )


class TestSweepFaults:
    def test_served_case_with_a_truncated_artifact_is_recomputed(
        self, tmp_path
    ):
        # The served case's task retired with its first sweep, so the
        # second sweep, finding the artifact truncated, dispatches the
        # case again and ends done instead of running out its deadline.
        one = parse(f"graph[rand10] x ul[1.1] x seed[0] x {MODS}")
        config = _config(tmp_path, sweep_deadline_seconds=20.0)
        service = RobustnessService(config)
        with fleet_thread(service):
            first = collect(service.handle_sweep({"expr": one.fold()})[2])
            assert first[-1][0] == "done", first[-1]
            wait_retired(service)
            artifact = service.cache.path_for(one.cases()[0])
            artifact.write_bytes(artifact.read_bytes()[:100])
            events = collect(service.handle_sweep({"expr": one.fold()})[2])
        assert events[-1][0] == "done", events[-1]
        assert canonical_json(events[-1][1]["aggregate"]) == oracle_bytes(
            tmp_path, one
        )
        assert service.queue.task_ids() == []

    @pytest.mark.fleet
    def test_sweep_survives_a_worker_kill_byte_identically(self, tmp_path):
        """kill-worker mid-sweep: the redispatched task lands, bytes hold."""
        cs = caseset()
        config = _config(tmp_path, sweep_deadline_seconds=240.0)
        service = RobustnessService(config)
        status, _, stream = service.handle_sweep(
            {"expr": EXPR, "format": "ndjson"}
        )
        assert status == 200
        events: list[tuple[str, dict]] = []
        collector = threading.Thread(
            target=lambda: events.extend(stream.events())
        )
        collector.start()
        procs = []
        try:
            # The doomed worker first, alone, so the one-shot kill is
            # guaranteed to fire before the clean worker can drain the
            # queue; its claim goes stale and is reaped by the survivor.
            doomed = spawn_worker(
                config.queue_dir,
                config.cache_dir,
                "k0",
                env=fault_env("kill-worker@k0"),
                lease=2.0,
                forever=True,
            )
            procs.append(doomed)
            doomed.wait(timeout=120.0)
            assert doomed.returncode != 0  # it really died mid-task
            fired = fired_markers(service.queue)
            assert any(m.startswith("kill-worker") for m in fired)
            procs.append(
                spawn_worker(
                    config.queue_dir,
                    config.cache_dir,
                    "k1",
                    env=fault_env(),
                    lease=2.0,
                    forever=True,
                )
            )
            collector.join(timeout=240.0)
            assert not collector.is_alive()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                proc.wait(timeout=30.0)
            stream.close()
        assert events[-1][0] == "done"
        assert_monotone(events, len(cs))
        assert canonical_json(events[-1][1]["aggregate"]) == oracle_bytes(
            tmp_path, cs
        )

    def test_poisoned_task_ends_the_stream_with_a_report(self, tmp_path):
        cs = caseset()
        config = _config(tmp_path)
        poison_queue = WorkQueue(
            config.queue_dir, QueueConfig(max_attempts=1)
        ).init()
        task_id = poison_queue.enqueue_case(cs.cases()[0])
        assert poison_queue.claim(task_id, "w0")
        poison_queue.fail(task_id, "synthetic failure")
        service = RobustnessService(config)
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        events = collect(stream)
        assert events[-1][0] == "error"
        assert events[-1][1]["error"] == "poisoned"
        assert events[-1][1]["task"] == task_id
        assert events[-1][1]["report"]
        assert parse(events[-1][1]["missing"])  # remainder is foldable
        assert service.stats.poisoned == 1
        assert service.gate.snapshot()["inflight"] == 0

    def test_deadline_ends_the_stream_with_the_missing_subset(
        self, tmp_path
    ):
        cs = caseset()
        service = RobustnessService(
            _config(tmp_path, sweep_deadline_seconds=0.2)
        )
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        events = collect(stream)
        assert events[-1][0] == "error"
        assert events[-1][1]["error"] == "deadline"
        assert parse(events[-1][1]["missing"]).keys() == cs.keys()
        assert service.stats.timeouts == 1
        # The tasks stay enqueued: a later sweep starts from their work.
        assert len(service.queue.task_ids()) == len(cs)

    def test_draining_service_ends_the_stream_structurally(self, tmp_path):
        service = RobustnessService(_config(tmp_path))
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        service.stop_event.set()
        events = collect(stream)
        assert events[-1][0] == "error"
        assert events[-1][1]["error"] == "draining"

    def test_unreachable_queue_is_a_backend_error_event(
        self, tmp_path, monkeypatch
    ):
        service = RobustnessService(_config(tmp_path, enqueue_retries=1))

        def broken(case, suite_index=0):
            raise OSError("queue device gone")

        monkeypatch.setattr(service.queue, "enqueue_case", broken)
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        events = collect(stream)
        assert events[0][0] == "start"
        assert events[-1][0] == "error"
        assert events[-1][1]["error"] == "backend-unavailable"
        assert service.stats.backend_errors == 1
        assert service.gate.snapshot()["inflight"] == 0


class TestSweepAdmission:
    def test_a_sweep_counts_as_its_expanded_size(self, tmp_path):
        """While a 4-case sweep is open, a 4-slot gate sheds point queries."""
        cs = caseset()
        warm_cache(tmp_path, [*cs.cases(), case_from_query(HIT)])
        config = _config(
            tmp_path,
            admission=AdmissionConfig(
                max_inflight=4, max_waiting=0, wait_seconds=0.05
            ),
        )
        service = RobustnessService(config)
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        assert service.gate.snapshot()["inflight"] == 4
        shed_status, _, body = service.handle_case(HIT)
        assert shed_status == 429
        assert body["error"] == "shed"
        stream.close()
        assert service.gate.snapshot()["inflight"] == 0
        hit_status, _, _ = service.handle_case(HIT)
        assert hit_status == 200  # gate admits again
        assert service.gate.snapshot()["inflight_hwm"] == 4

    def test_sweep_weight_clamps_to_the_gate_size(self, tmp_path):
        """A sweep bigger than max_inflight still admits (clamped)."""
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        config = _config(
            tmp_path,
            admission=AdmissionConfig(max_inflight=2, max_waiting=0),
        )
        service = RobustnessService(config)
        status, _, stream = service.handle_sweep({"expr": EXPR})
        assert status == 200
        events = collect(stream)
        assert events[-1][0] == "done"
        assert service.gate.snapshot()["inflight"] == 0

    def test_double_close_releases_exactly_once(self, tmp_path):
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        service = RobustnessService(_config(tmp_path))
        _, _, stream = service.handle_sweep({"expr": EXPR})
        stream.close()
        stream.close()
        assert service.gate.snapshot()["inflight"] == 0

    def test_unconsumed_stream_still_releases_on_close(self, tmp_path):
        """Closing a never-started stream must return the weight."""
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        service = RobustnessService(_config(tmp_path))
        _, _, stream = service.handle_sweep({"expr": EXPR})
        assert service.gate.snapshot()["inflight"] > 0
        stream.close()  # events() never iterated
        assert service.gate.snapshot()["inflight"] == 0


class TestSweepWire:
    def test_stats_expose_sweep_counters_and_gate_high_water_marks(
        self, tmp_path
    ):
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        with serving(_config(tmp_path)) as service:
            raw_get(service, sweep_path(EXPR))
            status, _, body = get(service, "/stats")
        assert status == 200
        assert body["service"]["sweeps"] == 1
        assert body["service"]["sweep_cases"] == len(cs)
        assert body["service"]["sweep_warm"] == len(cs)
        assert body["service"]["sweep_cold"] == 0
        assert body["admission"]["inflight_hwm"] >= 1
        assert "waiting_hwm" in body["admission"]
        assert "sweeps" in body["summary"]

    def test_ndjson_format_is_one_event_per_line(self, tmp_path):
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        with serving(_config(tmp_path)) as service:
            status, headers, text = raw_get(
                service, sweep_path(EXPR, format="ndjson")
            )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in text.splitlines() if line]
        assert lines[0]["event"] == "start"
        assert lines[-1]["event"] == "done"
        assert canonical_json(lines[-1]["aggregate"]) == oracle_bytes(
            tmp_path, cs
        )

    def test_sse_wire_format_is_curl_n_compatible(self, tmp_path):
        """Proper SSE framing: event/data blocks, no Content-Length."""
        cs = caseset()
        warm_cache(tmp_path, cs.cases())
        with serving(_config(tmp_path)) as service:
            status, headers, text = raw_get(service, sweep_path(EXPR))
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        assert headers["Cache-Control"] == "no-store"
        assert "Content-Length" not in headers
        blocks = [b for b in text.split("\n\n") if b.strip()]
        for block in blocks:
            if block.startswith(":"):
                continue  # keepalive comment
            lines = block.split("\n")
            assert lines[0].startswith("event: ")
            assert lines[1].startswith("data: ")
            json.loads(lines[1][len("data: "):])
        events = parse_sse(text)
        assert [e for e, _ in events][0] == "start"
        assert [e for e, _ in events][-1] == "done"

    def test_sweep_then_case_share_artifacts(self, tmp_path):
        """A case computed by a sweep answers /case as a warm hit."""
        cs = caseset()
        config = _config(tmp_path, sweep_deadline_seconds=180.0)
        with serving(config) as service, fleet_thread(service):
            raw_get(service, sweep_path(EXPR))
            case = cs.cases()[0]
            params = {
                "kind": case.spec.kind,
                "param": str(case.spec.param),
                "ul": str(case.spec.ul),
                "n_random": str(case.n_random),
                "mc_realizations": str(case.mc_realizations),
                "grid_n": str(case.grid_n),
                "base_seed": str(case.base_seed),
            }
            status, _, body = get(service, f"/case?{qs(params)}")
            assert status == 200
            assert body["source"] == "hit"
            assert body["key"] == case.key
