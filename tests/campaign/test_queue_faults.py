"""Fault injection on the queue fleet: every failure mode, byte-identity.

Each test injects one deterministic failure (via the seams in
:mod:`repro.campaign.queue` and the helpers in
:mod:`tests.campaign.faultlib`), asserts the fault actually *fired* (the
one-shot marker under the queue's ``faults/``), and then asserts the
invariant of the whole subsystem: the merged aggregate payload — and,
where artifacts are shared, the artifact bytes — are identical to a
failure-free serial run.  The claim-race and kill tests spawn **real**
subprocess workers; ``os._exit`` faults must never run in the pytest
process itself.
"""

import hashlib
import pathlib
import re
import signal
import time

import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    PoisonedShardError,
    QueueBackend,
    QueueConfig,
    SuiteAggregator,
    WorkQueue,
    case_contribution,
    merge_partials,
    partition_cases,
    queue_worker,
    suite_aggregate_to_payload,
)

from tests.campaign.faultlib import (
    fault_env,
    fired_markers,
    make_injector,
    spawn_worker,
    wait_all,
)
from tests.campaign.test_shard import _indexed_cases

FAST = QueueConfig(
    lease_seconds=2.0, poll_seconds=0.05, max_attempts=3, backoff_seconds=0.0
)


@pytest.fixture(scope="module")
def serial_truth(tmp_path_factory):
    """Serial reference: aggregate payload + artifact sha256 set."""
    root = tmp_path_factory.mktemp("serial-truth")
    indexed = _indexed_cases()
    cache = ArtifactCache(root)
    results = Campaign([c for _, c in indexed], cache=cache).run()
    aggregator = SuiteAggregator(ordered=False)
    for (index, case), result in zip(indexed, results):
        aggregator.add(case_contribution(index, case, result))
    return {
        "aggregate": suite_aggregate_to_payload(aggregator.finalize()),
        "hashes": _sha256s(root),
        "n_cases": len(indexed),
    }


def _sha256s(cache_dir: pathlib.Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pathlib.Path(cache_dir).glob("*.json"))
    }


def _enqueue(tmp_path, n_shards=3):
    queue = WorkQueue(tmp_path / "queue", FAST)
    queue.enqueue(
        m for m in partition_cases(_indexed_cases(), n_shards) if m.cases
    )
    return queue


def _assert_identity(queue, cache_dir, truth):
    """The post-fault invariant: merged aggregate + artifacts == serial."""
    assert queue.is_complete()
    assert not queue.poisoned()
    merged = merge_partials(queue.partials())
    assert merged.aggregate.n_cases == truth["n_cases"]
    assert suite_aggregate_to_payload(merged.aggregate) == truth["aggregate"]
    assert _sha256s(cache_dir) == truth["hashes"]


class TestInjectedFaults:
    @pytest.mark.fleet
    def test_worker_killed_mid_shard_requeues_and_matches_serial(
        self, tmp_path, serial_truth
    ):
        queue = _enqueue(tmp_path)
        cache_dir = tmp_path / "cache"
        env = fault_env("kill-worker:1@w0")
        procs = [
            spawn_worker(queue.root, cache_dir, wid, env=env)
            for wid in ("w0", "w1")
        ]
        wait_all(procs)
        assert "kill-worker@w0" in fired_markers(queue)
        # The killed worker left a stale claim behind; a surviving
        # worker's reaper retired it and re-executed the shard.
        assert queue.status().failed_attempts >= 1
        _assert_identity(queue, cache_dir, serial_truth)

    @pytest.mark.fleet
    def test_dropped_partial_is_redispatched_and_matches_serial(
        self, tmp_path, serial_truth
    ):
        queue = _enqueue(tmp_path)
        cache_dir = tmp_path / "cache"
        env = fault_env("drop-partial@w0")
        procs = [
            spawn_worker(queue.root, cache_dir, wid, env=env)
            for wid in ("w0", "w1")
        ]
        wait_all(procs)
        assert "drop-partial@w0" in fired_markers(queue)
        # The shard was fully computed but its partial never landed;
        # the reaper re-dispatched it and the retry ran warm from cache.
        _assert_identity(queue, cache_dir, serial_truth)

    def test_stale_heartbeat_duplicated_completion_matches_serial(
        self, tmp_path, serial_truth
    ):
        # The spurious-requeue → duplicated-completion path, made fully
        # deterministic: worker w0 goes heartbeat-silent but keeps
        # computing; mid-shard its lease goes stale and the reaper
        # requeues the shard; worker w1 re-executes it (and the rest of
        # the queue) to completion; then w0 *also* finishes and writes
        # the same canonical partial — last write wins, results
        # byte-identical to serial.
        import os as _os
        import time as _time

        queue = _enqueue(tmp_path, n_shards=2)
        cache_dir = tmp_path / "cache"
        silent = make_injector(queue, "w0", "stale-heartbeat")
        reports = {}

        def stale_then_duplicate(task_id, n_done):
            if n_done == 1 and not reports:
                stale = _time.time() - 10.0
                _os.utime(queue.claim_path(task_id), (stale, stale))
                assert [e.action for e in queue.requeue_stale()] == [
                    "requeued"
                ]
                reports["w1"] = queue_worker(
                    queue, cache_dir, "w1", env_faults=False
                )

        silent.on_case_done = stale_then_duplicate
        report0 = queue_worker(
            queue, cache_dir, "w0",
            injector=silent, reap=False, env_faults=False,
        )
        assert "stale-heartbeat" in fired_markers(queue)
        n_tasks = len(queue.task_ids())
        # w1 drained the whole queue; w0 still completed its stolen shard
        # afterwards — one shard was genuinely completed twice.
        assert reports["w1"].completed == n_tasks
        assert report0.completed == 1
        assert report0.lost_lease == 0
        _assert_identity(queue, cache_dir, serial_truth)

    def test_corrupt_claim_content_does_not_stall_the_queue(
        self, tmp_path, serial_truth
    ):
        # Liveness is mtime-only: garbage claim *content* must not break
        # the worker, the reaper, or the results.
        queue = _enqueue(tmp_path)
        cache_dir = tmp_path / "cache"
        corruptor = make_injector(queue, "w0", "corrupt-claim")
        report = queue_worker(
            queue, cache_dir, "w0", injector=corruptor, env_faults=False
        )
        assert "corrupt-claim" in fired_markers(queue)
        assert report.completed == len(queue.task_ids())
        _assert_identity(queue, cache_dir, serial_truth)

    @pytest.mark.fleet
    def test_claim_race_exactly_one_winner(self, tmp_path):
        # Two real subprocess workers released simultaneously (a shared
        # start barrier) onto a single-task queue: the O_EXCL claim file
        # must arbitrate to exactly one winner.
        queue = _enqueue(tmp_path, n_shards=1)
        assert len(queue.task_ids()) == 1
        cache_dir = tmp_path / "cache"
        barrier = tmp_path / "start-barrier"
        env = fault_env(barrier=barrier)
        procs = [
            spawn_worker(
                queue.root, cache_dir, wid, env=env, no_wait=True,
                no_reap=True,
            )
            for wid in ("racer-a", "racer-b")
        ]
        barrier.write_text("go")
        outputs = wait_all(procs)
        claimed = [
            int(re.search(r"claimed=(\d+)", out).group(1)) for out in outputs
        ]
        assert sorted(claimed) == [0, 1], outputs
        assert queue.is_complete()
        assert queue.status().failed_attempts == 0


class TestCoordinatorUnderFaults:
    @pytest.mark.fleet
    def test_backend_fleet_survives_injected_kill(
        self, tmp_path, serial_truth, monkeypatch
    ):
        # The full coordinator path (Campaign → QueueBackend → subprocess
        # fleet) with a worker kill injected through the environment —
        # the same leg the dispatch-identity CI job runs.
        monkeypatch.setenv("REPRO_QUEUE_FAULT", "kill-worker:1@w0")
        indexed = _indexed_cases()
        cache = ArtifactCache(tmp_path / "cache")
        backend = QueueBackend(
            n_shards=3, jobs=2, queue_dir=tmp_path / "q", config=FAST
        )
        results = Campaign(
            [c for _, c in indexed], cache=cache, backend=backend
        ).run()
        assert len(results) == serial_truth["n_cases"]
        queue = WorkQueue(tmp_path / "q", FAST)
        assert "kill-worker@w0" in fired_markers(queue)
        # The killed attempt left its tombstone, and the cache counted
        # every case once: computed by a surviving worker, or stored by
        # the killed one and loaded by its successor.
        assert queue.status().failed_attempts >= 1
        assert cache.stats.hits + cache.stats.stores == serial_truth["n_cases"]
        _assert_identity(queue, tmp_path / "cache", serial_truth)

    def test_all_attempts_exhausted_poisons_loudly(self, tmp_path):
        # A fault that fires on *every* attempt (scoped to no worker, so
        # respawned workers inherit it... but one-shot markers prevent
        # refiring; instead poison directly) must surface as
        # PoisonedShardError, not silence or a hang.
        indexed = _indexed_cases()
        queue_dir = tmp_path / "q"
        config = QueueConfig(
            lease_seconds=2.0, poll_seconds=0.05, max_attempts=1
        )
        queue = WorkQueue(queue_dir, config)
        manifests = [m for m in partition_cases(indexed, 2) if m.cases]
        queue.enqueue(manifests)
        victim = queue.task_ids()[0]
        queue.claim(victim, "doomed")
        queue.fail(victim, "simulated systemic failure")
        backend = QueueBackend(
            n_shards=2, jobs=1, queue_dir=queue_dir, config=config
        )
        backend.submit(
            indexed, cache=ArtifactCache(tmp_path / "cache"), force=False
        )
        healthy = []
        with pytest.raises(PoisonedShardError) as err:
            for item in backend.as_completed():
                healthy.append(item)
        # The healthy shard's results were yielded before the raise…
        healthy_manifest = next(
            m for m in manifests
            if m.filename[: -len(".json")] != victim
        )
        assert len(healthy) == len(healthy_manifest.cases)
        # …and the report names the poisoned shard actionably.
        assert victim in err.value.reports
        assert "simulated systemic failure" in str(
            err.value.reports[victim].get("reason", "")
        )


def _wait_for_claim(queue: WorkQueue, timeout: float = 60.0) -> str:
    """Poll until a worker claims some task; returns the task id."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        claims = sorted(queue.claims_dir.glob("*.claim"))
        if claims:
            return claims[0].name[: -len(".claim")]
        time.sleep(0.02)
    raise AssertionError("worker never claimed a task")


@pytest.mark.fleet
class TestWorkerSignals:
    """SIGTERM drains: finish-or-release, never tombstone, never hang.

    The contract the service fleet (and any operator's ``kill``) relies
    on: the first signal finishes the current case, *releases* the claim
    (no failed-attempt tombstone — a drain is not a crash) and exits 3
    when work remains; a second signal abandons ship with exit 4; an
    idle ``--forever`` worker drains to exit 0 promptly.
    """

    def test_sigterm_mid_shard_releases_claim_and_exits_3(self, tmp_path):
        queue = _enqueue(tmp_path, n_shards=1)
        cache_dir = tmp_path / "cache"
        # pace the shard so the signal reliably lands mid-execution
        proc = spawn_worker(
            queue.root, cache_dir, "w0", env=fault_env("sleep-case:0.4")
        )
        task = _wait_for_claim(queue)
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        out = wait_all([proc], timeout=120)[0]
        assert proc.returncode == 3, out  # drained with work remaining
        # the claim came off gracefully: released, not retired
        assert not queue.claim_path(task).exists()
        assert queue.scan().tasks[task].attempts == 0
        assert not queue.has_partial(task)
        assert "released=1" in out
        # the released task is immediately claimable: a fresh worker
        # resumes warm from the artifacts the drained one stored
        report = queue_worker(
            queue, ArtifactCache(cache_dir), "w1", env_faults=False
        )
        assert queue.is_complete()
        assert not queue.poisoned()
        assert report.cached >= 1

    def test_second_sigterm_abandons_with_exit_4(self, tmp_path):
        queue = _enqueue(tmp_path, n_shards=1)
        proc = spawn_worker(
            queue.root,
            tmp_path / "cache",
            "w0",
            env=fault_env("sleep-case:5"),
        )
        task = _wait_for_claim(queue)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.4)  # first signal handled; worker mid-case
        proc.send_signal(signal.SIGTERM)
        out = wait_all([proc], timeout=60)[0]
        assert proc.returncode == 4, out  # hard abandon
        # the abandoned claim stays for the reaper — exactly why the
        # second signal is the impatient path, not the default
        assert queue.claim_path(task).exists()

    def test_idle_forever_worker_drains_to_exit_0(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue", FAST).init()
        proc = spawn_worker(
            queue.root, tmp_path / "cache", "w0", env=fault_env(),
            forever=True,
        )
        # the ready banner prints only after the drain handlers are
        # armed — signalling earlier would hit the default SIGTERM action
        assert "ready" in proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        out = wait_all([proc], timeout=30)[0]
        assert proc.returncode == 0, out  # nothing owed: clean exit
