"""The work-queue protocol: claims, leases, reaper, worker, backend."""

import dataclasses
import json
import os
import pathlib
import sys
import threading
import time
import zlib
from collections import Counter

import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    PoisonedShardError,
    QueueBackend,
    QueueConfig,
    WorkQueue,
    expand_suite,
    merge_partials,
    partition_cases,
    queue_worker,
    run_shard,
)
from repro.campaign.queue import FaultSpec, TaskState
from repro.io.json_io import case_result_to_json

from tests.campaign.faultlib import make_injector
from tests.campaign.test_shard import SPECS, TINY, _indexed_cases

FAST = QueueConfig(
    lease_seconds=2.0, poll_seconds=0.05, max_attempts=3, backoff_seconds=0.0
)


def _enqueued(tmp_path, n_shards=3, name="queue"):
    """A queue directory with the tiny suite partitioned onto it."""
    queue = WorkQueue(tmp_path / name, FAST)
    manifests = [
        m for m in partition_cases(_indexed_cases(), n_shards) if m.cases
    ]
    queue.enqueue(manifests)
    return queue, manifests


class TestQueueProtocol:
    def test_init_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.init()
        queue.init()
        assert queue.tasks_dir.is_dir() and queue.claims_dir.is_dir()

    def test_enqueue_reports_new_and_done(self, tmp_path):
        queue, manifests = _enqueued(tmp_path)
        assert queue.task_ids() == sorted(
            m.filename[: -len(".json")] for m in manifests
        )
        # Re-enqueue: nothing done yet, every task rewritten harmlessly.
        new, done = queue.enqueue(manifests)
        assert (new, done) == (len(manifests), 0)

    def test_enqueue_rejects_foreign_suite(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        other = expand_suite(SPECS, TINY, base_seed=99)
        foreign = [
            m for m in partition_cases(list(enumerate(other)), 3) if m.cases
        ]
        with pytest.raises(ValueError, match="already holds suite"):
            queue.enqueue(foreign)

    def test_claim_is_exclusive(self, tmp_path):
        queue, manifests = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        assert queue.claim(task, "a")
        assert not queue.claim(task, "b")
        claim = json.loads(queue.claim_path(task).read_text())
        assert claim["worker"] == "a"
        assert claim["attempt"] == 1

    def test_heartbeat_reports_lost_lease(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        assert queue.claim(task, "a")
        assert queue.heartbeat(task)
        queue.claim_path(task).unlink()
        assert not queue.heartbeat(task)

    def test_reaper_spares_fresh_and_retires_stale(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        a, b = queue.task_ids()[:2]
        queue.claim(a, "fresh")
        queue.claim(b, "dead")
        stale = time.time() - 10.0
        os.utime(queue.claim_path(b), (stale, stale))
        events = queue.requeue_stale()
        assert [(e.task_id, e.action, e.attempt) for e in events] == [
            (b, "requeued", 1)
        ]
        assert queue.claim_path(a).exists()
        assert not queue.claim_path(b).exists()
        assert queue.scan().tasks[b].attempts == 1

    def test_reaper_cleans_claims_of_finished_shards(self, tmp_path):
        queue, manifests = _enqueued(tmp_path)
        manifest = manifests[0]
        task = manifest.filename[: -len(".json")]
        queue.claim(task, "slow")
        partial = run_shard(manifest, ArtifactCache(tmp_path / "cache"))
        partial.write(queue.partials_dir)
        # A stale claim whose case task is gone: its worker died between
        # retiring the task and releasing the claim.
        orphan = queue.enqueue_case(expand_suite(SPECS, TINY, base_seed=99)[0])
        queue.claim(orphan, "dead")
        queue.task_path(orphan).unlink()
        stale = time.time() - 10.0
        os.utime(queue.claim_path(orphan), (stale, stale))
        events = queue.requeue_stale()
        assert sorted((e.task_id, e.action, e.attempt) for e in events) == [
            (orphan, "cleaned", 0),
            (task, "cleaned", 0),
        ]
        assert not queue.claim_path(task).exists()
        assert not queue.claim_path(orphan).exists()
        assert queue.scan().tasks[task].attempts == 0  # not a failure
        # ...and never a tombstone or a poison report, which would make
        # every later miss of the orphan's case a 502
        assert list(queue.attempts_dir.iterdir()) == []
        assert queue.poisoned() == {}

    def test_poisoned_after_max_attempts(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        events = []
        for _ in range(FAST.max_attempts):
            queue.claim(task, "crashy")
            events.append(queue.fail(task, "injected"))
        assert [e.action for e in events] == ["requeued", "requeued", "poisoned"]
        assert queue.is_poisoned(task)
        assert not queue.scan().tasks[task].ready
        report = queue.poisoned()[task]
        assert report["attempts"] == FAST.max_attempts
        assert report["reason"] == "injected"
        assert queue.status().poisoned == 1

    def test_status_lists_attempts_once(self, tmp_path, monkeypatch):
        # 2,000 finished shard tasks beside 20 open tasks (one of them a
        # case task) holding 25 fresh tombstones each, under a one-hour
        # base backoff (capped at 60 s): every reader of queue state lists
        # each queue directory once per scan, whatever the queue holds.
        queue = WorkQueue(
            tmp_path / "q", QueueConfig(backoff_seconds=3600.0)
        ).init()
        finished = [f"shard-{k:04d}-of-2019" for k in range(2000)]
        waiting = [f"shard-{k:04d}-of-2019" for k in range(2000, 2019)]
        waiting.append("case-0123456789ab")
        for task_id in finished:
            queue.task_path(task_id).write_text("{}")
            queue.partial_path(task_id).write_text("{}")
        for task_id in waiting:
            queue.task_path(task_id).write_text("{}")
            for attempt in range(1, 26):
                (queue.attempts_dir / f"{task_id}.attempt-{attempt:02d}").touch()
        dirs = {
            d: d.name
            for d in (
                queue.tasks_dir,
                queue.claims_dir,
                queue.partials_dir,
                queue.poisoned_dir,
                queue.attempts_dir,
            )
        }
        listings: Counter[str] = Counter()
        scans = 0

        def counted(lister):
            def listing(path="."):
                if pathlib.Path(path) in dirs:
                    listings[dirs[pathlib.Path(path)]] += 1
                return lister(path)

            return listing

        scan = WorkQueue.scan

        def counted_scan(self, *args, **kwargs):
            nonlocal scans
            scans += 1
            return scan(self, *args, **kwargs)

        monkeypatch.setattr(os, "listdir", counted(os.listdir))
        monkeypatch.setattr(os, "scandir", counted(os.scandir))
        monkeypatch.setattr(WorkQueue, "scan", counted_scan)

        def once_per_scan(call):
            nonlocal scans
            listings.clear()
            scans = 0
            result = call()
            assert scans >= 1
            assert listings == {name: scans for name in dirs.values()}
            return result

        status = once_per_scan(queue.status)
        payload = once_per_scan(queue.status_payload)
        assert not once_per_scan(queue.is_complete)
        report = once_per_scan(
            lambda: queue_worker(
                queue, tmp_path / "cache", "w0", wait=False,
                env_faults=False,
            )
        )
        assert report.claimed == 0  # every open task is backing off
        want = dict.fromkeys(finished, 0) | dict.fromkeys(waiting, 25)
        assert {t: v["attempts"] for t, v in payload["tasks"].items()} == want
        assert status.failed_attempts == sum(want.values()) == 500
        assert (status.done, status.open) == (2000, 20)

    def test_poisoned_task_with_a_claim_counts_once(self, tmp_path):
        # A claim file beside a poison report (a retire racing its poison
        # write, or a hand-edited queue): the task is poisoned, once.
        queue, _ = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        for _ in range(FAST.max_attempts):
            queue.claim(task, "crashy")
            queue.fail(task, "injected")
        queue.claim_path(task).write_text("late claim")
        status = queue.status()
        payload = queue.status_payload()
        assert (status.done, status.claimed, status.open, status.poisoned) == (
            0, 0, status.total - 1, 1,
        )
        assert payload["tasks"][task]["state"] == "poisoned"
        assert dataclasses.asdict(status).items() <= payload.items()

    def test_requeue_backoff_gates_claimability(self, tmp_path):
        queue = WorkQueue(
            tmp_path / "q",
            QueueConfig(lease_seconds=2.0, backoff_seconds=30.0),
        )
        manifests = [
            m for m in partition_cases(_indexed_cases(), 3) if m.cases
        ]
        queue.enqueue(manifests)
        task = queue.task_ids()[0]
        assert queue.scan().tasks[task].ready
        queue.claim(task, "a")
        queue.fail(task, "boom")
        now = time.time()
        window = [now + 29.0 + 0.5 * k for k in range(20)]  # 29 s .. 38.5 s
        ready = [queue.scan(now=t).tasks[task].ready for t in window]
        # base delay 30s plus at most 25% deterministic jitter
        assert not queue.scan(now=now).tasks[task].ready
        assert not ready[0] and ready[-1]
        assert ready == sorted(ready)  # once ready, it stays ready
        # the jitter is a pure function of (task id, attempts): two scans
        # at the same instant agree
        assert [queue.scan(now=t).tasks[task].ready for t in window] == ready

    def test_pick_order_is_rotated_by_worker_id_over_ready_tasks(
        self, tmp_path, monkeypatch
    ):
        # A fleet spreads over the queue instead of stampeding one task:
        # each worker tries the ready tasks (a backing-off one is not
        # among them) from an offset set by a hash of its id.
        queue = WorkQueue(tmp_path / "q", QueueConfig(backoff_seconds=30.0))
        queue.enqueue(
            m for m in partition_cases(_indexed_cases(), 4) if m.cases
        )
        backing_off, *ready = queue.task_ids()
        assert len(ready) == 3
        queue.claim(backing_off, "crashy")
        queue.fail(backing_off, "boom")
        tried: list[str] = []
        monkeypatch.setattr(
            queue, "claim", lambda task_id, worker_id: tried.append(task_id)
        )
        offsets = set()
        for worker_id in ("a", "delta", "b"):
            tried.clear()
            queue_worker(
                queue, tmp_path / "cache", worker_id,
                reap=False, wait=False, env_faults=False,
            )
            k = zlib.crc32(worker_id.encode()) % len(ready)
            assert tried == ready[k:] + ready[:k]
            offsets.add(k)
        assert offsets == {0, 1, 2}

    def test_fault_spec_parsing(self):
        spec = FaultSpec.parse("kill-worker:2@w1")
        assert (spec.kind, spec.after_cases, spec.worker) == (
            "kill-worker", 2, "w1",
        )
        assert FaultSpec.parse("sleep-case:0.5").seconds == 0.5
        assert FaultSpec.parse("drop-partial").worker is None
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("set-fire-to-the-rack")


class TestCaseTasks:
    """Single-case tasks (the service miss path) on the shard queue."""

    def test_enqueue_case_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", FAST)
        case = _indexed_cases()[0][1]
        task_id = queue.enqueue_case(case)
        assert task_id == f"case-{case.key[:12]}"
        assert task_id in queue.task_ids()
        first = queue.task_path(task_id).read_bytes()
        assert queue.enqueue_case(case) == task_id
        assert queue.task_path(task_id).read_bytes() == first

    def test_case_tasks_coexist_with_a_shard_suite(self, tmp_path):
        queue, manifests = _enqueued(tmp_path)
        foreign = expand_suite(SPECS, TINY, base_seed=99)[0]
        task_id = queue.enqueue_case(foreign)
        assert task_id in queue.task_ids()
        # the case task does not claim the suite namespace: re-enqueueing
        # the shard suite stays legal
        new, done = queue.enqueue(manifests)
        assert (new, done) == (len(manifests), 0)

    def test_worker_drains_case_task_byte_identically(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", FAST)
        cache = ArtifactCache(tmp_path / "cache")
        case = _indexed_cases()[0][1]
        task_id = queue.enqueue_case(case)
        report = queue_worker(queue, cache, "w0", env_faults=False)
        assert (report.claimed, report.completed) == (1, 1)
        assert queue.is_complete()
        assert task_id not in queue.task_ids()  # retired
        loaded = cache.load(case)
        assert loaded is not None
        assert case_result_to_json(loaded) == case_result_to_json(case.run())

    def test_completed_case_task_retires_and_reopens(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", FAST)
        cache = ArtifactCache(tmp_path / "cache")
        case = _indexed_cases()[0][1]
        task_id = queue.enqueue_case(case)
        assert queue.claim(task_id, "crashy")  # leaves one tombstone
        queue.fail(task_id, "injected")
        report = queue_worker(queue, cache, "w0", env_faults=False)
        assert (report.completed, report.computed) == (1, 1)
        # The artifact cache is the only record of a finished case task.
        for directory in (
            queue.tasks_dir, queue.partials_dir, queue.attempts_dir,
            queue.claims_dir,
        ):
            assert not [p for p in directory.iterdir() if task_id in p.name]
        # Enqueueing the case again reopens the task, and the next worker
        # loads the still-valid artifact instead of recomputing it.
        assert queue.enqueue_case(case) == task_id
        assert queue.scan().tasks[task_id] == TaskState("open", 0, True)
        report = queue_worker(queue, cache, "w1", env_faults=False)
        assert (report.claimed, report.computed, report.cached) == (1, 0, 1)
        assert queue.task_ids() == []

    def test_claim_won_after_the_task_retired_is_released(
        self, tmp_path, monkeypatch
    ):
        # A worker picks the task from a scan taken before another worker
        # retired it, so its O_EXCL claim succeeds on a task with no file:
        # it releases the claim, and records no failed attempt (with one
        # attempt allowed, a tombstone would poison every later miss).
        queue = WorkQueue(
            tmp_path / "q", dataclasses.replace(FAST, max_attempts=1)
        )
        task_id = queue.enqueue_case(_indexed_cases()[0][1])
        stale = iter([queue.scan()])
        queue.task_path(task_id).unlink()
        scan = queue.scan
        monkeypatch.setattr(
            queue, "scan", lambda now=None: next(stale, None) or scan(now)
        )
        report = queue_worker(
            queue, tmp_path / "cache", "w0", env_faults=False
        )
        assert (report.claimed, report.lost_lease, report.failed) == (1, 1, 0)
        assert not queue.claim_path(task_id).exists()
        assert list(queue.attempts_dir.iterdir()) == []
        assert queue.poisoned() == {}

    def test_reenqueued_poisoned_case_task_stays_poisoned(self, tmp_path):
        # Only a finished case task retires: a poisoned one keeps its task
        # file and report, so enqueueing its case again neither reopens
        # it nor loses the report a miss answers with.
        queue = WorkQueue(
            tmp_path / "q", dataclasses.replace(FAST, max_attempts=1)
        )
        case = _indexed_cases()[0][1]
        task_id = queue.enqueue_case(case)
        assert queue.claim(task_id, "crashy")
        queue.fail(task_id, "injected")
        report = queue.poisoned()[task_id]
        assert queue.enqueue_case(case) == task_id
        assert queue.scan().tasks[task_id] == TaskState("poisoned", 1, False)
        worker = queue_worker(
            queue, tmp_path / "cache", "w0", env_faults=False
        )
        assert worker.claimed == 0
        assert queue.poisoned() == {task_id: report}

    def test_case_partial_of_an_earlier_layout_is_not_a_done_record(
        self, tmp_path
    ):
        # Queues written before case tasks retired hold one
        # partial-case-<key>.json per served miss.  Only a shard partial
        # marks a task done, so such a task is claimed once more, loads
        # its artifact as a cache hit, and retires.
        queue = WorkQueue(tmp_path / "q", FAST)
        cache = ArtifactCache(tmp_path / "cache")
        case = _indexed_cases()[0][1]
        cache.store(case, case.run())
        task_id = queue.enqueue_case(case)
        (queue.partials_dir / f"partial-{task_id}.json").write_text("{}")
        with pytest.raises(ValueError, match="not a shard task id"):
            queue.partial_path(task_id)
        assert not queue.has_partial(task_id)
        assert queue.scan().tasks[task_id].state == "open"
        report = queue_worker(queue, cache, "w0", env_faults=False)
        assert (report.claimed, report.computed, report.cached) == (1, 0, 1)
        assert queue.task_ids() == []

    def test_case_task_completed_twice_retires_once(self, tmp_path):
        # The duplicated-completion path of
        # test_stale_heartbeat_duplicated_completion_matches_serial, on a
        # case task: w0 goes heartbeat-silent, the reaper requeues its
        # lease, w1 completes (and retires) the task, then w0 completes
        # it too and finds nothing left to delete.
        queue = WorkQueue(tmp_path / "q", FAST)
        cache_dir = tmp_path / "cache"
        case = _indexed_cases()[0][1]
        queue.enqueue_case(case)
        silent = make_injector(queue, "w0", "stale-heartbeat")
        reports = {}

        def stale_then_duplicate(task_id, n_done):
            if not reports:
                stale = time.time() - 10.0
                os.utime(queue.claim_path(task_id), (stale, stale))
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
        assert (reports["w1"].completed, reports["w1"].cached) == (1, 1)
        assert (report0.completed, report0.lost_lease) == (1, 0)
        assert queue.task_ids() == []
        for directory in (
            queue.claims_dir, queue.attempts_dir, queue.poisoned_dir,
            queue.partials_dir,
        ):
            assert list(directory.iterdir()) == []
        loaded = ArtifactCache(cache_dir).load(case)
        assert loaded is not None
        assert case_result_to_json(loaded) == case_result_to_json(case.run())

    def test_reopening_races_retirement_without_a_failed_attempt(
        self, tmp_path
    ):
        # More worker threads than CPUs race a client that keeps
        # reopening three served cases, and every idle worker reaps.
        # However claims, retirements, reopenings and orphan-claim
        # cleaning interleave, no attempt fails (with one attempt
        # allowed, a failure would poison its case), nothing is
        # recomputed, and the drained queue holds no task, claim,
        # tombstone or poison report.
        queue = WorkQueue(
            tmp_path / "q",
            QueueConfig(lease_seconds=60.0, poll_seconds=0.001, max_attempts=1),
        )
        cache = ArtifactCache(tmp_path / "cache")
        cases = [case for _, case in _indexed_cases()[:3]]
        for case in cases:
            cache.store(case, case.run())
        stored = {case.key: cache.path_for(case).read_bytes() for case in cases}
        stop = threading.Event()
        reports = []

        def work(worker_id):
            reports.append(
                queue_worker(
                    queue, cache.root, worker_id,
                    forever=True, stop=stop, env_faults=False,
                )
            )

        workers = [
            threading.Thread(target=work, args=(f"w{k}",))
            for k in range(len(os.sched_getaffinity(0)) + 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in workers:
                thread.start()
            for k in range(300):
                queue.enqueue_case(cases[k % len(cases)])
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                queue.task_ids() or any(queue.claims_dir.iterdir())
            ):
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in workers:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert queue.task_ids() == []
        for directory in (
            queue.claims_dir, queue.attempts_dir, queue.poisoned_dir,
            queue.partials_dir,
        ):
            assert list(directory.iterdir()) == []
        assert sum(r.failed for r in reports) == 0
        assert sum(r.computed for r in reports) == 0
        assert sum(r.completed for r in reports) >= len(cases)
        for case in cases:
            assert cache.path_for(case).read_bytes() == stored[case.key]


class TestScanRaceHardening:
    """TOCTOU races: directory entries vanishing between list and stat.

    Dangling symlinks simulate the race deterministically — they show up
    in the directory listing but every ``stat``/``open`` on them fails,
    exactly like a file a concurrent cleanup removed mid-scan.
    """

    def test_partials_skips_entries_vanishing_mid_scan(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        queue.init()
        (queue.partials_dir / "partial-7-of-9.json").symlink_to(
            tmp_path / "vanished.json"
        )
        assert queue.partials() == []

    def test_enqueue_tolerates_head_task_vanishing_mid_scan(self, tmp_path):
        # The suite-mixing guard reads the first listed task; that file
        # can vanish between the listing and the read (RL004 class).  The
        # probe must fall through to the next readable manifest — and
        # still reject a foreign suite through it.
        queue, manifests = _enqueued(tmp_path)
        first = sorted(queue.task_ids())[0]
        queue.task_path(first).unlink()
        (queue.tasks_dir / "shard-000-of-999.json").symlink_to(
            tmp_path / "vanished.json"
        )
        new, done = queue.enqueue(manifests)
        assert (new, done) == (len(manifests), 0)
        other = expand_suite(SPECS, TINY, base_seed=99)
        foreign = [
            m for m in partition_cases(list(enumerate(other)), 3) if m.cases
        ]
        with pytest.raises(ValueError, match="already holds suite"):
            queue.enqueue(foreign)

    def test_ready_at_skips_tombstones_vanishing_mid_scan(self, tmp_path):
        queue = WorkQueue(
            tmp_path / "q", QueueConfig(backoff_seconds=30.0)
        )
        manifests = [
            m for m in partition_cases(_indexed_cases(), 3) if m.cases
        ]
        queue.enqueue(manifests)
        task = queue.task_ids()[0]
        (queue.attempts_dir / f"{task}.attempt-01").symlink_to(
            tmp_path / "gone"
        )
        # the tombstone names an attempt but its stat fails: no backoff
        # gate can be computed from it, so the task is claimable now
        assert queue.scan(now=0.0).tasks[task].ready
        assert queue.scan().tasks[task].ready

    def test_dangling_claim_and_poison_report_do_not_count(self, tmp_path):
        # A claim or poison report listed but gone by the time it is
        # read counts for nothing, as a dangling partial counts for
        # nothing: the task stays open and claimable.
        queue, _ = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        queue.claim_path(task).symlink_to(tmp_path / "gone.claim")
        queue.poison_path(task).symlink_to(tmp_path / "gone.json")
        scan = queue.scan()
        assert scan.tasks[task] == TaskState("open", 0, True)
        assert queue.status().poisoned == 0
        assert queue.status_payload()["poisoned_tasks"] == {}

    def test_status_tolerates_vanishing_queue_state(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        queue.init()
        task = queue.task_ids()[0]
        (queue.partials_dir / "partial-8-of-9.json").symlink_to(
            tmp_path / "vanished.json"
        )
        (queue.attempts_dir / f"{task}.attempt-01").symlink_to(
            tmp_path / "gone"
        )
        status = queue.status()
        assert status.total == len(queue.task_ids())
        assert status.done == 0
        assert status.failed_attempts == 1  # the tombstone still counts

    def test_queue_status_cli_survives_dangling_entries(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        queue, _ = _enqueued(tmp_path)
        queue.init()
        (queue.partials_dir / "partial-7-of-9.json").symlink_to(
            tmp_path / "vanished.json"
        )
        code = main(
            ["campaign", "queue-status", str(queue.root)]
        )
        assert code == 0
        assert "open" in capsys.readouterr().out


class TestQueueWorker:
    def test_single_worker_drains_queue_and_merge_matches_serial(
        self, tmp_path
    ):
        indexed = _indexed_cases()
        serial_cache = ArtifactCache(tmp_path / "serial")
        serial = Campaign([c for _, c in indexed], cache=serial_cache)
        serial_results = serial.run()

        queue, _ = _enqueued(tmp_path)
        report = queue_worker(
            queue, tmp_path / "qcache", "w0", env_faults=False
        )
        assert report.completed == len(queue.task_ids())
        assert report.computed == len(indexed)
        assert queue.is_complete()
        merged = merge_partials(queue.partials())
        assert _payload(merged.aggregate) == _serial_aggregate(
            indexed, serial_results
        )
        # Artifact bytes identical to the serial run's, file for file.
        names = [p.name for p in (tmp_path / "serial").glob("*.json")]
        assert len(names) == len(indexed)
        for name in names:
            assert (tmp_path / "qcache" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    def test_resume_redispatches_only_missing_partials(self, tmp_path):
        queue, manifests = _enqueued(tmp_path)
        queue_worker(queue, tmp_path / "cache", "w0", env_faults=False)
        victim = queue.task_ids()[0]
        queue.partial_path(victim).unlink()
        # Re-enqueue (the resume step) reports the still-done shards…
        new, done = queue.enqueue(manifests)
        assert (new, done) == (1, len(manifests) - 1)
        # …and a fresh worker only touches the missing shard, from cache.
        report = queue_worker(
            queue, tmp_path / "cache", "w1", env_faults=False
        )
        assert (report.claimed, report.completed) == (1, 1)
        assert report.computed == 0  # warm cache: nothing recomputed
        assert report.cached > 0
        assert queue.is_complete()

    def test_lost_lease_aborts_shard_then_next_attempt_completes(
        self, tmp_path
    ):
        queue, _ = _enqueued(tmp_path, n_shards=1)
        task = queue.task_ids()[0]

        class Saboteur:
            """Injector stub that steals the lease once, mid-first-attempt."""

            suppress_heartbeat = False
            fired = False

            def on_claimed(self, task_id):
                pass

            def on_case_done(self, task_id, n_done):
                if not self.fired:
                    self.fired = True
                    queue.claim_path(task_id).unlink()

            def on_before_partial(self, task_id):
                pass

        report = queue_worker(
            queue,
            tmp_path / "cache",
            "w0",
            injector=Saboteur(),
            env_faults=False,
        )
        # First attempt aborted without a partial; the (same) worker's
        # second claim finished the shard from the warm artifact cache.
        assert report.lost_lease == 1
        assert report.completed == 1
        assert report.claimed == 2
        assert queue.has_partial(task)

    def test_worker_reports_failure_and_requeues(self, tmp_path):
        queue, _ = _enqueued(tmp_path)
        task = queue.task_ids()[0]
        # Corrupt one manifest: the worker must fail it (tombstone), not die.
        queue.task_path(task).write_text("{not json")
        report = queue_worker(
            queue, tmp_path / "cache", "w0", wait=False, env_faults=False
        )
        assert report.failed >= 1
        assert queue.scan().tasks[task].attempts >= 1


class TestQueueBackend:
    def test_inline_backend_matches_serial_bitwise(self, tmp_path):
        indexed = _indexed_cases()
        cases = [c for _, c in indexed]
        expected = [case_result_to_json(r) for r in Campaign(cases).run()]
        cache = ArtifactCache(tmp_path / "cache")
        campaign = Campaign(
            cases,
            cache=cache,
            backend=QueueBackend(n_shards=3, jobs=1, config=FAST),
        )
        got = [case_result_to_json(r) for r in campaign.run()]
        assert got == expected
        assert (cache.stats.stores, cache.stats.hits) == (len(cases), 0)

    def test_persistent_queue_dir_resumes(self, tmp_path):
        indexed = _indexed_cases()
        cases = [c for _, c in indexed]
        cache = ArtifactCache(tmp_path / "cache")
        backend = QueueBackend(
            n_shards=3, jobs=1, queue_dir=tmp_path / "q", config=FAST
        )
        Campaign(cases, cache=cache, backend=backend).run()
        queue = WorkQueue(tmp_path / "q", FAST)
        assert queue.is_complete()
        # Second run over the same queue dir: partials already present,
        # every case replayed from the shared artifact cache.
        rerun = ArtifactCache(tmp_path / "cache")
        Campaign(cases, cache=rerun, backend=backend).run()
        assert (rerun.stats.stores, rerun.stats.hits) == (0, len(cases))

    def test_poisoned_queue_raises_named_error(self, tmp_path):
        indexed = _indexed_cases()
        cases = [c for _, c in indexed]
        queue_dir = tmp_path / "q"
        backend = QueueBackend(
            n_shards=2,
            jobs=1,
            queue_dir=queue_dir,
            config=QueueConfig(
                lease_seconds=2.0, poll_seconds=0.05, max_attempts=1
            ),
        )
        backend.submit(
            list(enumerate(cases)),
            cache=ArtifactCache(tmp_path / "cache"),
            force=False,
        )
        # Poison every shard up front: the fleet has nothing left to try.
        queue = WorkQueue(queue_dir, backend.config)
        manifests = [m for m in partition_cases(indexed, 2) if m.cases]
        queue.enqueue(manifests)
        for task in queue.task_ids():
            queue.claim(task, "doomed")
            queue.fail(task, "pre-poisoned by test")
        with pytest.raises(PoisonedShardError, match="poisoned") as err:
            list(backend.as_completed())
        assert set(err.value.reports) == set(queue.task_ids())

    def test_backend_validates_n_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            QueueBackend(n_shards=0)


class TestQueueBackendCachePersistence:
    def test_workers_persist_directly_and_parent_does_not_restore(
        self, tmp_path, monkeypatch
    ):
        cases = [c for _, c in _indexed_cases()[:2]]
        cache = ArtifactCache(tmp_path / "cache")
        parent_stores = []
        monkeypatch.setattr(
            cache, "store", lambda case, result: parent_stores.append(case)
        )
        campaign = Campaign(
            cases, cache=cache, backend=QueueBackend(2, jobs=1, config=FAST)
        )
        results = campaign.run()
        assert len(results) == len(cases)
        # Artifacts exist (the workers wrote them into the shared cache)
        # without the parent re-storing them...
        assert parent_stores == []
        assert sorted(p.name for p in cache.root.glob("*.json")) == sorted(
            c.artifact_name for c in cases
        )
        # ...and the worker-side stores are credited to the cache stats,
        # so CLI reporting stays truthful.
        assert (cache.stats.stores, cache.stats.hits) == (len(cases), 0)
        # ... and a warm re-run loads them.
        warm = ArtifactCache(cache.root)
        Campaign(cases, cache=warm).run()
        assert (warm.stats.hits, warm.stats.stores) == (len(cases), 0)

    def test_persistent_queue_dir_repeat_run_claims_and_writes_nothing(
        self, tmp_path
    ):
        # No campaign cache, but a persistent queue dir: every shard's
        # partial landed in the first run, so the second run claims no
        # task and writes no file.
        cases = [c for _, c in _indexed_cases()[:2]]
        queue_dir = tmp_path / "q"

        def run():
            backend = QueueBackend(2, jobs=1, queue_dir=queue_dir, config=FAST)
            return Campaign(cases, backend=backend).run()

        def snapshot():
            return {
                p: p.stat().st_mtime_ns for p in sorted(queue_dir.rglob("*"))
            }

        cold = run()
        assert len(list((queue_dir / "cache").glob("*.json"))) == len(cases)
        before = snapshot()
        warm = run()
        assert snapshot() == before
        assert [case_result_to_json(r) for r in warm] == [
            case_result_to_json(r) for r in cold
        ]


def _payload(aggregate):
    from repro.campaign import suite_aggregate_to_payload

    return suite_aggregate_to_payload(aggregate)


def _serial_aggregate(indexed, results):
    from repro.campaign import SuiteAggregator, case_contribution

    aggregator = SuiteAggregator(ordered=False)
    for (index, case), result in zip(indexed, results):
        aggregator.add(case_contribution(index, case, result))
    return _payload(aggregator.finalize())
