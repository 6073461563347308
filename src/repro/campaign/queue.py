"""Queue-backed elastic campaign fleet: pull workers, leases, requeue.

A worker handed one *fixed* shard manifest (``campaign worker``) strands
that shard when it dies.  This module inverts the dispatch: shards become
task records on a shared **work queue** and workers *pull* — an elastic
fleet where members can join, crash, or be replaced at any time while
the suite still completes, and still produces the byte-identical
:class:`~repro.campaign.aggregate.SuiteAggregate` and artifact set of a
single-process run.  It is the repo's one out-of-process dispatch path:
:class:`QueueBackend` coordinates a fleet for one campaign, and the query
service (:mod:`repro.service`) keeps one running; both supervise their
``campaign queue-worker`` subprocesses through :class:`WorkerFleet`.

The queue is a directory (the protocol needs only atomic rename and
exclusive create, so a Redis/SQS implementation can adopt the same state
machine later)::

    queue/
      tasks/     shard-000-of-003.json   one ShardManifest per task: the
                 case-<key prefix>.json  shards of a suite, and one-case
                                         tasks (the service's misses)
      claims/    shard-000-of-003.claim  exclusive lease (O_EXCL create);
                                         the file's mtime is the heartbeat
      partials/  partial-000-of-003.json a shard's ShardPartial (= done);
                                         shard tasks only
      attempts/  shard-000-of-003.attempt-01   tombstones of failed leases
      poisoned/  shard-000-of-003.json   report after max_attempts failures
      faults/    one-shot fault-injection markers (test harness only)
      logs/      per-worker logs (subprocess fleets)

Task state machine (at-least-once dispatch)::

            enqueue            claim (O_EXCL)     shard task: partial written
    (none) ────────▶ OPEN ──────────────────▶ CLAIMED ───────────────────▶ DONE
      ▲               ▲                          │
      │               │   reaper: heartbeat stale│(mtime older than the
      │               │   or worker reported fail│ lease) → claim moved to
      │               └──────────────────────────┤ an attempt tombstone
      │                     attempt < max        │
      │                                          ├──▶ POISONED (report file)
      │                                          │    attempt ≥ max
      └──────────────────────────────────────────┘
         case task done: it retires (task file and tombstones deleted)

A finished case task keeps no record on the queue: the artifact cache is
its only record, so enqueueing its case again reopens it, and a worker
loads a still-valid artifact as one cache hit instead of recomputing it.
A shard task keeps its partial, because ``campaign merge`` and the
coordinator read it.  One :meth:`WorkQueue.scan` lists each queue
directory once and classifies every task; every reader of queue state
(the status reports, ``is_complete``, the worker's pick and the reaper)
reads a scan.

Every transition is a single atomic filesystem operation (``O_EXCL``
create, ``os.replace``, ``os.unlink``), so any number of workers and
reapers can race safely: exactly one worker wins a claim, and a requeue
cannot resurrect a lease it just retired.  Dispatch is *at least once* —
a stale worker may still finish after its task was requeued — but every
side effect is idempotent (artifact stores are atomic with byte-identical
content, the canonical partial name makes the last write win, a case
task retired twice finds nothing left to delete, and
:func:`~repro.campaign.shard.merge_partials` folds one partial per shard
in suite order), so the *results* are exactly-once and bit-identical to a
serial run.

Liveness intentionally depends only on the claim file's **mtime** (the
worker touches it between cases), never on its JSON content: a corrupt
claim — truncated write, bit rot, or an injected fault — degrades to
metadata loss, not to a stuck shard.

The deterministic fault-injection seams (:class:`FaultInjector`, driven
by the ``REPRO_QUEUE_FAULT`` environment variable or an explicit injector
object) live here because subprocess workers must honour them with
nothing but ``src`` on their path; the test-facing helpers are in
``tests/campaign/faultlib.py``.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import (
    Callable, Generator, Iterable, Iterator, Mapping, Sequence, TextIO,
)

from repro.campaign.backend import Completion
from repro.campaign.cache import ArtifactCache
from repro.campaign.shard import (
    ShardAbort,
    ShardManifest,
    ShardPartial,
    partition_cases,
    run_shard,
    suite_key,
)
from repro.campaign.spec import CampaignCase
from repro.io.atomic import write_atomic
from repro.io.json_io import canonical_json

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "PoisonedShardError",
    "QueueBackend",
    "QueueConfig",
    "QueueEvent",
    "QueueScan",
    "QueueStatus",
    "TaskState",
    "WorkQueue",
    "WorkerFleet",
    "WorkerReport",
    "queue_worker",
]

_CLAIM_FORMAT = "repro-queue-claim-v1"
_POISON_FORMAT = "repro-queue-poisoned-v1"

#: Environment variable holding comma-separated :class:`FaultSpec` strings.
FAULT_ENV = "REPRO_QUEUE_FAULT"
#: Environment variable naming a file workers wait for before their first
#: scan — lets tests line real subprocess workers up on one claim race.
START_BARRIER_ENV = "REPRO_QUEUE_START_BARRIER"

_TASK_STEM = re.compile(r"^shard-(\d+)-of-(\d+)$")
#: A shard partial's file stem; group 1 is its task id's ``N-of-M`` part.
_PARTIAL_STEM = re.compile(r"^partial-(\d+-of-\d+)$")
#: Single-case task ids (the service miss path): ``case-<key prefix>``.
_CASE_STEM = re.compile(r"^case-([0-9a-f]{12,64})$")
_BACKOFF_CAP = 60.0
#: Max fraction the deterministic per-task jitter adds to a requeue delay.
_BACKOFF_JITTER = 0.25


# ---------------------------------------------------------------------- #
# configuration / bookkeeping records
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueueConfig:
    """Reaper and worker-loop policy knobs.

    Attributes
    ----------
    lease_seconds:
        A claim whose heartbeat (file mtime) is older than this is
        considered dead and gets requeued.  Must comfortably exceed the
        slowest single case, since workers heartbeat between cases.
    poll_seconds:
        Sleep between idle worker scans / coordinator reap passes.
    max_attempts:
        Execution attempts per shard before it is poisoned.
    backoff_seconds:
        Base of the exponential requeue backoff: after ``n`` failed
        attempts a shard becomes claimable ``backoff * 2**(n-1)`` seconds
        (capped at 60) past its latest tombstone.
    """

    lease_seconds: float = 60.0
    poll_seconds: float = 0.5
    max_attempts: int = 3
    backoff_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {self.lease_seconds}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclass(frozen=True)
class QueueEvent:
    """One reaper/worker state transition (for stats and logs)."""

    task_id: str
    action: str  # "requeued" | "poisoned" | "cleaned"
    attempt: int
    reason: str = ""


@dataclass(frozen=True)
class QueueStatus:
    """Snapshot of a queue directory's task states."""

    total: int
    done: int
    claimed: int
    open: int
    poisoned: int
    failed_attempts: int

    def render(self) -> str:
        """One-line human summary for the CLI."""
        return (
            f"{self.total} tasks: {self.done} done, {self.claimed} claimed, "
            f"{self.open} open, {self.poisoned} poisoned "
            f"({self.failed_attempts} failed attempts)"
        )


@dataclass(frozen=True)
class TaskState:
    """One task as one :meth:`WorkQueue.scan` saw it."""

    state: str  # "done" | "poisoned" | "claimed" | "open"
    attempts: int
    #: Open, and its requeue backoff has run out: a worker may claim it.
    ready: bool


@dataclass(frozen=True)
class QueueScan:
    """Every task's state from one pass over the queue directory.

    ``tasks`` maps each enqueued task id, in sorted order, to its
    :class:`TaskState`.  ``claims`` and ``poisoned`` name every claim
    and poison report the pass found, including those whose task file
    is gone (the reaper cleans such an orphan claim).  A scan is a hint:
    a claim is still won only by its ``O_EXCL`` create.
    """

    tasks: dict[str, TaskState]
    claims: frozenset[str]
    poisoned: frozenset[str]

    def is_complete(self) -> bool:
        """Every task reached a terminal state (done or poisoned)."""
        return all(
            t.state in ("done", "poisoned") for t in self.tasks.values()
        )

    def status(self) -> QueueStatus:
        """Count the tasks in each state."""
        states = Counter(t.state for t in self.tasks.values())
        return QueueStatus(
            total=len(self.tasks),
            done=states["done"],
            claimed=states["claimed"],
            open=states["open"],
            poisoned=states["poisoned"],
            failed_attempts=sum(t.attempts for t in self.tasks.values()),
        )


@dataclass
class WorkerReport:
    """What one :func:`queue_worker` loop actually did."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    lost_lease: int = 0
    released: int = 0
    computed: int = 0
    cached: int = 0

    def render(self) -> str:
        """One-line summary (parsed by tests — keep the ``key=value`` form)."""
        return (
            f"[worker {self.worker_id}: claimed={self.claimed} "
            f"completed={self.completed} failed={self.failed} "
            f"lost_lease={self.lost_lease} released={self.released} "
            f"computed={self.computed} cached={self.cached}]"
        )


class PoisonedShardError(RuntimeError):
    """Raised by the coordinator when shards exhausted their retry budget.

    Carries the per-shard poison reports (task id → report dict, as
    written under ``poisoned/``) so callers can tell *which* shards died
    and after how many attempts without re-reading the queue directory.
    """

    def __init__(self, reports: dict[str, dict]):
        self.reports = dict(reports)
        lines = ", ".join(
            f"{task} ({report.get('attempts', '?')} attempts)"
            for task, report in sorted(self.reports.items())
        )
        super().__init__(
            f"{len(self.reports)} shard(s) poisoned after exhausting retries: "
            f"{lines}; see the queue's poisoned/ reports and logs/ for the "
            "failing worker output"
        )


# ---------------------------------------------------------------------- #
# the filesystem work queue
# ---------------------------------------------------------------------- #


def _listed(directory: pathlib.Path, suffix: str) -> set[str]:
    """Stems of the files in ``directory`` named ``*<suffix>``: one listing.

    ``DirEntry.is_file`` answers from the listing itself for a regular
    file and follows a symlink, so a dangling entry is left out (as
    ``Path.exists`` would leave it out) without a ``stat`` per entry.
    """
    try:
        with os.scandir(directory) as entries:
            return {
                entry.name[: -len(suffix)]
                for entry in entries
                if entry.name.endswith(suffix) and entry.is_file()
            }
    except OSError:
        return set()


@dataclass
class WorkQueue:
    """A directory-backed shard queue with atomic claims and leases.

    Every mutation is a single atomic filesystem operation, so any number
    of concurrent workers and reapers (including on a shared filesystem)
    interoperate without locks; see the module docstring for the state
    machine.  Liveness decisions read only file *mtimes* — claim JSON
    content is informational and may be corrupt without harm.
    """

    root: pathlib.Path
    config: QueueConfig = field(default_factory=QueueConfig)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    # -- layout -------------------------------------------------------- #

    @property
    def tasks_dir(self) -> pathlib.Path:
        """Directory of enqueued :class:`ShardManifest` files."""
        return self.root / "tasks"

    @property
    def claims_dir(self) -> pathlib.Path:
        """Directory of live claim (lease) files."""
        return self.root / "claims"

    @property
    def partials_dir(self) -> pathlib.Path:
        """Directory where completed shards' partials land."""
        return self.root / "partials"

    @property
    def attempts_dir(self) -> pathlib.Path:
        """Directory of retired-claim tombstones (one per failed attempt)."""
        return self.root / "attempts"

    @property
    def poisoned_dir(self) -> pathlib.Path:
        """Directory of poisoned-shard reports."""
        return self.root / "poisoned"

    @property
    def faults_dir(self) -> pathlib.Path:
        """One-shot fault-injection markers (test harness)."""
        return self.root / "faults"

    @property
    def logs_dir(self) -> pathlib.Path:
        """Per-worker log files for subprocess fleets."""
        return self.root / "logs"

    def init(self) -> "WorkQueue":
        """Create the queue layout (idempotent); returns ``self``."""
        for d in (
            self.tasks_dir,
            self.claims_dir,
            self.partials_dir,
            self.attempts_dir,
            self.poisoned_dir,
            self.faults_dir,
            self.logs_dir,
        ):
            d.mkdir(parents=True, exist_ok=True)
        return self

    # -- per-task paths ------------------------------------------------ #

    def task_path(self, task_id: str) -> pathlib.Path:
        """Manifest file of ``task_id``."""
        return self.tasks_dir / f"{task_id}.json"

    def claim_path(self, task_id: str) -> pathlib.Path:
        """Claim (lease) file of ``task_id``."""
        return self.claims_dir / f"{task_id}.claim"

    def partial_path(self, task_id: str) -> pathlib.Path:
        """Canonical partial file of shard task ``task_id`` (once done)."""
        m = _TASK_STEM.match(task_id)
        if m is None:
            raise ValueError(f"not a shard task id: {task_id!r}")
        return (
            self.partials_dir / f"partial-{m.group(1)}-of-{m.group(2)}.json"
        )

    def poison_path(self, task_id: str) -> pathlib.Path:
        """Poison-report file of ``task_id``."""
        return self.poisoned_dir / f"{task_id}.json"

    # -- enqueue / inspection ------------------------------------------ #

    def enqueue(self, manifests: Iterable[ShardManifest]) -> tuple[int, int]:
        """Write task records for ``manifests``; returns ``(new, done)``.

        Idempotent and resume-aware: a manifest whose task file already
        exists is rewritten byte-identically (harmless), and ``done``
        counts the shards whose partial is already present — shard-level
        resume re-dispatches only the shards with missing partials.
        Mixing suites in one queue directory is a loud error.
        """
        self.init()
        manifests = list(manifests)
        existing = [t for t in self.task_ids() if _TASK_STEM.match(t)]
        head = None
        if existing and manifests:
            # TOCTOU-tolerant: a listed task file can vanish between the
            # scan and the read (a concurrent resume finishing the shard,
            # an operator pruning the queue) — probe until one reads.
            for task_id in existing:
                try:
                    head = ShardManifest.read(self.task_path(task_id))
                    break
                except (OSError, ValueError):
                    continue
        if head is not None:
            for m in manifests:
                if (m.suite_key, m.n_shards) != (head.suite_key, head.n_shards):
                    raise ValueError(
                        f"queue {self.root} already holds suite "
                        f"{head.suite_key[:12]}…/{head.n_shards} shards; "
                        f"refusing to enqueue shard {m.shard_index} of "
                        f"{m.suite_key[:12]}…/{m.n_shards}"
                    )
        new = done = 0
        for manifest in manifests:
            task_id = pathlib.Path(manifest.filename).stem
            if self.has_partial(task_id):
                done += 1
                continue
            manifest.write(self.tasks_dir)
            new += 1
        return new, done

    def enqueue_case(self, case: CampaignCase, suite_index: int = 0) -> str:
        """Enqueue one single-case task (the service miss path).

        Returns the task id ``case-<key prefix>``.  The task is a
        one-shard :class:`ShardManifest` holding exactly ``case``, so the
        regular pull workers execute it through the normal claim /
        heartbeat lifecycle; only its completion differs (it retires, see
        :meth:`complete`).  Always writes the task: re-enqueueing an
        open, claimed or poisoned task rewrites its manifest
        byte-identically (a poisoned task stays poisoned), and a retired
        one reopens — if its artifact is still valid, the worker's
        :func:`~repro.campaign.shard.run_shard` loads it as one cache hit
        instead of recomputing it.  Case tasks coexist with shard tasks on
        the same queue (each carries its own single-case suite key, so
        they never collide with a suite's ``shard-N-of-M`` namespace).
        """
        self.init()
        task_id = f"case-{case.key[:12]}"
        manifest = ShardManifest(
            shard_index=0,
            n_shards=1,
            suite_key=suite_key([(suite_index, case)]),
            suite_size=1,
            cases=((suite_index, case),),
        )
        write_atomic(
            self.task_path(task_id), canonical_json(manifest.to_payload())
        )
        return task_id

    def task_ids(self) -> list[str]:
        """Sorted ids of every enqueued task (shard and single-case)."""
        try:
            names = os.listdir(self.tasks_dir)
        except OSError:
            return []
        stems = [n[: -len(".json")] for n in names if n.endswith(".json")]
        return sorted(
            s for s in stems if _TASK_STEM.match(s) or _CASE_STEM.match(s)
        )

    def manifest(self, task_id: str) -> ShardManifest:
        """Load the manifest of ``task_id``."""
        return ShardManifest.read(self.task_path(task_id))

    def has_partial(self, task_id: str) -> bool:
        """Whether a shard task's partial has landed (the DONE state).

        Always ``False`` for a case task: it keeps no partial.
        """
        return (
            _TASK_STEM.match(task_id) is not None
            and self.partial_path(task_id).exists()
        )

    def is_poisoned(self, task_id: str) -> bool:
        """Whether the task exhausted its retry budget."""
        return self.poison_path(task_id).exists()

    def _tombstones(self, task_id: str) -> list[str]:
        """Sorted names of ``task_id``'s failed-attempt tombstones."""
        prefix = f"{task_id}.attempt-"
        try:
            names = os.listdir(self.attempts_dir)
        except OSError:
            return []
        return sorted(name for name in names if name.startswith(prefix))

    def scan(self, now: float | None = None) -> QueueScan:
        """Classify every task from one listing of each queue directory.

        ``claims/``, ``tasks/``, ``partials/``, ``poisoned/`` and
        ``attempts/`` are listed once each and compared by name: a task
        is done (its shard partial landed) > poisoned > claimed > open,
        and its attempts count its tombstones (``<task id>.attempt-NN``;
        no task id contains ``.attempt-``).  No path is built and no
        ``stat`` made per task, except for the tombstones of open tasks,
        whose mtimes set the requeue backoff.  A dangling partial, claim
        or poison report does not count (``is_file`` follows the link,
        as ``exists`` does); a dangling tombstone counts as an attempt
        but sets no ready time.  Claims are listed before tasks, so a
        claim whose task is not listed outlived its task.
        """
        # Wall clock on purpose: compared against file mtimes (backoff
        # deadlines), which are wall-clock stamps; never enters results.
        now = time.time() if now is None else now  # reprolint: ignore[RL003]
        claims = _listed(self.claims_dir, ".claim")
        task_ids = self.task_ids()
        done: set[str] = set()
        for stem in _listed(self.partials_dir, ".json"):
            m = _PARTIAL_STEM.match(stem)
            if m is not None:
                done.add(f"shard-{m.group(1)}")
        poisoned = _listed(self.poisoned_dir, ".json")
        tombstones: dict[str, list[os.DirEntry[str]]] = {}
        try:
            with os.scandir(self.attempts_dir) as entries:
                for entry in entries:
                    task_id, sep, _ = entry.name.rpartition(".attempt-")
                    if sep:
                        tombstones.setdefault(task_id, []).append(entry)
        except OSError:
            pass
        tasks: dict[str, TaskState] = {}
        for task_id in task_ids:
            tombs = tombstones.get(task_id, [])
            if task_id in done:
                state = "done"
            elif task_id in poisoned:
                state = "poisoned"
            elif task_id in claims:
                state = "claimed"
            else:
                state = "open"
            ready = state == "open" and self._backoff_over(task_id, tombs, now)
            tasks[task_id] = TaskState(state, len(tombs), ready)
        return QueueScan(tasks, frozenset(claims), frozenset(poisoned))

    def _backoff_over(
        self,
        task_id: str,
        tombstones: Sequence[os.DirEntry[str]],
        now: float,
    ) -> bool:
        """Whether the task's requeue backoff has run out at ``now``.

        After ``n`` tombstones the delay is ``backoff * 2**(n-1)`` (capped
        at 60 s) past the latest one, plus a deterministic jitter of up
        to 25 % derived from the task id and attempt count — N workers
        eyeing the same retired claim spread out instead of
        thundering-herding the queue directory, yet every process
        computes the identical ready time (the fault harness stays
        reproducible).  A tombstone that vanishes between the directory
        scan and its ``stat`` was retired by a concurrent cleanup — it is
        simply skipped.
        """
        mtimes: list[float] = []
        for entry in tombstones:
            try:
                mtimes.append(entry.stat().st_mtime)
            except OSError:
                continue  # vanished mid-scan: retired elsewhere
        if not mtimes:
            return True
        n = len(tombstones)
        delay = min(
            self.config.backoff_seconds * (2.0 ** (n - 1)), _BACKOFF_CAP
        )
        frac = zlib.crc32(f"{task_id}:{n}".encode()) / 0xFFFFFFFF
        return now >= max(mtimes) + delay * (1.0 + _BACKOFF_JITTER * frac)

    def is_complete(self) -> bool:
        """Every enqueued task reached a terminal state (done/poisoned)."""
        return self.scan().is_complete()

    # -- the claim / heartbeat / complete lifecycle -------------------- #

    def claim(self, task_id: str, worker_id: str) -> bool:
        """Atomically claim ``task_id``; exactly one concurrent caller wins.

        The claim file is created with ``O_CREAT | O_EXCL`` — the
        filesystem arbitrates the race.  A claim won for a task whose
        partial landed in the meantime (a stale worker finishing late) is
        released immediately and counts as a loss.
        """
        if self.has_partial(task_id) or self.is_poisoned(task_id):
            return False
        path = self.claim_path(task_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(
                canonical_json(
                    {
                        "format": _CLAIM_FORMAT,
                        "task": task_id,
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "attempt": len(self._tombstones(task_id)) + 1,
                        # Diagnostic stamp, never enters results.
                        "claimed_at": time.time(),  # reprolint: ignore[RL003]
                    }
                )
            )
        if self.has_partial(task_id):
            self.release(task_id)
            return False
        return True

    def heartbeat(self, task_id: str) -> bool:
        """Refresh the lease (touch the claim file's mtime).

        Returns ``False`` when the claim is gone — the reaper retired it
        and the worker must abandon the task (its results so far are
        safely in the artifact cache; the next attempt resumes from them).
        """
        try:
            os.utime(self.claim_path(task_id))
            return True
        except FileNotFoundError:
            return False

    def complete(self, task_id: str, partial: ShardPartial) -> None:
        """Mark the task done, then release the claim.

        A shard task writes its partial, atomically under its canonical
        name (``partial_path``), so a duplicated completion (stale worker
        + requeued worker) resolves to last-write-wins with an equivalent
        aggregate contribution.  A case task retires instead: the
        artifact cache is its only record, so its tombstones and task
        file are deleted.  The claim goes last, so no other worker can
        claim a task while it is being deleted; a worker that dies
        before releasing leaves a claim without a task, which the reaper
        cleans.  A duplicated completion finds nothing left to delete.
        """
        if _CASE_STEM.match(task_id):
            for name in self._tombstones(task_id):
                (self.attempts_dir / name).unlink(missing_ok=True)
            self.task_path(task_id).unlink(missing_ok=True)
        else:
            write_atomic(
                self.partial_path(task_id),
                canonical_json(partial.to_payload()),
            )
        self.release(task_id)

    def release(self, task_id: str) -> None:
        """Drop the claim without recording an attempt (after ``complete``)."""
        try:
            self.claim_path(task_id).unlink()
        except FileNotFoundError:
            pass

    def fail(self, task_id: str, reason: str) -> QueueEvent | None:
        """Worker-reported failure: retire the claim, requeue or poison."""
        return self._retire(task_id, reason)

    # -- the reaper ---------------------------------------------------- #

    def requeue_stale(self, now: float | None = None) -> list[QueueEvent]:
        """One reaper pass: retire dead leases, clean finished ones.

        A claim whose shard's partial already landed, or whose task is
        gone (a case task retired under it), is deleted (``cleaned``) —
        never turned into a tombstone or a poison report, which would
        make later misses of that case fail.  A claim whose heartbeat
        went stale is moved to an attempt tombstone (``requeued``), or
        poisoned once the task is out of attempts.  Safe to run from any
        number of processes concurrently.
        """
        # Wall clock on purpose: lease staleness is age vs claim-file
        # mtime (a wall-clock stamp); never enters results.
        now = time.time() if now is None else now  # reprolint: ignore[RL003]
        scan = self.scan(now)
        events: list[QueueEvent] = []
        for task_id in sorted(scan.claims):
            task = scan.tasks.get(task_id)
            if task is None or task.state == "done":
                self.release(task_id)
                attempts = 0 if task is None else task.attempts
                events.append(QueueEvent(task_id, "cleaned", attempts))
                continue
            try:
                age = now - self.claim_path(task_id).stat().st_mtime
            except FileNotFoundError:
                continue  # completed or retired by a concurrent actor
            if age <= self.config.lease_seconds:
                continue
            event = self._retire(
                task_id,
                f"heartbeat stale for {age:.1f}s "
                f"(lease {self.config.lease_seconds:g}s)",
            )
            if event is not None:
                events.append(event)
        return events

    def _retire(self, task_id: str, reason: str) -> QueueEvent | None:
        """Atomically move the claim to a tombstone; poison past the budget.

        ``os.replace`` makes retirement race-free: of any number of
        concurrent reapers exactly one moves the claim (the rest see
        ``FileNotFoundError`` and report nothing), and a retired lease can
        never be resurrected by a late heartbeat (``os.utime`` on the old
        path fails, telling the stale worker it lost the task).
        """
        tombstones = self._tombstones(task_id)
        attempt = len(tombstones) + 1
        tomb = self.attempts_dir / f"{task_id}.attempt-{attempt:02d}"
        try:
            os.replace(self.claim_path(task_id), tomb)
        except FileNotFoundError:
            return None
        if attempt >= self.config.max_attempts:
            report = {
                "format": _POISON_FORMAT,
                "task": task_id,
                "attempts": attempt,
                "reason": reason,
                "tombstones": sorted([*tombstones, tomb.name]),
            }
            write_atomic(self.poison_path(task_id), canonical_json(report))
            return QueueEvent(task_id, "poisoned", attempt, reason)
        return QueueEvent(task_id, "requeued", attempt, reason)

    # -- reporting ----------------------------------------------------- #

    def poisoned(self) -> dict[str, dict]:
        """Task id → poison report for every poisoned task."""
        return self._reports(_listed(self.poisoned_dir, ".json"))

    def _reports(self, task_ids: Iterable[str]) -> dict[str, dict]:
        """Task id → poison report of ``task_ids``, in sorted order."""
        import json

        reports: dict[str, dict] = {}
        for task_id in sorted(task_ids):
            try:
                text = self.poison_path(task_id).read_text()
                reports[task_id] = json.loads(text)
            except (OSError, ValueError):
                reports[task_id] = {"task": task_id, "reason": "unreadable"}
        return reports

    def partials(self) -> list[ShardPartial]:
        """Load every partial currently on the queue (sorted by name).

        A partial that vanishes between the directory listing and its
        read (an external cleanup racing this scan) is skipped — the task
        it belonged to is simply done-elsewhere.
        """
        out: list[ShardPartial] = []
        try:
            paths = sorted(self.partials_dir.glob("partial-*.json"))
        except OSError:
            return out
        for p in paths:
            try:
                out.append(ShardPartial.read(p))
            except FileNotFoundError:
                continue
        return out

    def status(self) -> QueueStatus:
        """Count the tasks in each state."""
        return self.scan().status()

    def status_payload(self) -> dict:
        """Machine-readable queue state (``campaign queue-status --json``).

        One consistent-enough snapshot for CI jobs and ops scripts: the
        :meth:`status` counts plus a per-task ``{state, attempts}`` map
        and the full poison reports, all from one :meth:`scan`.  A
        retired case task is not listed: only the artifact cache
        remembers it.
        """
        scan = self.scan()
        return {
            "format": "repro-queue-status-v1",
            **asdict(scan.status()),
            "tasks": {
                task_id: {"state": t.state, "attempts": t.attempts}
                for task_id, t in scan.tasks.items()
            },
            "poisoned_tasks": self._reports(scan.poisoned),
        }


# ---------------------------------------------------------------------- #
# deterministic fault injection (the test seams)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive.

    Wire format (the ``REPRO_QUEUE_FAULT`` env var holds a comma-separated
    list): ``kind[:arg][@worker_id]`` —

    * ``kill-worker:N`` — hard-exit (``os._exit``) after the N-th
      completed case, mid-shard, without releasing the claim;
    * ``drop-partial`` — compute the whole shard, then hard-exit *before*
      the partial is written (claim left behind, heartbeat goes stale);
    * ``stale-heartbeat`` — keep computing but never heartbeat again, so
      the reaper requeues a shard whose worker is actually alive (the
      duplicated-completion path);
    * ``corrupt-claim`` — overwrite the worker's own claim file with
      garbage right after claiming (the protocol must not read claim
      content for liveness);
    * ``sleep-case:S`` — sleep ``S`` seconds after every case (pacing for
      the faults above; not one-shot).

    Service-scoped kinds (fired at :mod:`repro.service` seams):

    * ``slow-cache-read:S`` — sleep ``S`` seconds before every cache
      lookup the service performs (not one-shot; exercises per-request
      timeouts);
    * ``backend-hang:S`` — sleep ``S`` seconds inside the first miss
      enqueue (exercises the request deadline / retry path);
    * ``shed-storm:N`` — force the admission gate to shed the next ``N``
      requests with 429s (exercises the load-shedding contract).

    ``@worker_id`` scopes a spec to one worker.  Every one-shot spec fires
    at most once per *queue* (an ``O_EXCL`` marker under ``faults/``), so
    a respawned or competing worker never re-fires it.
    """

    kind: str
    after_cases: int = 1
    seconds: float = 0.0
    worker: str | None = None

    _KINDS = (
        "kill-worker",
        "drop-partial",
        "stale-heartbeat",
        "corrupt-claim",
        "sleep-case",
        "slow-cache-read",
        "backend-hang",
        "shed-storm",
    )
    _COUNT_ARG = ("kill-worker", "shed-storm")
    _SECONDS_ARG = ("sleep-case", "slow-cache-read", "backend-hang")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[:arg][@worker]`` directive."""
        body, _, worker = text.strip().partition("@")
        kind, _, arg = body.partition(":")
        if kind not in cls._KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {cls._KINDS}"
            )
        return cls(
            kind=kind,
            after_cases=int(arg) if arg and kind in cls._COUNT_ARG else 1,
            seconds=float(arg) if arg and kind in cls._SECONDS_ARG else 0.0,
            worker=worker or None,
        )

    @property
    def marker(self) -> str:
        """File name of the one-shot marker for this spec."""
        return f"{self.kind}@{self.worker}" if self.worker else self.kind


class FaultInjector:
    """Fires parsed :class:`FaultSpec` directives at the worker-loop seams.

    The worker loop calls :meth:`on_claimed`, :meth:`on_case_done` and
    :meth:`on_before_partial` at its three instrumentation points; with no
    specs every call is a no-op, so production runs pay one attribute
    check per event.  One-shot specs burn an ``O_EXCL`` marker file under
    the queue's ``faults/`` directory, making each fault fire exactly once
    per queue no matter how many workers (or respawns) race it.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        queue: WorkQueue,
        worker_id: str,
    ):
        self.specs = [
            s for s in specs if s.worker is None or s.worker == worker_id
        ]
        self.queue = queue
        self.worker_id = worker_id
        #: When a ``stale-heartbeat`` fault fired, the worker stops
        #: touching its claim for the rest of its life.
        self.suppress_heartbeat = False

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str], queue: WorkQueue, worker_id: str
    ) -> "FaultInjector | None":
        """Build an injector from ``REPRO_QUEUE_FAULT``, or ``None``."""
        raw = environ.get(FAULT_ENV, "").strip()
        if not raw:
            return None
        specs = [FaultSpec.parse(part) for part in raw.split(",") if part.strip()]
        return cls(specs, queue, worker_id)

    def _fire_once(self, spec: FaultSpec) -> bool:
        """Burn the spec's one-shot marker; True for the single winner."""
        self.queue.faults_dir.mkdir(parents=True, exist_ok=True)
        marker = self.queue.faults_dir / f"{spec.marker}.fired"
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def on_claimed(self, task_id: str) -> None:
        """Seam: the worker just won a claim."""
        for spec in self.specs:
            if spec.kind == "corrupt-claim" and self._fire_once(spec):
                # Deliberately torn write: this fault seam simulates the
                # corruption atomic writers can never produce.
                self.queue.claim_path(task_id).write_text(  # reprolint: ignore[RL001]
                    "{corrupt claim\x00"
                )
            elif spec.kind == "stale-heartbeat" and self._fire_once(spec):
                self.suppress_heartbeat = True

    def on_case_done(self, task_id: str, n_done: int) -> None:
        """Seam: the worker finished its ``n_done``-th case of this task."""
        for spec in self.specs:
            if spec.kind == "sleep-case" and spec.seconds > 0:
                time.sleep(spec.seconds)
            elif (
                spec.kind == "kill-worker"
                and n_done >= spec.after_cases
                and self._fire_once(spec)
            ):
                os._exit(13)

    def on_before_partial(self, task_id: str) -> None:
        """Seam: the shard is fully computed, the partial not yet written."""
        for spec in self.specs:
            if spec.kind == "drop-partial" and self._fire_once(spec):
                os._exit(17)

    # -- service seams (see repro.service) ----------------------------- #

    def on_cache_read(self) -> None:
        """Seam: the service is about to look a case up in the cache."""
        for spec in self.specs:
            if spec.kind == "slow-cache-read" and spec.seconds > 0:
                time.sleep(spec.seconds)

    def on_enqueue(self) -> None:
        """Seam: the service is about to enqueue a cache miss."""
        for spec in self.specs:
            if (
                spec.kind == "backend-hang"
                and spec.seconds > 0
                and self._fire_once(spec)
            ):
                time.sleep(spec.seconds)

    def shed_storm_budget(self) -> int:
        """Requests the admission gate must force-shed (0 without a spec).

        One-shot per queue: the first service process to consult the
        budget wins the marker and sheds the next ``N`` admissions.
        """
        for spec in self.specs:
            if spec.kind == "shed-storm" and self._fire_once(spec):
                return spec.after_cases
        return 0


class _HeartbeatThread(threading.Thread):
    """Touches a claim's mtime from the background while a shard runs.

    Workers heartbeat *during* case execution, not just between cases — a
    single case slower than the lease must not make a live worker look
    dead.  The thread refreshes the lease every quarter-lease; when the
    refresh fails (the claim vanished: a reaper retired it) it records the
    loss and stops, and the worker's next between-case progress check
    aborts the shard.  An injected ``stale-heartbeat`` fault flips
    ``suppressed`` instead, which stops the touching but *not* the worker.
    """

    def __init__(self, queue: WorkQueue, task_id: str):
        super().__init__(daemon=True)
        self.queue = queue
        self.task_id = task_id
        self.lost = False
        self.suppressed = False
        self._halt = threading.Event()

    def run(self) -> None:
        """Refresh the lease until stopped, lost, or suppressed."""
        interval = max(0.05, self.queue.config.lease_seconds / 4.0)
        while not self._halt.wait(interval):
            if self.suppressed:
                continue
            if not self.queue.heartbeat(self.task_id):
                self.lost = True
                return

    def stop(self) -> None:
        """Signal the thread to exit and wait for it."""
        self._halt.set()
        self.join(timeout=5.0)


def _wait_for_start_barrier(environ: Mapping[str, str]) -> None:
    """Block until the test start-barrier file exists (bounded wait)."""
    barrier = environ.get(START_BARRIER_ENV)
    if not barrier:
        return
    deadline = time.monotonic() + 30.0
    path = pathlib.Path(barrier)
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.002)


# ---------------------------------------------------------------------- #
# the pull worker
# ---------------------------------------------------------------------- #


def queue_worker(
    queue: WorkQueue | pathlib.Path | str,
    cache: ArtifactCache | pathlib.Path | str,
    worker_id: str | None = None,
    *,
    force: bool = False,
    reap: bool = True,
    wait: bool = True,
    forever: bool = False,
    stop: threading.Event | None = None,
    injector: FaultInjector | None = None,
    env_faults: bool = True,
) -> WorkerReport:
    """Pull-execute shards from ``queue`` until it completes (the worker).

    The elastic counterpart of :func:`~repro.campaign.shard.run_shard`'s
    fixed dispatch: :meth:`WorkQueue.scan` for ready tasks (scan order is
    rotated by a hash of the worker id so a fleet doesn't stampede one
    shard), claim one atomically, execute it case by case — heartbeating
    the lease and persisting every artifact as it lands — then
    :meth:`~WorkQueue.complete` it (a shard lands its partial, a case task
    retires), and scan again.  A worker that loses its lease mid-shard (the
    reaper requeued it) abandons the task; everything it computed is
    already in the artifact cache, so the next attempt resumes warm.

    ``reap`` lets the worker double as a reaper when idle (safe from any
    number of processes), so a coordinatorless fleet still self-heals.
    ``wait=False`` returns as soon as nothing is claimable instead of
    polling until the queue completes; ``forever`` keeps polling even when
    every enqueued task is done — the service-fleet mode, where new
    single-case tasks arrive at any time.  ``stop`` requests a graceful
    exit: the worker finishes (or, mid-shard, releases) its current claim
    and returns — SIGTERM handlers set it so a drained claim is
    immediately claimable by the rest of the fleet.  ``injector`` (or, for
    subprocess workers, ``REPRO_QUEUE_FAULT`` when ``env_faults``) drives
    the deterministic fault seams.
    """
    if not isinstance(queue, WorkQueue):
        queue = WorkQueue(pathlib.Path(queue))
    queue.init()
    if worker_id is None:
        worker_id = f"worker-{os.getpid()}"
    if injector is None and env_faults:
        injector = FaultInjector.from_env(os.environ, queue, worker_id)
    _wait_for_start_barrier(os.environ)
    report = WorkerReport(worker_id=worker_id)

    while True:
        if stop is not None and stop.is_set():
            return report
        progressed = False
        scan = queue.scan()
        ids = [task_id for task_id, t in scan.tasks.items() if t.ready]
        if ids:
            offset = zlib.crc32(worker_id.encode()) % len(ids)
            ids = ids[offset:] + ids[:offset]
        for task_id in ids:
            if not queue.claim(task_id, worker_id):
                continue
            report.claimed += 1
            if injector is not None:
                injector.on_claimed(task_id)
            _run_claimed_task(
                queue, task_id, cache, force, injector, report, stop
            )
            progressed = True
            break  # rescan: the queue may have changed under us
        if progressed:
            continue
        if stop is not None and stop.is_set():
            return report
        if reap:
            queue.requeue_stale()
        # This pass's scan decides: reaping only moves claimed tasks (to
        # open, or to poisoned, which the next pass sees).
        if not forever and scan.is_complete():
            return report
        if not wait:
            return report
        if stop is not None:
            if stop.wait(queue.config.poll_seconds):
                return report
        else:
            time.sleep(queue.config.poll_seconds)


def _run_claimed_task(
    queue: WorkQueue,
    task_id: str,
    cache: ArtifactCache | pathlib.Path | str,
    force: bool,
    injector: FaultInjector | None,
    report: WorkerReport,
    stop: threading.Event | None = None,
) -> None:
    """Execute one claimed task and complete it.

    With ``stop`` set mid-shard the worker aborts after the current case
    and *releases* the claim (no attempt tombstone — a graceful drain is
    not a failure), so the task is immediately claimable by the rest of
    the fleet; everything computed so far is already in the cache.
    """
    try:
        manifest = queue.manifest(task_id)
    except FileNotFoundError:
        # The case task retired before the claim or under it (a
        # duplicated completion): nothing is left to run, nothing failed.
        queue.release(task_id)
        report.lost_lease += 1
        return
    except (OSError, ValueError, KeyError, TypeError) as exc:
        queue.fail(task_id, f"unreadable manifest: {exc}")
        report.failed += 1
        return

    n_done = 0
    heartbeat = _HeartbeatThread(queue, task_id)
    heartbeat.suppressed = bool(injector and injector.suppress_heartbeat)
    heartbeat.start()

    def progress(case: CampaignCase) -> bool:
        nonlocal n_done
        n_done += 1
        if injector is not None:
            injector.on_case_done(task_id, n_done)
            if injector.suppress_heartbeat:
                heartbeat.suppressed = True
                return True
        if stop is not None and stop.is_set():
            return False
        return not heartbeat.lost and queue.heartbeat(task_id)

    try:
        partial = run_shard(manifest, cache, force=force, progress=progress)
    except ShardAbort:
        if stop is not None and stop.is_set() and not heartbeat.lost:
            queue.release(task_id)  # graceful drain, not a failed attempt
            report.released += 1
            return
        report.lost_lease += 1
        return
    except Exception as exc:  # noqa: BLE001 - a task must not kill the loop
        queue.fail(task_id, f"{type(exc).__name__}: {exc}")
        report.failed += 1
        return
    finally:
        heartbeat.stop()
    if injector is not None:
        injector.on_before_partial(task_id)
    queue.complete(task_id, partial)
    report.completed += 1
    report.computed += partial.computed
    report.cached += partial.cached


# ---------------------------------------------------------------------- #
# the subprocess fleet and the coordinator backend
# ---------------------------------------------------------------------- #


def _worker_env() -> dict[str, str]:
    """Child environment with ``src`` importable (fault env inherits through)."""
    import repro

    src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + os.pathsep + existing if existing else src_root
    return env


class WorkerFleet:
    """A supervised set of ``campaign queue-worker`` subprocesses.

    The mechanism both fleet owners share — :class:`QueueBackend` (one
    campaign's coordinator) and the query service — while each keeps its
    own policy: how many workers to keep, when to respawn, how to shut
    down.  Every worker runs the public CLI, exactly what a remote machine
    would run, with the queue's lease/retry policy and ``--no-reap`` (the
    owner runs the reaper); ``forever`` adds ``--forever`` for a service
    fleet that waits for new tasks.  A worker's output goes to
    ``logs/<worker id>.log`` under the queue.  Thread-safe: the service's
    janitor thread spawns and prunes while request threads read
    :meth:`live`.
    """

    def __init__(
        self,
        queue: WorkQueue,
        cache_root: pathlib.Path,
        prefix: str,
        *,
        force: bool = False,
        forever: bool = False,
    ):
        self.queue = queue
        self.cache_root = pathlib.Path(cache_root)
        self.prefix = prefix
        self.force = force
        self.forever = forever
        #: Workers started so far; the next worker id is ``prefix + spawned``.
        self.spawned = 0
        self._procs: dict[str, tuple[subprocess.Popen[bytes], TextIO]] = {}
        self._lock = threading.Lock()

    def command(self, worker_id: str) -> list[str]:
        """The ``campaign queue-worker`` argv of one fleet worker."""
        cfg = self.queue.config
        cmd = [
            sys.executable, "-m", "repro.experiments.cli",
            "campaign", "queue-worker", str(self.queue.root),
            "--cache-dir", str(self.cache_root),
            "--worker-id", worker_id,
            "--lease", str(cfg.lease_seconds),
            "--poll", str(cfg.poll_seconds),
            "--max-attempts", str(cfg.max_attempts),
            "--backoff", str(cfg.backoff_seconds),
            "--no-reap",
        ]
        if self.forever:
            cmd.append("--forever")
        if self.force:
            cmd.append("--force")
        return cmd

    def spawn(self) -> str:
        """Start one worker; returns its id."""
        with self._lock:
            worker_id = f"{self.prefix}{self.spawned}"
            self.spawned += 1
        # Append-style diagnostic stream, not a durable artifact.
        log = open(self.queue.logs_dir / f"{worker_id}.log", "w")  # reprolint: ignore[RL001]
        try:
            proc = subprocess.Popen(
                self.command(worker_id),
                env=_worker_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        except BaseException:
            log.close()
            raise
        with self._lock:
            self._procs[worker_id] = (proc, log)
        return worker_id

    def prune(self) -> int:
        """Forget exited workers and close their logs; returns how many remain."""
        with self._lock:
            exited = [
                worker_id
                for worker_id, (proc, _) in self._procs.items()
                if proc.poll() is not None
            ]
            for worker_id in exited:
                self._procs.pop(worker_id)[1].close()
            return len(self._procs)

    def live(self) -> int:
        """Workers still running right now."""
        with self._lock:
            return sum(
                1 for proc, _ in self._procs.values() if proc.poll() is None
            )

    def stop(self, timeout: float, *, terminate_first: bool) -> None:
        """Stop every worker, close its log, and forget it.

        With ``terminate_first`` every worker gets SIGTERM at once and
        then ``timeout`` seconds to finish or release its claim (the
        service drain).  Without it the workers get ``timeout`` seconds to
        exit on their own — a coordinator's workers leave once the queue
        completes — and then SIGTERM and 5 more seconds.  A worker still
        running after that is killed.
        """
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
        if terminate_first:
            for proc, _ in procs:
                if proc.poll() is None:
                    proc.terminate()
        deadline = time.monotonic() + timeout
        for proc, log in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                if terminate_first:
                    proc.kill()
                else:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        proc.kill()
                proc.wait()
            log.close()


class QueueBackend:
    """Run a campaign through the work queue with an elastic worker fleet.

    The :class:`~repro.campaign.backend.ExecutionBackend` face of the
    queue protocol: partition the submitted cases into shards, enqueue
    them, launch ``jobs`` pull workers, and run the coordinator loop —
    reap stale leases, yield each shard's results as its partial lands,
    and **respawn** replacement workers while open work remains (elastic
    membership: the fleet survives any individual worker death).  With
    ``jobs <= 1`` the worker loop runs inline (no subprocesses, identical
    files and results).

    Workers are real subprocesses (a :class:`WorkerFleet`) driven through
    the public ``campaign queue-worker`` CLI — exactly what a remote
    machine would run — so artifacts, partials, and the merged aggregate
    are byte-identical to a serial run, which the fault-injection suite
    and the ``dispatch-identity`` CI job assert under injected failures.

    Raises :class:`PoisonedShardError` when any shard exhausts its retry
    budget (after yielding every healthy shard's results, so completed
    work is already persisted for a later ``--resume``).
    """

    def __init__(
        self,
        n_shards: int = 2,
        jobs: int | None = None,
        queue_dir: pathlib.Path | str | None = None,
        config: QueueConfig | None = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.jobs = int(jobs) if jobs else self.n_shards
        self.queue_dir = (
            pathlib.Path(queue_dir) if queue_dir is not None else None
        )
        self.config = config or QueueConfig()
        self._pending: list[tuple[int, CampaignCase]] = []
        self._cache: ArtifactCache | None = None
        self._force = False
        self.persists_results = False

    @property
    def workers(self) -> int:
        """Concurrent pull workers this backend launches."""
        return self.jobs

    def submit(
        self,
        cases: Sequence[tuple[int, CampaignCase]],
        cache: ArtifactCache | None = None,
        force: bool = False,
    ) -> None:
        """Register pending ``(suite_index, case)`` pairs.

        Workers store artifacts straight into ``cache`` when one is given
        (so the campaign skips its own re-store), and into a ``cache/``
        directory under the queue otherwise.
        """
        self._pending = list(cases)
        self._cache = cache
        self._force = bool(force)
        self.persists_results = cache is not None

    def _credit(self, computed: int, cached: int) -> None:
        """Count worker-side stores/hits in the campaign cache's stats."""
        if self._cache is not None:
            self._cache.stats.stores += computed
            self._cache.stats.hits += cached

    # -- the coordinator ----------------------------------------------- #

    def as_completed(self) -> Generator[Completion, None, None]:
        """Enqueue, run the fleet, and yield results as partials land."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        tmp: tempfile.TemporaryDirectory[str] | None = None
        if self.queue_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-queue-")
            queue_root = pathlib.Path(tmp.name)
        else:
            queue_root = self.queue_dir
        try:
            queue = WorkQueue(queue_root, self.config).init()
            cache_root = (
                pathlib.Path(self._cache.root)
                if self._cache is not None
                else queue_root / "cache"
            )
            manifests = {
                pathlib.Path(m.filename).stem: m
                for m in partition_cases(pending, self.n_shards)
                if m.cases
            }
            # Shards an earlier run over this queue directory finished:
            # nothing runs for them now, so their cases count as cached.
            landed_before = {t for t in manifests if queue.has_partial(t)}
            queue.enqueue(manifests.values())
            cache = ArtifactCache(cache_root)

            def results_of(manifest: ShardManifest) -> Iterator[Completion]:
                for index, case in manifest.cases:
                    result = cache.load(case)
                    if result is None:  # pragma: no cover - worker bug guard
                        raise RuntimeError(
                            f"queue shard {manifest.shard_index} completed "
                            f"but left no artifact for case {case.name}"
                        )
                    yield index, case, result

            yielded: set[str] = set()

            def drain_landed() -> Iterator[Completion]:
                for task_id in sorted(manifests):
                    if task_id in yielded or not queue.has_partial(task_id):
                        continue
                    if task_id in landed_before:
                        self._credit(0, len(manifests[task_id].cases))
                    else:
                        partial = ShardPartial.read(queue.partial_path(task_id))
                        self._credit(partial.computed, partial.cached)
                    yielded.add(task_id)
                    yield from results_of(manifests[task_id])

            if self.jobs <= 1:
                # Inline single-worker mode: same files, no subprocesses.
                # Env-driven faults are ignored — they hard-exit the
                # process, which must only ever kill a *fleet* worker.
                queue_worker(
                    queue,
                    cache_root,
                    "w0",
                    force=self._force,
                    reap=True,
                    env_faults=False,
                )
                yield from drain_landed()
            else:
                fleet = WorkerFleet(queue, cache_root, "w", force=self._force)
                yield from self._run_fleet(fleet, drain_landed)

            poisoned = queue.poisoned()
            if poisoned:
                raise PoisonedShardError(poisoned)
        finally:
            if tmp is not None:
                tmp.cleanup()

    def _run_fleet(
        self,
        fleet: WorkerFleet,
        drain_landed: Callable[[], Iterator[Completion]],
    ) -> Iterator[Completion]:
        """Spawn and babysit the subprocess fleet; yield landing results."""
        queue = fleet.queue
        respawn_budget = self.jobs * self.config.max_attempts
        try:
            for _ in range(self.jobs):
                fleet.spawn()
            while True:
                queue.requeue_stale()
                yield from drain_landed()
                if queue.is_complete():
                    break
                # Elastic membership: replace dead workers while open
                # work remains (a one-shot fault won't re-fire thanks to
                # the queue-level markers), bounded so a systemic crash
                # converges to poisoning instead of a respawn storm.
                live = fleet.prune()
                if live < self.jobs:
                    if fleet.spawned - self.jobs < respawn_budget:
                        fleet.spawn()
                    elif not live:
                        raise RuntimeError(
                            f"queue fleet died: {fleet.spawned} workers "
                            f"exited with {queue.status().render()}"
                        )
                time.sleep(self.config.poll_seconds)
            yield from drain_landed()
        finally:
            fleet.stop(
                max(5.0, self.config.lease_seconds), terminate_first=False
            )
