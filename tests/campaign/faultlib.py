"""Deterministic fault injection for the queue-fleet tests.

The seams live in :mod:`repro.campaign.queue` (:class:`FaultInjector`, so
subprocess workers honour them with only ``src`` on their path); this
module is the *test-facing* layer: build injectors and worker
environments, spawn real subprocess workers, and provide the shared
tiny-suite fixtures the queue tests run against.

Fault kinds (see :class:`repro.campaign.queue.FaultSpec`):

* ``kill-worker:N``   — hard-exit mid-shard after N completed cases;
* ``drop-partial``    — compute the shard, die before the partial lands;
* ``stale-heartbeat`` — keep working but stop heartbeating (spurious
  requeue → duplicated completion);
* ``corrupt-claim``   — overwrite the worker's own claim with garbage;
* ``sleep-case:S``    — pace case completion (makes lease timing
  deterministic in the tests above);
* ``slow-cache-read:S`` / ``backend-hang:S`` / ``shed-storm:N`` —
  service-scoped faults fired at the :mod:`repro.service` seams (cache
  lookup, miss enqueue, admission).

Every one-shot fault burns a marker file under the queue's ``faults/``
directory, so a test can assert the fault actually *fired* — a fault test
that silently never injects its fault must fail, not pass vacuously.
"""

import os
import pathlib
import subprocess
import sys

import repro
from repro.campaign.queue import (
    FAULT_ENV,
    START_BARRIER_ENV,
    FaultInjector,
    FaultSpec,
    WorkQueue,
)

__all__ = [
    "fault_env",
    "fired_markers",
    "make_injector",
    "spawn_worker",
    "wait_all",
]


def make_injector(
    queue: WorkQueue, worker_id: str, *specs: str
) -> FaultInjector:
    """Build an in-process injector from ``kind[:arg][@worker]`` strings."""
    return FaultInjector(
        [FaultSpec.parse(s) for s in specs], queue, worker_id
    )


def fault_env(
    *specs: str, barrier: pathlib.Path | None = None
) -> dict[str, str]:
    """Subprocess environment carrying fault specs (and ``src`` on path).

    The returned dict is a full environment: ``REPRO_QUEUE_FAULT`` holds
    the comma-joined specs, ``REPRO_QUEUE_START_BARRIER`` (when
    ``barrier`` is given) makes every worker block until that file exists
    — the claim-race tests use it to line workers up on one task — and
    ``PYTHONPATH`` lets ``python -m repro.experiments.cli`` import.
    """
    env = dict(os.environ)
    src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    if specs:
        env[FAULT_ENV] = ",".join(specs)
    else:
        env.pop(FAULT_ENV, None)
    if barrier is not None:
        env[START_BARRIER_ENV] = str(barrier)
    else:
        env.pop(START_BARRIER_ENV, None)
    return env


def spawn_worker(
    queue_dir: pathlib.Path,
    cache_dir: pathlib.Path,
    worker_id: str,
    *,
    env: dict[str, str],
    lease: float = 2.0,
    poll: float = 0.05,
    max_attempts: int = 3,
    backoff: float = 0.0,
    no_wait: bool = False,
    no_reap: bool = False,
    forever: bool = False,
) -> subprocess.Popen:
    """Launch one real ``campaign queue-worker`` subprocess.

    Fast-reaction defaults (2 s lease, 50 ms poll, no backoff) keep the
    fault tests quick; production defaults live in
    :class:`repro.campaign.queue.QueueConfig`.
    """
    cmd = [
        sys.executable,
        "-m",
        "repro.experiments.cli",
        "campaign",
        "queue-worker",
        str(queue_dir),
        "--cache-dir",
        str(cache_dir),
        "--worker-id",
        worker_id,
        "--lease",
        str(lease),
        "--poll",
        str(poll),
        "--max-attempts",
        str(max_attempts),
        "--backoff",
        str(backoff),
    ]
    if no_wait:
        cmd.append("--no-wait")
    if no_reap:
        cmd.append("--no-reap")
    if forever:
        cmd.append("--forever")
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def wait_all(
    procs: list[subprocess.Popen], timeout: float = 300.0
) -> list[str]:
    """Wait for every worker; returns their stdout texts (kills on hang)."""
    outputs = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            raise AssertionError(
                f"worker pid {proc.pid} hung; partial output:\n{out}"
            )
        outputs.append(out or "")
    return outputs


def fired_markers(queue: WorkQueue) -> set[str]:
    """Names of the one-shot faults that actually fired on this queue."""
    try:
        return {
            p.name[: -len(".fired")]
            for p in queue.faults_dir.glob("*.fired")
        }
    except OSError:
        return set()
