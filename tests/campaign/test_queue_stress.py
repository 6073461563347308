"""Property/stress test: seeded random kill schedules, always identical.

The byte-identity invariant stated as a property: for *any* fleet size
and *any* kill schedule, the queue-backed run's merged aggregate payload
and artifact sha256 set equal the serial run's.  Randomness is seeded —
every schedule is reproducible from its case id — and each schedule's
kills are injected through the real subprocess-worker seams, so what is
stressed is exactly what production runs.
"""

import hashlib
import pathlib
import random

import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    SuiteAggregator,
    WorkQueue,
    QueueConfig,
    case_contribution,
    merge_partials,
    partition_cases,
    suite_aggregate_to_payload,
)

from tests.campaign.faultlib import (
    fault_env,
    fired_markers,
    spawn_worker,
    wait_all,
)
from tests.campaign.test_shard import _indexed_cases

FAST = QueueConfig(
    lease_seconds=2.0, poll_seconds=0.05, max_attempts=5, backoff_seconds=0.0
)

#: Seeded schedules: (seed, n_workers, n_shards).  Each seed draws which
#: workers die and after how many cases; max_attempts=5 gives even an
#: unlucky draw room to converge.
SCHEDULES = [(101, 2, 3), (202, 3, 3), (303, 3, 4)]


def _sha256s(cache_dir: pathlib.Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pathlib.Path(cache_dir).glob("*.json"))
    }


@pytest.fixture(scope="module")
def serial_truth(tmp_path_factory):
    """Serial reference aggregate payload + artifact hashes."""
    root = tmp_path_factory.mktemp("serial-truth")
    indexed = _indexed_cases()
    results = Campaign([c for _, c in indexed], cache=ArtifactCache(root)).run()
    aggregator = SuiteAggregator(ordered=False)
    for (index, case), result in zip(indexed, results):
        aggregator.add(case_contribution(index, case, result))
    return {
        "aggregate": suite_aggregate_to_payload(aggregator.finalize()),
        "hashes": _sha256s(root),
    }


@pytest.mark.fleet
@pytest.mark.parametrize("seed,n_workers,n_shards", SCHEDULES)
def test_random_kill_schedule_preserves_identity(
    tmp_path, serial_truth, seed, n_workers, n_shards
):
    rng = random.Random(seed)
    queue = WorkQueue(tmp_path / "queue", FAST)
    queue.enqueue(
        m for m in partition_cases(_indexed_cases(), n_shards) if m.cases
    )
    cache_dir = tmp_path / "cache"

    procs = []
    for w in range(n_workers):
        wid = f"w{w}"
        specs = []
        # Each worker independently draws a kill: after 1–3 completed
        # cases it hard-exits mid-shard.  At least one worker always
        # survives so the fleet converges without a coordinator.
        if w > 0 and rng.random() < 0.6:
            specs.append(f"kill-worker:{rng.randint(1, 3)}@{wid}")
        procs.append(
            spawn_worker(
                queue.root, cache_dir, wid,
                env=fault_env(*specs), max_attempts=FAST.max_attempts,
            )
        )
    wait_all(procs)

    assert queue.is_complete()
    assert not queue.poisoned()
    merged = merge_partials(queue.partials())
    assert suite_aggregate_to_payload(merged.aggregate) == (
        serial_truth["aggregate"]
    )
    assert _sha256s(cache_dir) == serial_truth["hashes"]
    fired_kills = {
        m for m in fired_markers(queue) if m.startswith("kill-worker")
    }
    if fired_kills:
        # Workers that really died mid-shard left claims behind, which
        # the survivors reaped into attempt tombstones.
        assert queue.status().failed_attempts >= 1
