"""Concurrent ``ArtifactCache`` writers and readers: no torn observations.

The queue protocol's duplicated-completion path means two workers can
finish the *same* case at the same moment (a spurious requeue after a
stale heartbeat) and race their ``store()`` calls on one artifact name.
The cache's write discipline — unique temp file per pid + atomic
``os.replace`` — must guarantee the surviving file is a complete, valid
artifact with the canonical bytes, never an interleaving of two writers,
and a reader racing the writers observes either nothing or the complete
canonical result.
"""

import multiprocessing

import pytest

from repro.campaign import ArtifactCache, CampaignCase
from repro.experiments.cases import CaseSpec
from repro.io.json_io import case_result_to_json


@pytest.fixture
def case() -> CampaignCase:
    return CampaignCase(
        spec=CaseSpec("cholesky", 3, 1.1), base_seed=7, n_random=5
    )


def _store_repeatedly(cache_dir, case_dict, barrier, repeats):
    """Subprocess body: hammer ``store`` for one case, gate on a barrier."""
    case = CampaignCase.from_dict(case_dict)
    result = case.run()
    cache = ArtifactCache(cache_dir)
    barrier.wait()
    for _ in range(repeats):
        cache.store(case, result)


def _lookup_repeatedly(cache_dir, case_dict, barrier, repeats):
    """Subprocess body: a ``lookup`` reader racing the writers.

    Every observation must be all-or-nothing: either a miss (the artifact
    not there *yet*) or the complete canonical result.  A single corrupt
    read fails the assert and surfaces as a nonzero exitcode.
    """
    import time

    case = CampaignCase.from_dict(case_dict)
    reference = case_result_to_json(case.run())
    cache = ArtifactCache(cache_dir)
    barrier.wait()
    hits = 0
    for _ in range(repeats):
        loaded = cache.lookup(case)
        if loaded is not None:
            assert case_result_to_json(loaded) == reference
            hits += 1
        time.sleep(0.002)  # spread reads across the writers' burst
    assert cache.stats.corrupt == 0, "reader observed a torn artifact"
    assert hits > 0, "reader never saw the stored artifact"


class TestConcurrentStores:
    N_WRITERS = 4
    REPEATS = 20

    @pytest.mark.fleet
    def test_racing_writers_never_corrupt_the_artifact(
        self, tmp_path, case
    ):
        # Because every backend serializes canonically, racing writers
        # carry identical bytes — so "last write wins" must be
        # indistinguishable from any single writer, and no reader may
        # ever observe a partial file.
        cache_dir = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(self.N_WRITERS)
        procs = [
            ctx.Process(
                target=_store_repeatedly,
                args=(cache_dir, case.to_dict(), barrier, self.REPEATS),
            )
            for _ in range(self.N_WRITERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=300)
            assert p.exitcode == 0

        # Exactly the one canonical artifact, no leftover temp files.
        files = sorted(p.name for p in cache_dir.iterdir())
        assert files == [case.artifact_name]

        # Its content is the canonical serialization, bit for bit…
        reference = case.run()
        stored = (cache_dir / case.artifact_name).read_text()
        solo_dir = tmp_path / "solo"
        ArtifactCache(solo_dir).store(case, reference)
        assert stored == (solo_dir / case.artifact_name).read_text()

        # …and the audit agrees nothing is corrupt or half-written.
        cache = ArtifactCache(cache_dir)
        audit = cache.verify()
        assert audit.ok, (audit.corrupt, audit.stale_temp)
        assert [p.name for p in audit.valid] == [case.artifact_name]
        loaded = cache.load(case)
        assert loaded is not None
        assert case_result_to_json(loaded) == case_result_to_json(reference)

    @pytest.mark.fleet
    def test_reader_racing_writers_sees_only_complete_snapshots(
        self, tmp_path, case
    ):
        cache_dir = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        n_readers = 2
        barrier = ctx.Barrier(self.N_WRITERS + n_readers)
        writers = [
            ctx.Process(
                target=_store_repeatedly,
                args=(cache_dir, case.to_dict(), barrier, self.REPEATS),
            )
            for _ in range(self.N_WRITERS)
        ]
        readers = [
            ctx.Process(
                target=_lookup_repeatedly,
                args=(cache_dir, case.to_dict(), barrier, self.REPEATS * 3),
            )
            for _ in range(n_readers)
        ]
        for p in writers + readers:
            p.start()
        for p in writers + readers:
            p.join(timeout=300)
            assert p.exitcode == 0

        # Post-race, the directory holds the one clean artifact.
        audit = ArtifactCache(cache_dir).verify()
        assert audit.ok, (audit.corrupt, audit.stale_temp)
        assert [p.name for p in audit.valid] == [case.artifact_name]
        assert not audit.stale_temp
