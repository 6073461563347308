"""The ExecutionBackend protocol: resolution and equivalence."""

import os

import numpy as np
import pytest

from repro.analysis import classical
from repro.campaign import (
    BACKEND_NAMES,
    Campaign,
    CampaignCase,
    ExecutionBackend,
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    get_backend,
)
from repro.experiments.cases import CaseSpec

SPECS = [
    CaseSpec("cholesky", 3, 1.01),
    CaseSpec("random", 10, 1.1),
    CaseSpec("ge", 4, 1.01),
]


def _walkers_probe(_: int) -> tuple[int, int]:
    """This process's id and how many walkers its panel walks split across."""
    return os.getpid(), classical._WALKERS


def _cases(n=3):
    return [
        CampaignCase(spec=s, base_seed=11, n_random=6, grid_n=65)
        for s in SPECS[:n]
    ]


class TestGetBackend:
    def test_none_resolves_to_historical_jobs_policy(self):
        assert isinstance(get_backend(None, jobs=1), SerialBackend)
        pool = get_backend(None, jobs=3)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3

    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process", jobs=4), ProcessPoolBackend)
        queue = get_backend("queue", jobs=3, shards=5)
        assert isinstance(queue, QueueBackend)
        assert queue.n_shards == 5 and queue.workers == 3

    def test_explicit_jobs_respected_even_for_process(self):
        # --backend process --jobs 1 means one worker (inline batch),
        # not a silent escalation to a 2-worker pool.
        assert get_backend("process", jobs=1).workers == 1

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert get_backend(backend, jobs=8) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("carrier-pigeon")

    def test_shard_backend_is_gone(self):
        # The queue backend is the one out-of-process dispatch path.
        assert BACKEND_NAMES == ("serial", "process", "queue")
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("shard")

    def test_all_backends_satisfy_the_protocol(self):
        for backend in (
            SerialBackend(),
            ProcessPoolBackend(2),
            QueueBackend(jobs=1),
        ):
            assert isinstance(backend, ExecutionBackend)
            assert backend.workers >= 1
            assert backend.persists_results is False


class TestBackendEquivalence:
    """Every backend must reproduce SerialBackend's results bit-for-bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        return Campaign(_cases(), backend=SerialBackend()).run()

    @pytest.mark.parametrize(
        "backend_factory",
        [
            pytest.param(lambda: ProcessPoolBackend(2), marks=pytest.mark.fleet),
            lambda: QueueBackend(jobs=1),
        ],
        ids=["process", "queue"],
    )
    def test_bit_identical_to_serial(self, reference, backend_factory):
        results = Campaign(_cases(), backend=backend_factory()).run()
        for a, b in zip(reference, results):
            assert a.name == b.name
            assert np.array_equal(a.panel.values, b.panel.values)
            assert np.array_equal(a.pearson, b.pearson, equal_nan=True)

    @pytest.mark.fleet
    def test_jobs_kwarg_still_works(self, reference):
        results = Campaign(_cases(), jobs=2).run()
        for a, b in zip(reference, results):
            assert np.array_equal(a.panel.values, b.panel.values)

    def test_single_pending_case_runs_inline(self):
        # No pool spin-up for one unit of work: the backend must still
        # yield the case (and produce the same result).
        backend = ProcessPoolBackend(4)
        [result] = Campaign(_cases(1), backend=backend).run()
        [ref] = Campaign(_cases(1), backend=SerialBackend()).run()
        assert np.array_equal(result.panel.values, ref.panel.values)


class TestBackendStatsReporting:
    @pytest.mark.fleet
    def test_pool_run_counts_hits_and_misses_in_cache_stats(self, tmp_path):
        from repro.campaign import ArtifactCache

        cases = _cases()
        Campaign(cases[:1], cache=ArtifactCache(tmp_path / "cache")).run()

        cache = ArtifactCache(tmp_path / "cache")
        Campaign(cases, jobs=2, cache=cache).run()
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        assert cache.stats.stores == 2


class TestBackendMap:
    @pytest.mark.fleet
    def test_serial_and_pool_map_preserve_order(self):
        items = list(range(7))
        expect = [str(i) for i in items]
        assert ProcessPoolBackend(1).map(str, items) == expect
        assert ProcessPoolBackend(3).map(str, items) == expect

    @pytest.mark.fleet
    def test_pool_of_one_worker_per_cpu_walks_with_one_walker_each(self):
        cpus = classical._WALKERS
        seen = dict(ProcessPoolBackend(cpus).map(_walkers_probe, range(4 * cpus)))
        assert set(seen.values()) == {1}
        # A pool of fewer workers shares the CPUs out among them.
        shared = ProcessPoolBackend(2).map(_walkers_probe, range(8))
        assert {n for _, n in shared} == {max(1, cpus // 2)}

    def test_map_empty(self):
        assert ProcessPoolBackend(4).map(str, []) == []

    @pytest.mark.fleet
    def test_fig9_accepts_a_backend(self):
        from repro.experiments import fig9_slack_quadrants

        serial = fig9_slack_quadrants.run("quick", backend=SerialBackend())
        pooled = fig9_slack_quadrants.run("quick", backend=ProcessPoolBackend(2))
        assert serial == pooled
