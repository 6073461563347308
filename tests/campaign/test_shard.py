"""The shard/worker/merge protocol: partition, round trips, bit-identity."""

import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    CampaignCase,
    ShardManifest,
    ShardPartial,
    SuiteAggregator,
    expand_suite,
    merge_partials,
    partition_cases,
    run_shard,
)
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import Scale

TINY = Scale(
    name="tiny",
    n_random_small=25,
    n_random_medium=12,
    n_random_large=6,
    mc_realizations=4_000,
    grid_n=65,
    fig1_sizes=(10, 30),
    fig8_max_sum=10,
)

SPECS = [
    CaseSpec("cholesky", 3, 1.01),
    CaseSpec("cholesky", 3, 1.1),
    CaseSpec("random", 10, 1.1),
    CaseSpec("random", 10, 1.01),
    CaseSpec("ge", 4, 1.01),
    CaseSpec("ge", 4, 1.1),
]


def _indexed_cases():
    return list(enumerate(expand_suite(SPECS, TINY, base_seed=17)))


@dataclass(frozen=True)
class ColdRuns:
    """The suite computed cold three ways, each into its own cache."""

    indexed: list
    single: object  # the single-process aggregate, the reference
    single_cache: pathlib.Path
    one: ShardPartial  # the whole suite as one shard
    one_cache: pathlib.Path
    three: list  # three shards' partials, in shard order
    three_cache: pathlib.Path


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> ColdRuns:
    """Compute the suite once per way; tests that only read share it."""
    root = tmp_path_factory.mktemp("shards")
    indexed = _indexed_cases()
    agg = SuiteAggregator()
    campaign = Campaign(
        [c for _, c in indexed], cache=ArtifactCache(root / "single")
    )
    for i, case, result in campaign.iter_results():
        agg.add_case(i, case, result)
    return ColdRuns(
        indexed=indexed,
        single=agg.finalize(),
        single_cache=root / "single",
        one=run_shard(partition_cases(indexed, 1)[0], root / "one"),
        one_cache=root / "one",
        three=[run_shard(m, root / "three") for m in partition_cases(indexed, 3)],
        three_cache=root / "three",
    )


class TestPartition:
    def test_partition_covers_every_case_exactly_once(self):
        indexed = _indexed_cases()
        manifests = partition_cases(indexed, 3)
        assert len(manifests) == 3
        seen = sorted(i for m in manifests for i, _ in m.cases)
        assert seen == [i for i, _ in indexed]

    def test_partition_is_keyed_by_artifact_hash(self):
        indexed = _indexed_cases()
        manifests = partition_cases(indexed, 4)
        for m in manifests:
            for _, case in m.cases:
                assert case.shard(4) == m.shard_index
        # ... and independent of suite order.
        reversed_manifests = partition_cases(list(reversed(indexed)), 4)
        for a, b in zip(manifests, reversed_manifests):
            assert {c.key for _, c in a.cases} == {c.key for _, c in b.cases}

    def test_shard_assignment_is_deterministic(self):
        case = _indexed_cases()[0][1]
        assert case.shard(5) == case.shard(5)
        assert 0 <= case.shard(5) < 5
        with pytest.raises(ValueError, match="n_shards"):
            case.shard(0)

    def test_empty_shards_are_materialized(self):
        # One case across many shards: most shards are empty but exist.
        indexed = _indexed_cases()[:1]
        manifests = partition_cases(indexed, 4)
        assert len(manifests) == 4
        assert sum(len(m.cases) for m in manifests) == 1

    def test_suite_key_distinguishes_suites(self):
        indexed = _indexed_cases()
        a = partition_cases(indexed, 2)[0]
        b = partition_cases(indexed[:-1], 2)[0]
        assert a.suite_key != b.suite_key


class TestFileRoundTrips:
    def test_manifest_round_trip(self, tmp_path):
        manifest = partition_cases(_indexed_cases(), 2)[0]
        path = tmp_path / manifest.filename
        assert manifest.write(tmp_path) == path
        loaded = ShardManifest.read(path)
        assert loaded == manifest

    def test_manifest_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a shard manifest"):
            ShardManifest.read(path)

    def test_partial_round_trip(self, tmp_path):
        manifest = partition_cases(_indexed_cases()[:3], 2)[0]
        partial = run_shard(manifest, tmp_path / "cache")
        path = partial.write(tmp_path)
        loaded = ShardPartial.read(path)
        assert loaded.shard_index == partial.shard_index
        assert loaded.case_keys == partial.case_keys
        for a, b in zip(loaded.contributions, partial.contributions):
            assert a.index == b.index and a.name == b.name
            assert np.array_equal(a.pearson, b.pearson, equal_nan=True)
            assert (a.rel_corr == b.rel_corr) or (
                np.isnan(a.rel_corr) and np.isnan(b.rel_corr)
            )
            assert a.heuristic_rows == b.heuristic_rows

    def test_partial_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "zz.json"
        path.write_text('{"format": "repro-shard-manifest-v1"}')
        with pytest.raises(ValueError, match="not a shard partial"):
            ShardPartial.read(path)


class TestWorkerAndMerge:
    def test_merge_is_bit_identical_to_single_process_fold(self, runs):
        single = runs.single
        merged = merge_partials(runs.three).aggregate
        assert np.array_equal(single.mean, merged.mean, equal_nan=True)
        assert np.array_equal(single.std, merged.std, equal_nan=True)
        assert single.rel_mean == merged.rel_mean
        assert single.rel_std == merged.rel_std
        assert single.heuristic_rows == merged.heuristic_rows
        assert single.case_rows == merged.case_rows

    def test_shard_workers_write_identical_artifacts(self, runs):
        files_a = sorted(runs.single_cache.iterdir())
        for shard_cache in (runs.one_cache, runs.three_cache):
            files_b = sorted(shard_cache.iterdir())
            assert [p.name for p in files_a] == [p.name for p in files_b]
            for a, b in zip(files_a, files_b):
                assert a.read_bytes() == b.read_bytes()

    def test_worker_reuses_cache_and_reports_counts(self, tmp_path):
        manifest = partition_cases(_indexed_cases(), 1)[0]
        cold = run_shard(manifest, tmp_path / "cache")
        assert cold.computed == len(manifest.cases) and cold.cached == 0
        warm = run_shard(manifest, tmp_path / "cache")
        assert warm.computed == 0 and warm.cached == len(manifest.cases)
        assert merge_partials([warm]).cached == len(manifest.cases)
        forced = run_shard(manifest, tmp_path / "cache", force=True)
        assert (forced.computed, forced.cached) == (len(manifest.cases), 0)

    def test_merge_subset_of_shards_is_exact_partial(self, runs):
        manifests = [m for m in partition_cases(runs.indexed, 3) if m.cases]
        partials = [runs.three[m.shard_index] for m in manifests]
        merged = merge_partials(partials[:-1])
        covered = [i for m in manifests[:-1] for i, _ in m.cases]
        assert merged.aggregate.n_cases == len(covered)
        reference = SuiteAggregator(ordered=False)
        by_index = {
            c.index: c for p in partials[:-1] for c in p.contributions
        }
        for i in sorted(by_index):
            reference.add(by_index[i])
        assert np.array_equal(
            merged.aggregate.mean, reference.finalize().mean, equal_nan=True
        )

    def test_merge_rejects_duplicate_case_keys_across_shards(self, runs):
        partial = runs.one
        twin = ShardPartial(
            shard_index=0 if partial.shard_index else 1,
            n_shards=partial.n_shards,
            suite_key=partial.suite_key,
            suite_size=partial.suite_size,
            contributions=partial.contributions,
            case_keys=partial.case_keys,
        )
        with pytest.raises(ValueError, match="duplicate case key"):
            merge_partials([partial, twin])

    def test_merge_rejects_overlapping_contribution_indices(self, runs):
        # A requeue race can leave a stale partial whose *case keys*
        # differ (e.g. a fast-conv variant or recomputed keys) but whose
        # contribution indices collide with another shard's — folding
        # both would double-count.  The error must be named and
        # actionable, raised before any folding happens.
        from repro.campaign import PartialOverlapError

        partial = runs.one
        stale = ShardPartial(
            shard_index=0 if partial.shard_index else 1,
            n_shards=partial.n_shards,
            suite_key=partial.suite_key,
            suite_size=partial.suite_size,
            contributions=partial.contributions[:1],
            case_keys=("0" * 64,),  # foreign key, same suite index
        )
        with pytest.raises(
            PartialOverlapError, match="contribution index"
        ) as err:
            merge_partials([partial, stale])
        message = str(err.value)
        assert "stale partial" in message  # remediation hint
        assert isinstance(err.value, ValueError)  # backwards compatible

    def test_merge_rejects_same_shard_twice(self, runs):
        with pytest.raises(ValueError, match="appears twice"):
            merge_partials([runs.one, runs.one])

    def test_merge_rejects_foreign_suites(self, runs):
        # warm: the one-shard run already cached both cases
        b = run_shard(
            partition_cases(runs.indexed[:2], 1)[0], runs.one_cache
        )
        with pytest.raises(ValueError, match="different suite"):
            merge_partials([runs.one, b])

    def test_merge_requires_at_least_one_partial(self):
        with pytest.raises(ValueError, match="no shard partials"):
            merge_partials([])

    def test_merge_render_mentions_coverage(self, runs):
        partials = [
            run_shard(m, runs.one_cache)  # warm
            for m in partition_cases(runs.indexed, 2)
        ]
        text = merge_partials(partials).render()
        assert "2/2 shards" in text
        assert "§VII" in text


class TestCacheVerify:
    def _populated_cache(self, tmp_path):
        cases = [c for _, c in _indexed_cases()[:2]]
        cache = ArtifactCache(tmp_path / "cache")
        Campaign(cases, cache=cache).run()
        return cache, cases

    def test_clean_cache_is_all_valid(self, tmp_path):
        cache, cases = self._populated_cache(tmp_path)
        audit = cache.verify(cases)
        assert audit.ok
        assert len(audit.valid) == 2
        assert not audit.corrupt and not audit.orphans and not audit.stale_temp
        assert "2 valid" in audit.summary()

    def test_corrupt_artifacts_reported_with_reason(self, tmp_path):
        cache, cases = self._populated_cache(tmp_path)
        path = cache.path_for(cases[0])
        path.write_text(path.read_text()[:-40])  # truncate: digest mismatch
        (cache.root / "zz-noise.json").write_text("{not json")
        audit = cache.verify()
        assert not audit.ok
        assert len(audit.corrupt) == 2
        assert len(audit.valid) == 1

    def test_orphans_outside_expected_suite(self, tmp_path):
        cache, cases = self._populated_cache(tmp_path)
        audit = cache.verify(cases[:1])
        assert len(audit.valid) == 1
        assert len(audit.orphans) == 1
        assert "not part of the expected suite" in audit.orphans[0][1]

    def test_misnamed_artifact_is_an_orphan(self, tmp_path):
        cache, cases = self._populated_cache(tmp_path)
        src = cache.path_for(cases[0])
        src.rename(cache.root / "renamed-artifact.json")
        audit = cache.verify(cases)
        assert len(audit.orphans) == 1
        assert "misnamed" in audit.orphans[0][1]

    def test_stale_temp_files_reported(self, tmp_path):
        cache, cases = self._populated_cache(tmp_path)
        (cache.root / f"{cases[0].artifact_name}.tmp.12345").write_text("{")
        audit = cache.verify()
        assert audit.ok  # stale temps are not corruption
        assert len(audit.stale_temp) == 1

    def test_missing_directory_is_empty_audit(self, tmp_path):
        audit = ArtifactCache(tmp_path / "never").verify()
        assert audit.ok and not audit.valid
