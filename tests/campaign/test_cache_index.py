"""The persistent cache index: O(1) lookups, degradation, audit, rebuild.

The index is strictly advisory — these tests pin the contract that makes
that safe: lookups through the index never scan the directory (the
``scans`` counter is the service's O(1) assertion), a missing/corrupt/
stale index degrades to a direct probe and self-repairs, generations
only grow, and ``verify`` cross-checks index ↔ directory both ways.
"""

import dataclasses
import os
import pickle

import pytest

from repro.campaign import ArtifactCache, CacheIndex, CampaignCase
from repro.campaign.cache import INDEX_FILENAME, MEMO_BYTES, LRUMemo
from repro.experiments.cases import CaseSpec
from repro.experiments.cli import main
from repro.io.json_io import payload_digest


@pytest.fixture(scope="module")
def case() -> CampaignCase:
    return CampaignCase(
        spec=CaseSpec("cholesky", 3, 1.1), base_seed=7, n_random=5
    )


@pytest.fixture(scope="module")
def result(case):
    return case.run()


@pytest.fixture
def warm(tmp_path, case, result) -> ArtifactCache:
    """A cache directory holding one stored artifact (and its index)."""
    cache = ArtifactCache(tmp_path / "cache")
    cache.store(case, result)
    return cache


class TestIndexMaintenance:
    def test_store_indexes_the_artifact(self, warm, case):
        index = warm.read_index()
        assert index is not None
        assert index.generation >= 1
        entry = index.entries[case.key]
        assert entry["file"] == case.artifact_name

    def test_lookup_hits_via_index_with_zero_scans(
        self, warm, case, result
    ):
        reader = ArtifactCache(warm.root)  # fresh stats
        loaded = reader.lookup(case)
        assert loaded is not None and loaded.name == result.name
        assert reader.stats.index_hits == 1
        assert reader.stats.index_fallbacks == 0
        assert reader.stats.scans == 0

    def test_missing_index_falls_back_and_repairs(self, warm, case):
        warm.index_path.unlink()
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        assert reader.stats.index_fallbacks == 1
        # the fallback repaired the entry: next lookup is index-resolved
        assert reader.lookup(case) is not None
        assert reader.stats.index_hits == 1
        assert reader.stats.scans == 0

    def test_generations_only_grow(self, tmp_path, case, result):
        cache = ArtifactCache(tmp_path / "c")
        gens = []
        for seed in (1, 2, 3):
            variant = CampaignCase(
                spec=case.spec, base_seed=seed, n_random=5
            )
            cache.store(variant, result)
            gens.append(cache.read_index().generation)
        assert gens == sorted(gens) and len(set(gens)) == len(gens)

    def test_current_index_is_cached_against_file_signature(self, warm):
        first = warm.current_index()
        assert warm.current_index() is first  # same file → same snapshot
        warm.write_index(CacheIndex(generation=99, entries={}))
        assert warm.current_index().generation == 99


class TestIndexDegradation:
    @pytest.mark.parametrize(
        "corruption",
        ["garbage {{{", "", '{"format": "something-else"}'],
        ids=["garbage", "empty", "wrong-format"],
    )
    def test_corrupt_index_degrades_to_probe(
        self, warm, case, corruption
    ):
        warm.index_path.write_text(corruption)
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None  # never an error
        assert reader.stats.index_corrupt >= 1
        assert reader.stats.index_fallbacks == 1

    def test_truncated_index_degrades_to_probe(self, warm, case):
        data = warm.index_path.read_bytes()
        warm.index_path.write_bytes(data[: len(data) // 2])
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        assert reader.stats.index_corrupt >= 1

    def test_rebuild_recovers_from_corruption(self, warm, case):
        warm.index_path.write_text("garbage")
        rebuilt = warm.rebuild_index()
        assert case.key in rebuilt.entries
        assert warm.read_index().entries == rebuilt.entries
        assert warm.stats.index_rebuilds == 1
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        assert reader.stats.index_hits == 1

    def test_rebuild_skips_corrupt_artifacts(self, warm, case):
        (warm.root / "broken-000000000000.json").write_text("not json")
        rebuilt = warm.rebuild_index()
        assert list(rebuilt.entries) == [case.key]

    def test_lying_index_entry_cannot_produce_wrong_answer(
        self, warm, case
    ):
        # Point the entry at the right key but corrupt the artifact:
        # lookup re-validates content, so it reports a miss, not garbage.
        warm.path_for(case).write_text("{torn")
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is None
        assert reader.stats.corrupt == 1


class TestVerifyIndexAudit:
    def test_consistent_cache_audits_clean(self, warm):
        audit = warm.verify()
        assert audit.ok
        assert audit.index_consistent
        assert audit.index_generation == warm.read_index().generation
        assert "index gen" in audit.summary()

    def test_stale_entry_and_unindexed_artifact_reported(
        self, warm, case
    ):
        index = warm.read_index()
        doctored = dict(index.entries)
        del doctored[case.key]  # the artifact becomes unindexed
        doctored["f" * 64] = {"file": "nope.json", "sha256": "0" * 64}
        warm.write_index(
            CacheIndex(generation=index.generation + 1, entries=doctored)
        )
        audit = warm.verify()
        assert audit.ok  # index problems are not corruption
        assert not audit.index_consistent
        assert [key for key, _ in audit.index_stale] == ["f" * 64]
        assert [p.name for p in audit.unindexed] == [case.artifact_name]

    def test_digest_divergence_reported(self, warm, case):
        index = warm.read_index()
        entries = dict(index.entries)
        entries[case.key] = {**entries[case.key], "sha256": "0" * 64}
        warm.write_index(
            CacheIndex(generation=index.generation + 1, entries=entries)
        )
        audit = warm.verify()
        assert [(k, r) for k, r in audit.index_stale] == [
            (case.key, "result digest diverged")
        ]

    def test_missing_index_is_not_a_defect(self, warm):
        warm.index_path.unlink()
        audit = warm.verify()
        assert audit.ok
        assert audit.index_generation is None
        assert "no index" in audit.summary()


class TestVerifyCacheCli:
    def test_cli_reports_index_audit(self, warm, case, capsys):
        index = warm.read_index()
        warm.write_index(
            CacheIndex(
                generation=index.generation + 1,
                entries={"a" * 64: {"file": "gone.json", "sha256": "0" * 64}},
            )
        )
        code = main(
            ["campaign", "verify-cache", "--cache-dir", str(warm.root)]
        )
        out = capsys.readouterr().out
        assert code == 0  # advisory: not corruption
        assert "index-stale" in out
        assert "unindexed" in out

    def test_cli_rebuild_index_repairs(self, warm, case, capsys):
        warm.index_path.write_text("garbage")
        code = main(
            [
                "campaign",
                "verify-cache",
                "--cache-dir",
                str(warm.root),
                "--rebuild-index",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "index rebuilt" in out
        audit = ArtifactCache(warm.root).verify()
        assert audit.index_consistent

    def test_index_file_invisible_to_artifact_scans(self, warm, case):
        # The .index suffix keeps it out of *.json artifact handling:
        # verify must not flag it, iter_results must not parse it.
        audit = warm.verify()
        assert all(p.name != INDEX_FILENAME for p in audit.valid)
        assert all(p.name != INDEX_FILENAME for p, _ in audit.corrupt)
        names = [c.name for _, c, _ in warm.iter_results()]
        assert names == [case.name]


class TestLookupMemo:
    """Repeat lookups of unchanged bytes return what the full check decoded."""

    def test_repeat_lookup_returns_the_remembered_read_only_result(
        self, warm, case
    ):
        reader = ArtifactCache(warm.root)
        first = reader.lookup(case)
        assert reader.lookup(case) is first
        assert not first.panel.values.flags.writeable
        assert not first.pearson.flags.writeable
        with pytest.raises(ValueError):
            first.panel.values[0, 0] = 0.0
        # a remembered hit still counts as an index-resolved hit
        assert reader.stats.hits == reader.stats.index_hits == 2
        assert reader.stats.scans == 0

    def test_restored_result_replaces_the_remembered_one(
        self, warm, case, result
    ):
        reader = ArtifactCache(warm.root)
        first = reader.lookup(case)
        warm.store(case, dataclasses.replace(result, name="restored"))
        again = reader.lookup(case)
        assert again is not first
        assert again.name == "restored"

    def test_flipped_byte_under_same_size_and_mtime_is_a_miss(
        self, warm, case
    ):
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        path = warm.path_for(case)
        before = path.stat()
        data = bytearray(path.read_bytes())
        at = data.index(b'"values": [[') + len(b'"values": [[')
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("1") if data[at] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            before.st_size,
            before.st_mtime_ns,
            before.st_ino,
        )
        assert reader.lookup(case) is None
        assert reader.stats.corrupt == 1
        assert len(reader.memo) == 0

    def test_undecodable_bytes_are_corrupt_not_an_error(self, warm, case):
        path = warm.path_for(case)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(data))
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is None
        assert reader.stats.corrupt == 1

    def test_deleted_artifact_is_a_miss(self, warm, case):
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        warm.path_for(case).unlink()
        assert reader.lookup(case) is None
        assert reader.stats.misses == 1
        assert len(reader.memo) == 0 and reader.memo.nbytes == 0

    def test_fallback_repairs_the_index_with_the_checked_digest(
        self, warm, case
    ):
        digest = warm.read_index().entries[case.key]["sha256"]
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        warm.index_path.unlink()
        assert reader.lookup(case) is not None  # remembered, then repaired
        assert reader.stats.index_fallbacks == 1
        assert warm.read_index().entries[case.key]["sha256"] == digest

    def test_remembering_past_the_bound_evicts_the_least_recent(
        self, tmp_path, case, result
    ):
        cases = [dataclasses.replace(case, base_seed=s) for s in (1, 2, 3)]
        writer = ArtifactCache(tmp_path / "c")
        for c in cases:
            writer.store(c, result)
        probe = ArtifactCache(writer.root)
        probe.lookup(cases[0])
        one = probe.memo.nbytes
        reader = ArtifactCache(writer.root)
        reader.memo = LRUMemo(max_bytes=one * 5 // 2)
        firsts = [reader.lookup(c) for c in cases]
        assert len(reader.memo) == 2
        assert reader.memo.nbytes <= reader.memo.max_bytes
        assert reader.lookup(cases[2]) is firsts[2]
        assert reader.lookup(cases[0]) is not firsts[0]  # was evicted
        assert reader.lookup(cases[1]) is not firsts[1]  # evicted by case 0

    def test_remembered_bytes_never_exceed_the_constant(self):
        memo = LRUMemo()
        assert memo.max_bytes == MEMO_BYTES
        for i in range(10):
            memo.put(i, object(), MEMO_BYTES // 3 + 1)
            assert memo.nbytes <= MEMO_BYTES
        assert len(memo) == 2
        memo.put("too big", object(), MEMO_BYTES + 1)
        assert memo.get("too big") is None
        assert memo.nbytes <= MEMO_BYTES

    def test_load_and_iter_results_remember_nothing(
        self, tmp_path, case, result
    ):
        cases = [dataclasses.replace(case, base_seed=s) for s in (1, 2, 3)]
        cache = ArtifactCache(tmp_path / "c")
        for c in cases:
            cache.store(c, result)
        assert all(cache.load(c) is not None for c in cases)
        assert len(list(cache.iter_results(cases))) == 3
        assert len(list(cache.iter_results())) == 3
        assert len(cache.memo) == 0 and cache.memo.nbytes == 0


class TestCaseKey:
    def test_key_is_the_digest_of_the_fields_however_built(self, case):
        fresh = CampaignCase(spec=case.spec, base_seed=7, n_random=5)
        unkeyed = pickle.loads(pickle.dumps(fresh))
        assert case.key  # computed, so the pickle carries it
        keyed = pickle.loads(pickle.dumps(case))
        replaced = dataclasses.replace(case, n_random=6)
        rebuilt = CampaignCase.from_dict(replaced.to_dict())
        for c in (fresh, unkeyed, keyed, replaced, rebuilt):
            assert c.key == payload_digest(c.to_dict())
        assert replaced.key != case.key
        assert keyed == case and hash(keyed) == hash(case)
