"""Point lookups: the artifact path is the only index.

These tests pin the read contract every cache reader shares: lookups
never scan the directory (the ``scans`` counter is the service's O(1)
assertion), every read is fully checked unless its bytes equal bytes
already checked, one bit-rotted artifact is a counted miss that the
campaign recomputes (never a crash), and a ``cache.index`` file left by an
older version changes nothing.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.campaign import (
    ArtifactCache,
    Campaign,
    CampaignCase,
    partition_cases,
    run_shard,
)
from repro.campaign.cache import MEMO_BYTES, CacheStats, LRUMemo
from repro.experiments.cases import CaseSpec
from repro.experiments.cli import main
from repro.io.json_io import case_result_to_json, payload_digest


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
    """A cache directory holding one stored artifact."""
    cache = ArtifactCache(tmp_path / "cache")
    cache.store(case, result)
    return cache


def bit_rot(path) -> None:
    """Write one byte that is never valid UTF-8 into the middle of ``path``."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))


def edit_envelope(edit, redigest=False):
    """A defect that rewrites the artifact's envelope in place with ``edit``.

    With ``redigest`` the recorded digest is recomputed over the edited
    result, so only the payload check can catch the defect.
    """

    def apply(path) -> None:
        envelope = json.loads(path.read_text())
        edit(envelope)
        if redigest:
            envelope["sha256"] = payload_digest(envelope["result"])
        path.write_text(json.dumps(envelope))

    return apply


def _bump_first_value(envelope) -> None:
    envelope["result"]["panel"]["values"][0][0] += 1.0


#: Each way an artifact's bytes can fail the one check (bit rot has its
#: own regression tests in :class:`TestBitRot`).
DEFECTS = {
    "empty": lambda path: path.write_bytes(b""),
    "truncated": lambda path: path.write_bytes(
        path.read_bytes()[: path.stat().st_size // 2]
    ),
    "not-an-object": lambda path: path.write_text("[]"),
    "wrong-format": edit_envelope(
        lambda e: e.update(format="repro-campaign-v0")
    ),
    "no-case": edit_envelope(lambda e: e.pop("case")),
    "case-not-an-object": edit_envelope(lambda e: e.update(case=3)),
    "case-edited": edit_envelope(lambda e: e["case"].update(n_random=6)),
    "no-digest": edit_envelope(lambda e: e.pop("sha256")),
    "value-edited": edit_envelope(_bump_first_value),
    "result-not-an-object": edit_envelope(
        lambda e: e.update(result=[]), redigest=True
    ),
    "result-of-another-kind": edit_envelope(
        lambda e: e["result"].update(kind="suite"), redigest=True
    ),
    "heuristics-not-an-object": edit_envelope(
        lambda e: e["result"].update(heuristics=[]), redigest=True
    ),
    "heuristic-row-short": edit_envelope(
        lambda e: e["result"]["heuristics"].update(heft=[1.0]), redigest=True
    ),
    "ragged-panel": edit_envelope(
        lambda e: e["result"]["panel"]["values"].append([1.0]), redigest=True
    ),
    "pearson-not-8x8": edit_envelope(
        lambda e: e["result"].update(pearson=[1.0]), redigest=True
    ),
}


class TestPointLookup:
    def test_lookup_reads_the_path_with_zero_scans(self, warm, case, result):
        reader = ArtifactCache(warm.root)  # fresh stats
        loaded = reader.lookup(case)
        assert loaded is not None and loaded.name == result.name
        assert reader.has(case)
        assert (reader.stats.hits, reader.stats.misses) == (1, 0)
        assert reader.stats.scans == 0

    def test_has_probes_the_path_and_counts_nothing(self, warm, case):
        reader = ArtifactCache(warm.root)
        assert reader.has(case)
        assert not reader.has(dataclasses.replace(case, base_seed=8))
        assert not ArtifactCache(warm.root / "never-created").has(case)
        assert reader.stats == CacheStats()
        assert len(reader.memo) == 0

    def test_torn_artifact_is_a_miss_not_garbage(self, warm, case):
        warm.path_for(case).write_text("{torn")
        reader = ArtifactCache(warm.root)
        assert reader.has(case)  # existence only; reads check content
        assert reader.lookup(case) is None
        assert reader.stats.corrupt == 1

    def test_artifact_of_another_case_is_corrupt(self, warm, case):
        other = dataclasses.replace(case, base_seed=8)
        os.replace(warm.path_for(case), warm.path_for(other))
        reader = ArtifactCache(warm.root)
        assert reader.lookup(other) is None
        assert reader.load(other) is None
        assert reader.stats.corrupt == 2


class TestBitRot:
    """One undecodable byte is a counted miss for every reader, never a crash."""

    def test_every_reader_counts_it_corrupt(self, warm, case):
        bit_rot(warm.path_for(case))
        for read in (
            lambda c: c.load(case),
            lambda c: c.lookup(case),
            lambda c: next(iter(c.iter_results([case])), None),
        ):
            reader = ArtifactCache(warm.root)
            assert read(reader) is None
            assert (reader.stats.corrupt, reader.stats.misses) == (1, 1)
        audit = ArtifactCache(warm.root).verify()
        assert [p.name for p, _ in audit.corrupt] == [case.artifact_name]

    def test_campaign_recomputes_and_restores_it(self, warm, case, result):
        bit_rot(warm.path_for(case))
        cache = ArtifactCache(warm.root)
        (rerun,) = Campaign([case], cache=cache).run()
        assert case_result_to_json(rerun) == case_result_to_json(result)
        assert (cache.stats.stores, cache.stats.corrupt) == (1, 1)
        assert cache.verify().ok
        assert ArtifactCache(warm.root).load(case) is not None

    def test_iter_results_skips_it(self, tmp_path, case, result):
        cases = [dataclasses.replace(case, base_seed=s) for s in (1, 2, 3)]
        cache = ArtifactCache(tmp_path / "c")
        for c in cases:
            cache.store(c, result)
        bit_rot(cache.path_for(cases[1]))
        read = ArtifactCache(cache.root)
        assert [i for i, _, _ in read.iter_results(cases)] == [0, 2]
        assert read.stats.corrupt == 1

    def test_run_shard_counts_it_corrupt_and_recomputes(self, warm, case):
        bit_rot(warm.path_for(case))
        (manifest,) = [
            m for m in partition_cases([(0, case)], 1) if m.cases
        ]
        cache = ArtifactCache(warm.root)
        partial = run_shard(manifest, cache)
        assert (partial.computed, partial.cached) == (1, 0)
        assert cache.stats.corrupt == 1
        assert [c.index for c in partial.contributions] == [0]
        assert cache.verify().ok


@pytest.mark.parametrize("defect", sorted(DEFECTS))
class TestOneCheck:
    """Every defect fails ``load``, ``lookup``, ``iter_results`` and
    ``verify`` alike, and a campaign heals it, never crashing."""

    def test_every_reader_counts_it_corrupt(self, warm, case, defect):
        DEFECTS[defect](warm.path_for(case))
        for read in (
            lambda c: c.load(case),
            lambda c: c.lookup(case),
            lambda c: next(iter(c.iter_results([case])), None),
        ):
            reader = ArtifactCache(warm.root)
            assert read(reader) is None
            assert (reader.stats.hits, reader.stats.misses) == (0, 1)
            assert reader.stats.corrupt == 1
            assert reader.has(case)
            assert len(reader.memo) == 0
        audit = ArtifactCache(warm.root).verify()
        assert [p.name for p, _ in audit.corrupt] == [case.artifact_name]
        assert all(reason for _, reason in audit.corrupt)
        assert audit.valid == [] and audit.orphans == []

    def test_campaign_recomputes_and_restores_it(self, warm, case, defect):
        path = warm.path_for(case)
        stored = path.read_bytes()
        DEFECTS[defect](path)
        cache = ArtifactCache(warm.root)
        Campaign([case], cache=cache).run()
        assert (cache.stats.stores, cache.stats.corrupt) == (1, 1)
        assert path.read_bytes() == stored


@pytest.fixture(params=["none", "stale", "torn"])
def old_cache(request, tmp_path, case, result) -> ArtifactCache:
    """A cache directory as an older version may have left it.

    Older versions kept a ``cache.index`` file beside the artifacts.  It
    is not an artifact, so nothing reads it: a stale or torn one must
    behave exactly like none.
    """
    cache = ArtifactCache(tmp_path / "cache")
    cache.store(case, result)
    index = cache.root / "cache.index"
    if request.param == "stale":
        index.write_text(
            '{"entries": {"%s": {"file": "gone.json", "sha256": "%s"}}, '
            '"format": "repro-cache-index-v1", "generation": 3}'
            % ("f" * 64, "0" * 64)
        )
    elif request.param == "torn":
        index.write_text('{"entries": {"%s": {"fi' % case.key)
    return ArtifactCache(cache.root)


class TestOldCaches:
    def test_reads_are_unaffected(self, old_cache, case, result):
        reference = case_result_to_json(result)
        assert old_cache.has(case)
        assert case_result_to_json(old_cache.lookup(case)) == reference
        assert case_result_to_json(old_cache.load(case)) == reference
        ((index, read_case, read),) = old_cache.iter_results([case])
        assert (index, read_case) == (0, case)
        assert case_result_to_json(read) == reference
        assert old_cache.stats.corrupt == 0
        assert old_cache.stats.scans == 0

    def test_verify_is_clean_and_ignores_the_file(self, old_cache, case):
        audit = old_cache.verify()
        assert audit.ok
        assert audit.summary() == "1 valid, 0 corrupt, 0 orphan, 0 stale temp files"
        assert [p.name for p in audit.valid] == [case.artifact_name]

    def test_verify_cache_cli_is_clean(self, old_cache, capsys):
        code = main(
            ["campaign", "verify-cache", "--cache-dir", str(old_cache.root)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 valid, 0 corrupt" in out
        assert "cache.index" not in out


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
        assert reader.stats.hits == 2
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

    def test_deleted_artifact_is_a_miss(self, warm, case):
        reader = ArtifactCache(warm.root)
        assert reader.lookup(case) is not None
        warm.path_for(case).unlink()
        assert reader.lookup(case) is None
        assert reader.stats.misses == 1
        assert len(reader.memo) == 0 and reader.memo.nbytes == 0

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
