"""Artifact cache: round-trips, corruption detection, atomic writes."""

import json

import numpy as np
import pytest

from repro.campaign import ArtifactCache, Campaign, CampaignCase
from repro.experiments.cases import CaseSpec
from repro.io.json_io import case_result_from_json, case_result_to_json


@pytest.fixture
def case() -> CampaignCase:
    return CampaignCase(spec=CaseSpec("cholesky", 3, 1.1), base_seed=7, n_random=5)


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "artifacts")


class TestCaseResultJson:
    def test_round_trip_is_bit_exact(self, case):
        result = case.run()
        clone = case_result_from_json(case_result_to_json(result))
        assert clone.name == result.name
        assert clone.panel.labels == result.panel.labels
        assert np.array_equal(clone.panel.values, result.panel.values)
        assert np.array_equal(clone.pearson, result.pearson, equal_nan=True)
        for name, hm in result.heuristic_metrics.items():
            assert np.array_equal(
                clone.heuristic_metrics[name].as_array(), hm.as_array()
            )

    def test_non_finite_values_survive(self, case):
        # Entropy of a deterministic makespan is −∞; NaNs appear in sparse
        # Pearson matrices.  Both must round-trip.
        result = case.run()
        doctored = case_result_to_json(result).replace(
            json.dumps(float(result.pearson[0, 1])), "NaN", 1
        )
        clone = case_result_from_json(doctored)
        assert np.isnan(clone.pearson[0, 1])

    def test_wrong_kind_rejected(self, case):
        text = case_result_to_json(case.run()).replace("case_result", "banana")
        with pytest.raises(ValueError):
            case_result_from_json(text)


class TestArtifactCache:
    def test_miss_then_hit(self, cache, case):
        assert cache.load(case) is None
        result = case.run()
        path = cache.store(case, result)
        assert path.exists()
        loaded = cache.load(case)
        assert loaded is not None
        assert np.array_equal(loaded.panel.values, result.panel.values)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_artifact_name_is_greppable(self, cache, case):
        assert cache.path_for(case).name.startswith(case.spec.name)

    def test_truncated_artifact_is_a_miss(self, cache, case):
        path = cache.store(case, case.run())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(case) is None
        assert cache.stats.corrupt == 1

    def test_garbage_artifact_is_a_miss(self, cache, case):
        path = cache.store(case, case.run())
        path.write_text("not json at all {{{")
        assert cache.load(case) is None
        assert cache.stats.corrupt == 1

    def test_bit_rot_detected_by_digest(self, cache, case):
        # Valid JSON, valid envelope — but one metric value silently
        # altered.  Only the content digest can catch this.
        path = cache.store(case, case.run())
        envelope = json.loads(path.read_text())
        envelope["result"]["panel"]["values"][0][0] += 1.0
        path.write_text(json.dumps(envelope))
        assert cache.load(case) is None
        assert cache.stats.corrupt == 1

    def test_key_mismatch_is_a_miss(self, cache, case):
        # An artifact stored under this path but for different parameters
        # (e.g. a manually renamed file) must not be trusted.
        from dataclasses import replace

        other = replace(case, n_random=9)
        path_other = cache.store(other, other.run())
        path_other.rename(cache.path_for(case))
        assert cache.load(case) is None

    def test_no_tmp_files_left_behind(self, cache, case):
        cache.store(case, case.run())
        assert [p.name for p in cache.root.iterdir() if ".tmp." in p.name] == []


class TestCorruptArtifactRecovery:
    def test_campaign_recomputes_corrupt_artifact(self, cache, case):
        """Regression: a corrupt cache file must be recomputed, not crash."""
        first = Campaign([case], cache=cache).run()[0]
        path = cache.path_for(case)
        path.write_text(path.read_text()[:40])  # truncate mid-envelope

        second = ArtifactCache(cache.root)
        again = Campaign([case], cache=second).run()[0]
        assert (second.stats.stores, second.stats.corrupt) == (1, 1)
        assert np.array_equal(again.panel.values, first.panel.values)
        # The artifact was healed on disk: a third run is cache-only.
        third = ArtifactCache(cache.root)
        Campaign([case], cache=third).run()
        assert (third.stats.hits, third.stats.stores) == (1, 0)
