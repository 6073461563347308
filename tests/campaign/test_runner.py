"""Campaign execution policy: resume, force, stats."""

import numpy as np
import pytest

from repro.campaign import ArtifactCache, Campaign, CampaignCase
from repro.campaign.backend import _run_case_payload
from repro.experiments.cases import CaseSpec
from repro.io.json_io import case_result_from_json


def _cases(n=3):
    specs = [
        CaseSpec("cholesky", 3, 1.01),
        CaseSpec("random", 10, 1.1),
        CaseSpec("ge", 4, 1.01),
    ]
    return [
        CampaignCase(spec=s, base_seed=11, n_random=6, grid_n=65) for s in specs[:n]
    ]


class TestCampaignPolicy:
    @pytest.mark.fleet
    def test_results_in_case_order(self):
        cases = _cases()
        results = Campaign(cases, jobs=2).run()
        assert [r.name for r in results] == [c.spec.name for c in cases]

    def test_cache_skips_completed_cases(self, tmp_path, monkeypatch):
        cases = _cases()
        cache = ArtifactCache(tmp_path)
        Campaign(cases, cache=cache).run()

        # Any recomputation on the warm run would call CampaignCase.run.
        def boom(self):  # pragma: no cover - the point is it must not run
            raise AssertionError("case recomputed despite valid cache")

        monkeypatch.setattr(CampaignCase, "run", boom)
        campaign = Campaign(cases, cache=cache)
        campaign.run()
        assert campaign.stats.cached == len(cases)
        assert campaign.stats.computed == 0

    def test_resume_after_interruption(self, tmp_path):
        # Simulate an interrupted run: only a prefix of the suite finished.
        cases = _cases()
        cache = ArtifactCache(tmp_path)
        Campaign(cases[:1], cache=cache).run()

        campaign = Campaign(cases, cache=cache)
        results = campaign.run()
        assert campaign.stats.cached == 1
        assert campaign.stats.computed == len(cases) - 1
        assert len(results) == len(cases)

    def test_force_recomputes_and_overwrites(self, tmp_path):
        cases = _cases(1)
        cache = ArtifactCache(tmp_path)
        first = Campaign(cases, cache=cache).run()[0]
        mtime = cache.path_for(cases[0]).stat().st_mtime_ns

        campaign = Campaign(cases, cache=cache, force=True)
        again = campaign.run()[0]
        assert campaign.stats.computed == 1 and campaign.stats.cached == 0
        assert cache.path_for(cases[0]).stat().st_mtime_ns >= mtime
        assert np.array_equal(again.panel.values, first.panel.values)

    @pytest.mark.fleet
    def test_parallel_run_populates_cache(self, tmp_path):
        cases = _cases()
        cache = ArtifactCache(tmp_path)
        Campaign(cases, jobs=3, cache=cache).run()
        assert sorted(p.name for p in cache.root.glob("*.json")) == sorted(
            c.artifact_name for c in cases
        )

    def test_worker_payload_matches_inline_run(self):
        case = _cases(1)[0]
        from_worker = case_result_from_json(_run_case_payload(case.to_dict()))
        inline = case.run()
        assert np.array_equal(from_worker.panel.values, inline.panel.values)

    def test_stats_summary_mentions_counts(self):
        campaign = Campaign(_cases(1))
        campaign.run()
        assert "1 computed" in campaign.stats.summary()

    @pytest.mark.fleet
    def test_worker_failure_propagates_and_keeps_finished_artifacts(
        self, tmp_path
    ):
        from dataclasses import replace

        cases = _cases()
        poisoned = replace(cases[0], heuristics=("no_such_heuristic",))
        cache = ArtifactCache(tmp_path)
        with pytest.raises(KeyError):
            Campaign([poisoned, *cases[1:]], jobs=2, cache=cache).run()
        # Whatever finished before the failure is on disk; a re-run of the
        # healthy cases reuses it and never crashes.
        campaign = Campaign(cases[1:], jobs=2, cache=cache)
        campaign.run()
        assert campaign.stats.cached + campaign.stats.computed == len(cases) - 1
