"""Determinism suite: campaigns replay bit-identically, however executed.

The core guarantee of the campaign layer — ``jobs=1``, ``jobs=4`` and a
cache-warm re-run all produce panels identical to calling
``evaluate_case`` directly with the same integer seed — plus property
tests on the :func:`spawn_generators` child-stream stability that the
fan-out paths rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ArtifactCache, Campaign, CampaignCase, expand_suite
from repro.core.study import evaluate_case
from repro.experiments.cases import CaseSpec, build_workload
from repro.stochastic.model import StochasticModel
from repro.util.rng import spawn_generators

SPECS = [
    CaseSpec("cholesky", 3, 1.01),
    CaseSpec("random", 10, 1.1),
    CaseSpec("ge", 4, 1.1),
]
BASE_SEED = 424242


def _cases(n_random: int = 10) -> list[CampaignCase]:
    return [
        CampaignCase(spec=s, base_seed=BASE_SEED, n_random=n_random, grid_n=65)
        for s in SPECS
    ]


def _direct_results(cases):
    """The ground truth: evaluate_case called directly, serially."""
    out = []
    for case in cases:
        workload = build_workload(case.spec, base_seed=case.base_seed)
        model = StochasticModel(ul=case.spec.ul, grid_n=case.grid_n)
        out.append(
            evaluate_case(
                workload,
                model,
                n_random=case.n_random,
                rng=case.rng_seed,
                name=case.spec.name,
            )
        )
    return out


def assert_results_equal(a, b):
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert ra.panel.labels == rb.panel.labels
        assert np.array_equal(ra.panel.values, rb.panel.values)
        assert np.array_equal(ra.pearson, rb.pearson, equal_nan=True)
        assert sorted(ra.heuristic_metrics) == sorted(rb.heuristic_metrics)
        for name in ra.heuristic_metrics:
            assert np.array_equal(
                ra.heuristic_metrics[name].as_array(),
                rb.heuristic_metrics[name].as_array(),
            )


class TestCampaignDeterminism:
    def test_jobs1_matches_direct_evaluate_case(self):
        cases = _cases()
        assert_results_equal(Campaign(cases, jobs=1).run(), _direct_results(cases))

    @pytest.mark.fleet
    def test_jobs4_matches_direct_evaluate_case(self):
        cases = _cases()
        assert_results_equal(Campaign(cases, jobs=4).run(), _direct_results(cases))

    @pytest.mark.fleet
    def test_cache_warm_rerun_matches_direct_evaluate_case(self, tmp_path):
        cases = _cases()
        cache = ArtifactCache(tmp_path / "artifacts")
        cold = Campaign(cases, jobs=2, cache=cache).run()
        warm_campaign = Campaign(cases, jobs=1, cache=cache)
        warm = warm_campaign.run()
        assert warm_campaign.stats.cached == len(cases)
        assert warm_campaign.stats.computed == 0
        direct = _direct_results(cases)
        assert_results_equal(cold, direct)
        assert_results_equal(warm, direct)

    @pytest.mark.fleet
    def test_repeated_runs_identical(self):
        cases = _cases()
        assert_results_equal(Campaign(cases, jobs=2).run(), Campaign(cases, jobs=3).run())

    def test_expand_suite_matches_manual_cases(self):
        from repro.experiments.scale import Scale

        tiny = Scale("tiny", 10, 6, 4, 1000, 65, (10,), 10)
        expanded = expand_suite(SPECS, tiny, base_seed=BASE_SEED)
        assert [c.spec for c in expanded] == SPECS
        assert all(c.n_random == tiny.n_random(c.spec.n_tasks) for c in expanded)
        assert all(c.rng_seed == c.spec.seed(BASE_SEED) + 1 for c in expanded)


class TestSpawnGeneratorsStability:
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_child_streams_stable_across_runs(self, seed, n):
        a = spawn_generators(seed, n)
        b = spawn_generators(seed, n)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.random(16), gb.random(16))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_children_are_pairwise_distinct(self, seed):
        draws = [g.random(8) for g in spawn_generators(seed, 4)]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_prefix_stability(self):
        # The first k children do not depend on how many siblings follow.
        a = spawn_generators(99, 2)
        b = spawn_generators(99, 6)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.random(16), gb.random(16))


class TestCampaignCaseKey:
    def test_dict_round_trip_preserves_key(self):
        case = _cases()[0]
        clone = CampaignCase.from_dict(case.to_dict())
        assert clone == case
        assert clone.key == case.key

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_key_is_pure_function_of_fields(self, seed):
        spec = CaseSpec("random", 10, 1.1)
        a = CampaignCase(spec=spec, base_seed=seed)
        b = CampaignCase(spec=spec, base_seed=seed)
        assert a.key == b.key

    @pytest.mark.parametrize(
        "change",
        [
            {"base_seed": BASE_SEED + 1},
            {"n_random": 11},
            {"grid_n": 129},
            {"method": "spelde"},
            {"heuristics": ("heft",)},
            {"gamma": 1.01},
            {"mc_batch": True},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        base = _cases()[0]
        from dataclasses import replace

        assert replace(base, **change).key != base.key
