"""Benchmark: Figure 6 — Pearson mean/σ over the 24-case suite.

This is the paper's headline table.  At quick scale it takes ~2–3 minutes;
``REPRO_SCALE=paper`` reproduces the original population sizes.
"""

from benchmarks.conftest import run_once
from repro.core.metrics import METRIC_NAMES
from repro.experiments import fig6_aggregate
from repro.experiments.scale import get_scale


def test_fig6_aggregate(benchmark, report):
    result = run_once(benchmark, fig6_aggregate.run, get_scale(None))
    report(result.render())
    report("Heuristics vs random population (per case):")
    report(result.aggregate.heuristic_summary())

    names = list(METRIC_NAMES)
    mean = result.aggregate.mean

    def m(a, b):
        return mean[names.index(a), names.index(b)]

    # Paper Fig. 6 headline values (tolerant reproduction bands):
    assert m("makespan_std", "makespan_entropy") > 0.98   # paper 0.996
    assert m("makespan_std", "lateness") > 0.98           # paper 0.999
    assert m("makespan_std", "abs_prob") > 0.95           # paper 0.982
    assert m("lateness", "abs_prob") > 0.95               # paper 0.981
    assert 0.5 < m("makespan", "makespan_std") < 1.0      # paper 0.767
    assert m("slack_sum", "slack_std") < -0.6             # paper −0.873
    assert m("makespan", "slack_sum") < 0.1               # paper −0.385
    assert abs(m("makespan_std", "rel_prob")) < 0.6       # paper 0.148
    # §VII: oriented R(γ)/E(M) vs σ_M ≈ 0.998.
    assert result.aggregate.rel_mean > 0.9
