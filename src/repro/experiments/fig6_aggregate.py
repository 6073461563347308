"""Figure 6 — mean and σ of the Pearson matrices over the 24-case suite.

The paper's summary figure: element-wise average (upper triangle) and
standard deviation (lower triangle) of the 8×8 Pearson matrices over the 24
cases with ≤ 100 nodes.  The headline reading:

* σ_M, entropy, lateness and A(δ) are mutually correlated ≈ 1 with tiny σ;
* E(M) correlates strongly (≈ 0.77) but imperfectly with that block;
* slack anti-correlates with everything (it is *not* a robustness proxy);
* raw R(γ) correlates weakly, but R(γ)/E(M) correlates ≈ 0.998 with σ_M.

Both the campaign runner (:func:`run`) and the cache summarizer
(:func:`aggregate_from_cache`) reduce case results through the same
streaming :class:`~repro.campaign.aggregate.SuiteAggregator` in the same
case order, so their matrices and §VII statistic are **bit-identical** —
and neither ever holds more than one case panel in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign import (
    ArtifactCache,
    Campaign,
    CampaignCase,
    ExecutionBackend,
    SuiteAggregate,
    SuiteAggregator,
    expand_suite,
)
from repro.experiments.cases import CaseSpec, default_suite
from repro.experiments.scale import Scale, get_scale
from repro.core.metrics import METRIC_NAMES
from repro.util.tables import format_matrix, format_table

__all__ = ["Fig6Result", "run", "aggregate_from_cache"]


@dataclass(frozen=True)
class Fig6Result:
    """Aggregated Pearson statistics over the case suite.

    The summary statistics are folded case by case and the raw panels are
    dropped, so memory stays O(1) in the suite size.  ``n_cases`` counts
    the cases actually aggregated — it can be smaller than ``len(specs)``
    when summarizing the cache of an interrupted sweep, in which case the
    statistics are the exact aggregate of the completed cases.
    """

    specs: tuple[CaseSpec, ...]
    mean: np.ndarray
    std: np.ndarray
    rel_over_m_vs_std_mean: float
    rel_over_m_vs_std_std: float
    n_cases: int
    heuristic_rows: tuple[tuple[str, str, float, float, float, float], ...]
    case_rows: tuple[tuple[str, float, float], ...] = ()

    def render(self) -> str:
        """Figure 6 as a combined mean/σ matrix plus the §VII statistic."""
        suffix = "" if self.n_cases == len(self.specs) else (
            f" (partial: {self.n_cases}/{len(self.specs)} cases)"
        )
        lines = [
            f"Fig. 6 — Pearson coefficients over {self.n_cases} cases "
            f"(upper: mean, lower: std. dev.){suffix}",
            format_matrix(self.mean, list(METRIC_NAMES), lower=self.std),
            "",
            "§VII derived metric: corr( R(γ)/E(M), σ_M ) = "
            f"{self.rel_over_m_vs_std_mean:+.3f} ± {self.rel_over_m_vs_std_std:.3f} "
            "(paper: 0.998 ± 0.009)",
        ]
        if self.case_rows:
            lines += [
                "",
                "Per-case percentile column (P²-streamed over the random "
                "population):",
                self.percentile_summary(),
            ]
        return "\n".join(lines)

    def suite_aggregate(self) -> SuiteAggregate:
        """This result's statistics as a :class:`SuiteAggregate`.

        The canonical cross-backend comparison form: the CLI's ``--json``
        output dumps it, and CI byte-compares it between a single-process
        run and a shard/worker/merge round trip.
        """
        return SuiteAggregate(
            n_cases=self.n_cases,
            mean=self.mean,
            std=self.std,
            rel_mean=self.rel_over_m_vs_std_mean,
            rel_std=self.rel_over_m_vs_std_std,
            heuristic_rows=self.heuristic_rows,
            case_rows=self.case_rows,
        )

    def percentile_summary(self) -> str:
        """Per-case percentile column: streamed p50/p95 random makespan.

        The ROADMAP follow-up column — the median and 95th percentile of
        each case's random-schedule expected makespans, estimated by the
        O(1)-memory :class:`~repro.analysis.streaming.P2Quantile` during
        aggregation (no panels required).
        """
        rows = [
            (name, f"{p50:.1f}", f"{p95:.1f}") for name, p50, p95 in self.case_rows
        ]
        return format_table(["case", "p50(M)", "p95(M)"], rows)

    def heuristic_summary(self) -> str:
        """How often each heuristic beats the random population (per case).

        Computed from the per-case summary rows folded during aggregation
        (no panels required).
        """
        return format_table(
            ["case", "heuristic", "makespan", "frac rand better (M)",
             "σ_M", "frac rand better (σ)"],
            list(self.heuristic_rows),
        )


def _result_from_aggregate(
    specs: list[CaseSpec], aggregator: SuiteAggregator
) -> Fig6Result:
    agg = aggregator.finalize()
    return Fig6Result(
        specs=tuple(specs),
        mean=agg.mean,
        std=agg.std,
        rel_over_m_vs_std_mean=agg.rel_mean,
        rel_over_m_vs_std_std=agg.rel_std,
        n_cases=agg.n_cases,
        heuristic_rows=agg.heuristic_rows,
        case_rows=agg.case_rows,
    )


def run(
    scale: Scale | str | None = None,
    seed: int = 20070913,
    specs: list[CaseSpec] | None = None,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    force: bool = False,
    backend: ExecutionBackend | None = None,
    fast_conv: bool = False,
) -> Fig6Result:
    """Run the case suite and aggregate the Pearson matrices.

    The suite is expanded into a campaign and dispatched through any
    :class:`~repro.campaign.backend.ExecutionBackend` — ``backend=None``
    keeps the historical policy (``jobs`` worker processes, or inline for
    ``jobs=1``).  Results are bit-identical across backends because each
    case's RNG stream is derived from its own spec; with ``cache`` set,
    completed cases are reused across runs.  Results are consumed from the
    runner's as-completed stream and folded into a
    :class:`~repro.campaign.aggregate.SuiteAggregator` in case order, so
    the aggregate does not depend on completion order; each raw
    :class:`~repro.core.study.CaseResult` is dropped as soon as it is
    folded — O(1) memory in the suite size.

    ``fast_conv=True`` runs the suite under the fast grid-algebra
    precision policy (classical/Dodin only); its cases hash to different
    artifact keys, so fast and exact caches never collide.
    """
    scale = get_scale(scale)
    if specs is None:
        specs = default_suite()
    campaign = Campaign(
        expand_suite(specs, scale, base_seed=seed, fast_conv=fast_conv),
        jobs=jobs,
        cache=cache,
        force=force,
        backend=backend,
    )
    aggregator = SuiteAggregator()
    for index, case, result in campaign.iter_results():
        aggregator.add_case(index, case, result)
    return _result_from_aggregate(specs, aggregator)


def aggregate_from_cache(
    scale: Scale | str | None = None,
    seed: int = 20070913,
    specs: list[CaseSpec] | None = None,
    cache: ArtifactCache | None = None,
    fast_conv: bool = False,
    cases: "list[CampaignCase] | None" = None,
) -> Fig6Result:
    """Summarize an existing campaign cache — no case is ever recomputed.

    Expands the same suite as :func:`run` (same scale, same seed, hence the
    same artifact keys), streams each case's artifact through the same
    aggregator in the same order, and drops it — peak memory is one panel.
    On a complete cache the result is bit-identical to :func:`run`; on the
    cache of an interrupted sweep the aggregate is exact for the cases that
    completed (``n_cases`` reports how many), and missing cases are simply
    skipped.

    With ``cases`` given (e.g. a :meth:`repro.caseset.CaseSet.cases`
    expansion), the suite-expansion step is bypassed and the fold runs
    over exactly that ordered case list — this is the oracle the sweep
    engine's streamed aggregate must match byte for byte.

    Raises :class:`ValueError` when the cache holds no artifact of the
    suite at all.
    """
    if cache is None:
        raise ValueError("aggregate_from_cache requires an artifact cache")
    scale = get_scale(scale)
    if specs is None:
        specs = default_suite()
    if cases is None:
        cases = expand_suite(specs, scale, base_seed=seed, fast_conv=fast_conv)
    # Cache iteration visits cases in case order, so immediate folding
    # (ordered=False) follows the same canonical fold sequence as `run` —
    # while tolerating holes left by interrupted sweeps.
    aggregator = SuiteAggregator(ordered=False)
    for index, case, result in cache.iter_results(cases):
        aggregator.add_case(index, case, result)
    if aggregator.n_cases == 0:
        raise ValueError(
            f"no artifacts of this suite (scale={scale.name}, seed={seed}) "
            f"found in {cache.root}"
        )
    return _result_from_aggregate(specs, aggregator)
