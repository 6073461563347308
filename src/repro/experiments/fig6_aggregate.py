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

__all__ = ["Fig6Result", "run", "aggregate_from_cache"]


@dataclass(frozen=True)
class Fig6Result:
    """Aggregated Pearson statistics over the case suite.

    ``aggregate`` is the streamed suite reduction — its panels were
    dropped case by case, so memory stays O(1) in the suite size.
    ``suite_size`` is the length of the case list that was folded;
    ``aggregate.n_cases`` can be smaller when summarizing the cache of an
    interrupted sweep, in which case the statistics are the exact
    aggregate of the completed cases.
    """

    aggregate: SuiteAggregate
    suite_size: int

    def render(self) -> str:
        """Figure 6 as a combined mean/σ matrix plus the §VII statistic."""
        return self.aggregate.render(
            f"Fig. 6 — Pearson coefficients over {self.aggregate.n_cases} cases",
            self.suite_size,
        )

    def suite_aggregate(self) -> SuiteAggregate:
        """This result's statistics as a :class:`SuiteAggregate`.

        The canonical cross-backend comparison form: the CLI's ``--json``
        output dumps it, and CI byte-compares it between a single-process
        run and a shard/worker/merge round trip.
        """
        return self.aggregate


def run(
    scale: Scale | str | None = None,
    seed: int = 20070913,
    specs: list[CaseSpec] | None = None,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    force: bool = False,
    backend: ExecutionBackend | None = None,
    fast_conv: bool = False,
    cases: list[CampaignCase] | None = None,
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
    artifact keys, so fast and exact caches never collide.  With ``cases``
    given (a :meth:`repro.caseset.CaseSet.cases` expansion), the
    suite-expansion step is bypassed and exactly that ordered case list
    runs — the ``campaign sweep`` compute path.
    """
    if cases is None:
        if specs is None:
            specs = default_suite()
        cases = expand_suite(specs, scale, base_seed=seed, fast_conv=fast_conv)
    campaign = Campaign(
        cases, jobs=jobs, cache=cache, force=force, backend=backend
    )
    aggregator = SuiteAggregator()
    for index, case, result in campaign.iter_results():
        aggregator.add_case(index, case, result)
    return Fig6Result(aggregator.finalize(), len(cases))


def aggregate_from_cache(
    scale: Scale | str | None = None,
    seed: int = 20070913,
    specs: list[CaseSpec] | None = None,
    cache: ArtifactCache | None = None,
    fast_conv: bool = False,
    cases: list[CampaignCase] | None = None,
) -> Fig6Result:
    """Summarize an existing campaign cache — no case is ever recomputed.

    Expands the same suite as :func:`run` (same scale, same seed, hence the
    same artifact keys), streams each case's artifact through the same
    aggregator in the same order, and drops it — peak memory is one panel.
    On a complete cache the result is bit-identical to :func:`run`; on the
    cache of an interrupted sweep the aggregate is exact for the cases that
    completed (``aggregate.n_cases`` reports how many), and missing cases
    are simply skipped.

    With ``cases`` given (e.g. a :meth:`repro.caseset.CaseSet.cases`
    expansion), the suite-expansion step is bypassed and the fold runs
    over exactly that ordered case list — this is the oracle the sweep
    engine's streamed aggregate must match byte for byte.

    Raises :class:`ValueError` when the cache holds no artifact of the
    suite at all.
    """
    if cache is None:
        raise ValueError("aggregate_from_cache requires an artifact cache")
    if cases is None:
        scale = get_scale(scale)
        if specs is None:
            specs = default_suite()
        cases = expand_suite(specs, scale, base_seed=seed, fast_conv=fast_conv)
        looked_for = f"this suite (scale={scale.name}, seed={seed})"
    else:
        looked_for = f"the {len(cases)} requested case(s)"
    # Cache iteration visits cases in case order, so immediate folding
    # (ordered=False) follows the same canonical fold sequence as `run` —
    # while tolerating holes left by interrupted sweeps.
    aggregator = SuiteAggregator(ordered=False)
    for index, case, result in cache.iter_results(cases):
        aggregator.add_case(index, case, result)
    if aggregator.n_cases == 0:
        raise ValueError(f"no artifacts of {looked_for} found in {cache.root}")
    return Fig6Result(aggregator.finalize(), len(cases))

