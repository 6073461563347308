"""Streaming aggregation of campaign case results (the Figure 6 reduction).

The paper's summary statistics are all *reductions* over per-case results:
Figure 6 is the element-wise mean/σ of the per-case 8×8 Pearson matrices,
and the §VII derived statistic is the mean/σ of a per-case correlation.
This module computes them **one case at a time** — from the runner's
as-completed stream (:meth:`Campaign.iter_results`) or from an artifact
cache (:meth:`ArtifactCache.iter_results`) — so a paper-scale (or far
larger) sweep never holds more than one :class:`CaseResult` in memory, and
an interrupted sweep's partial aggregate is exact for the cases completed
so far.

Determinism
-----------
The repo's campaign guarantee (``jobs=1`` ≡ ``jobs=N`` ≡ cache-warm,
bit-for-bit) extends to the aggregates: :class:`SuiteAggregator` folds
case contributions into its accumulators in **case-index order**
regardless of arrival order, holding out-of-order contributions in a
small reorder buffer (each is an 8×8 matrix plus a few scalars — panels
are reduced to contributions *before* buffering).  Because the fold order
is fixed, every execution mode produces bit-identical mean/σ matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.streaming import MomentAccumulator, P2Quantile
from repro.campaign.spec import CampaignCase
from repro.core.correlation import pearson
from repro.core.metrics import METRIC_NAMES
from repro.core.study import CaseResult
from repro.util.tables import format_matrix, format_table

__all__ = [
    "CaseContribution",
    "SuiteAggregate",
    "SuiteAggregator",
    "case_contribution",
    "contribution_from_payload",
    "contribution_to_payload",
    "suite_aggregate_to_payload",
]

_N_METRICS = len(METRIC_NAMES)


@dataclass(frozen=True)
class CaseContribution:
    """Everything the suite reduction needs from one case — O(1)-sized.

    Attributes
    ----------
    index:
        Position of the case in the suite (the canonical fold order).
    name:
        Case identifier (for reporting).
    pearson:
        The case's 8×8 Pearson matrix.
    rel_corr:
        The case's §VII correlation ``corr(oriented R(γ)/E(M), σ_M)`` over
        its random-schedule population.
    heuristic_rows:
        Per-heuristic summary rows ``(case, heuristic, makespan,
        frac_random_better_M, σ_M, frac_random_better_σ)``.
    makespan_p50, makespan_p95:
        ``P2Quantile``-streamed median and 95th percentile of the
        random-schedule population's expected makespans (the ROADMAP
        percentile column — O(1) memory like the rest of the reduction).
    """

    index: int
    name: str
    pearson: np.ndarray
    rel_corr: float
    heuristic_rows: tuple[tuple[str, str, float, float, float, float], ...]
    makespan_p50: float = float("nan")
    makespan_p95: float = float("nan")


def case_contribution(
    index: int, case: CampaignCase, result: CaseResult
) -> CaseContribution:
    """Reduce one finished case to its suite contribution.

    The §VII per-case correlation is ``pearson()`` over the oriented
    ``R(γ)/E(M)`` and ``σ_M`` columns of the *random* population (the first
    ``case.n_random`` panel rows, exactly as the in-memory Figure 6 runner
    always computed it — NaN when any value is non-finite, so the
    suite-level moment fold skips the case).  After this returns, the
    panel can be dropped.
    """
    n_random = case.n_random
    rel_over_m = result.panel.oriented_rel_prob_over_makespan()[:n_random]
    std = result.panel.column("makespan_std")[:n_random]
    rel_corr = pearson(rel_over_m, std)

    # Streamed percentile column: median/p95 expected makespan of the
    # random population (P², so paper-scale populations stay O(1)).
    p50, p95 = P2Quantile(0.5), P2Quantile(0.95)
    for x in result.panel.column("makespan")[:n_random]:
        if np.isfinite(x):
            p50.add(float(x))
            p95.add(float(x))

    rows = []
    n_rand_rows = result.panel.n_schedules - len(result.heuristic_metrics)
    rand_ms = result.panel.column("makespan")[:n_rand_rows]
    rand_std = result.panel.column("makespan_std")[:n_rand_rows]
    for hname, hm in sorted(result.heuristic_metrics.items()):
        rows.append(
            (
                result.name,
                hname,
                hm.makespan,
                float((rand_ms < hm.makespan).mean()),
                hm.makespan_std,
                float((rand_std < hm.makespan_std).mean()),
            )
        )
    return CaseContribution(
        index=index,
        name=result.name,
        pearson=np.asarray(result.pearson, dtype=float),
        rel_corr=rel_corr,
        heuristic_rows=tuple(rows),
        makespan_p50=p50.value,
        makespan_p95=p95.value,
    )


def contribution_to_payload(c: CaseContribution) -> dict:
    """JSON-compatible dict form of a contribution (the shard wire format).

    Floats round-trip exactly through JSON (shortest-repr encoding; NaN
    survives via the default ``allow_nan`` tokens), so a contribution that
    crosses a shard-partial file folds bit-identically to one that never
    left the process — the property the shard/worker/merge protocol's
    bit-identity guarantee rests on.
    """
    return {
        "index": c.index,
        "name": c.name,
        "pearson": np.asarray(c.pearson, dtype=float).tolist(),
        "rel_corr": float(c.rel_corr),
        "heuristic_rows": [list(row) for row in c.heuristic_rows],
        "makespan_p50": float(c.makespan_p50),
        "makespan_p95": float(c.makespan_p95),
    }


def contribution_from_payload(payload: dict) -> CaseContribution:
    """Inverse of :func:`contribution_to_payload`."""
    return CaseContribution(
        index=int(payload["index"]),
        name=str(payload["name"]),
        pearson=np.asarray(payload["pearson"], dtype=float),
        rel_corr=float(payload["rel_corr"]),
        heuristic_rows=tuple(
            (str(r[0]), str(r[1]), float(r[2]), float(r[3]), float(r[4]), float(r[5]))
            for r in payload["heuristic_rows"]
        ),
        makespan_p50=float(payload["makespan_p50"]),
        makespan_p95=float(payload["makespan_p95"]),
    )


@dataclass(frozen=True)
class SuiteAggregate:
    """The finalized suite reduction (what Figure 6 renders).

    ``rel_mean``/``rel_std`` are the §VII statistic: the mean and σ of the
    per-case ``corr(R(γ)/E(M), σ_M)``.  ``case_rows`` is the percentile
    column: one ``(case, p50, p95)`` row per folded case with the streamed
    median/p95 expected makespan of its random-schedule population.
    """

    n_cases: int
    mean: np.ndarray
    std: np.ndarray
    rel_mean: float
    rel_std: float
    heuristic_rows: tuple[tuple[str, str, float, float, float, float], ...]
    case_rows: tuple[tuple[str, float, float], ...] = ()

    def render(self, heading: str, suite_size: int) -> str:
        """The Figure 6 report: mean/σ matrix, §VII line, percentile column.

        The one renderer behind ``fig6``, ``aggregate``, ``campaign merge``
        and ``campaign sweep``; each passes its own ``heading``.  A
        ``(partial: n/N cases)`` suffix marks an aggregate that folded
        fewer than the ``suite_size`` cases it was asked for.
        """
        suffix = "" if self.n_cases == suite_size else (
            f" (partial: {self.n_cases}/{suite_size} cases)"
        )
        lines = [
            f"{heading} (upper: mean, lower: std. dev.){suffix}",
            format_matrix(self.mean, list(METRIC_NAMES), lower=self.std),
            "",
            "§VII derived metric: corr( R(γ)/E(M), σ_M ) = "
            f"{self.rel_mean:+.3f} ± {self.rel_std:.3f} "
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

    def percentile_summary(self) -> str:
        """Per-case percentile column: streamed p50/p95 random makespan.

        The median and 95th percentile of each case's random-schedule
        expected makespans, estimated by the O(1)-memory
        :class:`~repro.analysis.streaming.P2Quantile` during aggregation
        (no panels required).
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


def suite_aggregate_to_payload(agg: SuiteAggregate) -> dict:
    """Canonical JSON-compatible dump of a finalized aggregate.

    The comparison format for cross-backend bit-identity checks (CI runs
    a two-shard fig6 sweep and byte-compares this payload against the
    single-process run's) and the ``--json`` output of the CLI ``merge``
    and ``aggregate`` commands.
    """
    return {
        "format": "repro-suite-aggregate-v1",
        "n_cases": int(agg.n_cases),
        "mean": np.asarray(agg.mean, dtype=float).tolist(),
        "std": np.asarray(agg.std, dtype=float).tolist(),
        "rel_mean": float(agg.rel_mean),
        "rel_std": float(agg.rel_std),
        "heuristic_rows": [list(row) for row in agg.heuristic_rows],
        "case_rows": [list(row) for row in agg.case_rows],
    }


class SuiteAggregator:
    """Streaming reducer over case results with a deterministic fold order.

    Contributions may arrive in any order (``ordered=True``, the default):
    they are reduced to :class:`CaseContribution` immediately and held in a
    reorder buffer until their index is next, then folded — so the fold
    sequence, and therefore every output bit, is independent of arrival
    order.  The buffer holds only contributions (8×8 + scalars), never
    panels; its size is bounded by the out-of-orderness of the stream (≈
    the worker count in practice), keeping memory O(1) in the suite size.

    With ``ordered=False`` contributions fold immediately in arrival order
    — for streams whose order is already canonical but may have holes
    (e.g. a cache read in case order, skipping missing artifacts).
    """

    def __init__(self, ordered: bool = True):
        self.ordered = ordered
        self.matrix = MomentAccumulator((_N_METRICS, _N_METRICS))
        self.rel = MomentAccumulator(())
        self._rows: list[tuple[str, str, float, float, float, float]] = []
        self._case_rows: list[tuple[str, float, float]] = []
        self._pending: dict[int, CaseContribution] = {}
        self._next = 0
        self._n_cases = 0
        self._indices: set[int] = set()

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #

    def add_case(self, index: int, case: CampaignCase, result: CaseResult) -> None:
        """Reduce one finished case and fold it (panel dropped afterwards)."""
        self.add(case_contribution(index, case, result))

    def add(self, contribution: CaseContribution) -> None:
        """Fold a contribution, reordering by index when ``ordered``."""
        if not self.ordered:
            self._fold(contribution)
            return
        if contribution.index < self._next or contribution.index in self._pending:
            raise ValueError(f"duplicate case index {contribution.index}")
        self._pending[contribution.index] = contribution
        while self._next in self._pending:
            self._fold(self._pending.pop(self._next))
            self._next += 1

    def _fold(self, c: CaseContribution) -> None:
        if c.pearson.shape != (_N_METRICS, _N_METRICS):
            raise ValueError(f"expected an 8×8 Pearson matrix, got {c.pearson.shape}")
        if c.index in self._indices:
            raise ValueError(f"duplicate case index {c.index} ({c.name})")
        self.matrix.add(c.pearson)
        self.rel.add(c.rel_corr)
        self._rows.extend(c.heuristic_rows)
        self._case_rows.append((c.name, c.makespan_p50, c.makespan_p95))
        self._indices.add(c.index)
        self._n_cases += 1

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    @property
    def n_cases(self) -> int:
        """Cases folded so far (excludes reorder-buffered ones)."""
        return self._n_cases

    @property
    def n_buffered(self) -> int:
        """Contributions waiting in the reorder buffer."""
        return len(self._pending)

    def finalize(self) -> SuiteAggregate:
        """The aggregate over everything folded so far.

        Contributions still in the reorder buffer (a gap in the index
        sequence — e.g. an interrupted sweep whose case *k* never finished
        while *k+1…* did) are **not** included: the result is the exact
        aggregate of the contiguous completed prefix plus nothing else,
        which keeps partial aggregates well-defined and replayable.
        """
        if self._n_cases == 0:
            raise ValueError("no case results to aggregate")
        return SuiteAggregate(
            n_cases=self._n_cases,
            mean=np.asarray(self.matrix.mean, dtype=float),
            std=np.asarray(self.matrix.std(), dtype=float),
            rel_mean=float(self.rel.mean),
            rel_std=float(self.rel.std()),
            heuristic_rows=tuple(self._rows),
            case_rows=tuple(self._case_rows),
        )
