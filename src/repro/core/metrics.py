"""The eight robustness metrics of §IV, evaluated per schedule.

:func:`evaluate_schedule` runs one of the four analysis engines on a
schedule and extracts every metric from the resulting makespan distribution
(plus the mean-value slack analysis).  The probabilistic metric bounds
default to the paper's choices (δ = 0.1, γ = 1.0003), which were tuned so
that values spread over ``[0, 1]`` at the paper's scale of makespans — both
are exposed as parameters because other workloads need different bounds
(§V: "for different ULs, communication costs or processor weights ...
these values should be adapted").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.analysis.classical import classical_makespan
from repro.analysis.dodin import dodin_makespan
from repro.analysis.montecarlo import sample_makespans
from repro.analysis.spelde import spelde_makespan
from repro.core.slack import slack_analysis
from repro.schedule.schedule import Schedule
from repro.stochastic.model import StochasticModel
from repro.stochastic.normal import NormalRV
from repro.stochastic.rv import NumericRV
from repro.util.rng import as_generator

__all__ = [
    "METRIC_NAMES",
    "DEFAULT_DELTA",
    "DEFAULT_GAMMA",
    "RobustnessMetrics",
    "evaluate_schedule",
    "metrics_from_distribution",
    "metrics_from_rv",
    "metrics_from_samples_matrix",
]

#: Paper §V: probabilistic metric bounds.
DEFAULT_DELTA = 0.1
DEFAULT_GAMMA = 1.0003

#: Panel column order — matches the paper's Figures 3–6 top-to-bottom order.
METRIC_NAMES = (
    "makespan",
    "makespan_std",
    "makespan_entropy",
    "slack_sum",
    "slack_std",
    "lateness",
    "abs_prob",
    "rel_prob",
)

Method = Literal["classical", "dodin", "spelde", "montecarlo"]


@dataclass(frozen=True)
class RobustnessMetrics:
    """All §IV metrics of one schedule (raw, un-inverted values)."""

    makespan: float
    makespan_std: float
    makespan_entropy: float
    slack_sum: float
    slack_std: float
    lateness: float
    abs_prob: float
    rel_prob: float

    def as_array(self) -> np.ndarray:
        """Values in :data:`METRIC_NAMES` order."""
        return np.array([getattr(self, name) for name in METRIC_NAMES])

    @property
    def rel_prob_over_makespan(self) -> float:
        """The derived ``R(γ)/E(M)`` quantity of §VII (≈ perfectly
        anti-correlated with σ_M per the paper)."""
        return self.rel_prob / self.makespan


def metrics_from_distribution(
    makespan_rv: NumericRV | NormalRV,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
) -> tuple[float, float, float, float, float, float]:
    """Extract the six distribution-based metrics from a makespan RV.

    Returns ``(mean, std, entropy, lateness, abs_prob, rel_prob)``.

    Degenerate mass is accounted exactly: a Dirac makespan (deterministic
    model, or a point-dominated join) yields ``abs_prob == rel_prob == 1``
    and zero lateness via :meth:`NumericRV.prob_between` /
    :meth:`NumericRV.mean_above`'s point handling, and a ``max_of`` floor
    atom inside the probability window is counted as the point mass it is
    rather than as the first-cell density ramp (:attr:`NumericRV.atom`).
    ``NormalRV`` handles ``var == 0`` the same way.
    """
    if delta < 0:
        raise ValueError(f"delta must be ≥ 0, got {delta}")
    if gamma < 1:
        raise ValueError(f"gamma must be ≥ 1, got {gamma}")
    if isinstance(makespan_rv, NormalRV):
        mean = makespan_rv.mean
        return (
            mean,
            makespan_rv.std,
            makespan_rv.entropy(),
            makespan_rv.lateness(),
            makespan_rv.prob_within(delta),
            makespan_rv.prob_within_factor(gamma),
        )
    mean = makespan_rv.mean()
    lateness = makespan_rv.mean_above(mean) - mean
    return (
        mean,
        makespan_rv.std(),
        makespan_rv.entropy(),
        lateness,
        makespan_rv.prob_between(mean - delta, mean + delta),
        makespan_rv.prob_between(mean / gamma, mean * gamma),
    )


def metrics_from_rv(
    rv: NumericRV | NormalRV,
    schedule: Schedule,
    model: StochasticModel,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
) -> RobustnessMetrics:
    """All §IV metrics of ``schedule`` given its makespan distribution.

    The assembly shared by every evaluation path (per-schedule engines and
    the batched Monte-Carlo fast path): six distribution metrics from the
    RV plus the two mean-value slack metrics.
    """
    mean, std, entropy, lateness, abs_p, rel_p = metrics_from_distribution(
        rv, delta=delta, gamma=gamma
    )
    slack = slack_analysis(schedule, model)
    return RobustnessMetrics(
        makespan=mean,
        makespan_std=std,
        makespan_entropy=entropy,
        slack_sum=slack.slack_sum,
        slack_std=slack.slack_std,
        lateness=lateness,
        abs_prob=abs_p,
        rel_prob=rel_p,
    )


def metrics_from_samples_matrix(
    samples: np.ndarray,
    schedules: "list[Schedule] | tuple[Schedule, ...]",
    model: StochasticModel,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
) -> list[RobustnessMetrics]:
    """All §IV metrics for every row of an ``(S, R)`` makespan matrix.

    The consumer side of the across-schedule batched Monte-Carlo fast path
    (:func:`~repro.analysis.montecarlo.sample_makespans_batch`): row ``i``
    of ``samples`` holds the shared-draw makespan realizations of
    ``schedules[i]``; each row is fit to an empirical grid RV and fed
    through :func:`metrics_from_distribution` column-wise, exactly as the
    per-schedule engines do, so batched and per-schedule metric *semantics*
    coincide.
    """
    from repro.stochastic.rv import NumericRV

    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != len(schedules):
        raise ValueError(
            f"expected a ({len(schedules)}, R) makespan matrix, got {samples.shape}"
        )
    return [
        metrics_from_rv(
            NumericRV.from_samples(samples[i], grid_n=model.grid_n),
            schedule,
            model,
            delta=delta,
            gamma=gamma,
        )
        for i, schedule in enumerate(schedules)
    ]


def evaluate_schedule(
    schedule: Schedule,
    model: StochasticModel,
    method: Method = "classical",
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
    n_realizations: int = 10_000,
    rng: int | None | np.random.Generator = None,
    engine=None,
) -> RobustnessMetrics:
    """Compute all §IV metrics for ``schedule`` under ``model``.

    ``method`` selects the makespan-distribution engine; ``n_realizations``
    and ``rng`` only apply to ``"montecarlo"``.

    ``engine`` optionally shares a
    :class:`~repro.stochastic.batch.BatchedGridEngine` across schedules of
    the same model (classical/Dodin only) — its intern pools and
    value-keyed memos make a case panel reuse every repeated duration RV
    and sub-expression.  A shared engine must have been built for the same
    model, precision policy included: the grid walks raise ``ValueError``
    otherwise.
    """
    if method == "classical":
        rv: NumericRV | NormalRV = classical_makespan(
            schedule, model, engine=engine
        )
    elif method == "dodin":
        rv = dodin_makespan(schedule, model, engine=engine)
    elif method == "spelde":
        rv = spelde_makespan(schedule, model)
    elif method == "montecarlo":
        samples = sample_makespans(
            schedule, model, as_generator(rng), n_realizations
        )
        rv = NumericRV.from_samples(samples, grid_n=model.grid_n)
    else:
        raise ValueError(f"unknown method {method!r}")

    return metrics_from_rv(rv, schedule, model, delta=delta, gamma=gamma)
