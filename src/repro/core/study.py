"""Per-case study runner: random schedules + heuristics → metric panel.

One *case* of the paper's experiment is: a workload, an uncertainty level,
``K`` random schedules plus the three heuristic schedules, all evaluated
with the same engine and collected into a :class:`MetricPanel`.  With the
classical method the schedules are drawn lazily and walked in lockstep
chunks of :data:`_PANEL_CHUNK` (random schedules first, heuristics last),
so each engine call carries one DAG level of up to that many schedules,
and each chunk is split across one walker per CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from repro.analysis.classical import classical_makespans
from repro.analysis.montecarlo import sample_makespans_batch
from repro.stochastic.batch import BatchedGridEngine
from repro.core.metrics import (
    DEFAULT_DELTA,
    DEFAULT_GAMMA,
    Method,
    RobustnessMetrics,
    evaluate_schedule,
    metrics_from_rv,
    metrics_from_samples_matrix,
)
from repro.core.panel import MetricPanel
from repro.platform.workload import Workload
from repro.schedule import ALL_HEURISTICS
from repro.schedule.random_schedule import random_schedules
from repro.stochastic.model import StochasticModel
from repro.util.rng import as_generator

__all__ = ["CaseResult", "evaluate_case"]

#: Schedules per lockstep classical panel walk.  Measured on a 2,000-schedule
#: Cholesky 35 panel (UL 1.1, grid_n 65, walks only, one shared engine,
#: 2-vCPU x86 host): chunks of 1 / 16 / 64 / 256 / 2,000 took
#: 25.0 / 22.3 / 20.0 / 22.4 / 21.5 s and peaked at 500 / 485 / 485 / 502 /
#: 682 MB.  64 is the fastest and also bounds the per-level 2-D blocks at
#: paper scale.  Purely a speed knob: every chunking gives bit-identical
#: makespans.
_PANEL_CHUNK = 64


@dataclass(frozen=True)
class CaseResult:
    """Panel + correlation matrix of one experiment case."""

    name: str
    panel: MetricPanel
    pearson: np.ndarray
    heuristic_metrics: dict[str, RobustnessMetrics]


def evaluate_case(
    workload: Workload,
    model: StochasticModel,
    n_random: int,
    rng: int | None | np.random.Generator = None,
    heuristics: tuple[str, ...] = ("heft", "bil", "bmct"),
    method: Method = "classical",
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
    name: str = "",
    mc_realizations: int = 10_000,
    mc_batch: bool = False,
) -> CaseResult:
    """Evaluate ``n_random`` random schedules + ``heuristics`` on one case.

    The Pearson matrix is computed over the *random* schedules only, with
    the paper's orientation; heuristic rows are appended to the panel (they
    are plotted as highlighted points in the paper's figures, not included
    in the correlations).

    ``mc_realizations`` and ``mc_batch`` only apply to the ``montecarlo``
    engine (requesting ``mc_batch`` with another method raises).  With
    ``mc_batch`` every schedule of the case is evaluated against
    **shared** realization draws (one Beta block for the whole population
    instead of one per schedule) via
    :func:`~repro.analysis.montecarlo.sample_makespans_batch` — the
    campaign fast path.  Its draw stream is deterministic in ``rng`` but
    differs from the per-schedule stream, so batched and unbatched panels
    agree statistically, not bit-for-bit.

    For the grid engines the whole case panel shares **one**
    :class:`~repro.stochastic.batch.BatchedGridEngine`: every repeated
    duration RV is interned once for all ``n_random + len(heuristics)``
    schedules, and the value-keyed operation memos reuse sub-expressions
    across schedules.  The classical method walks the panel in lockstep
    (:func:`~repro.analysis.classical.classical_makespans`), in chunks of
    :data:`_PANEL_CHUNK` schedules drawn lazily, heuristics last; each
    chunk is dealt round-robin to one walker per CPU, this process and
    forked children on copies of the engine whose memo entries die with
    them.  Results are bit-identical to per-schedule walks with
    per-schedule engines.
    """
    if n_random < 2:
        raise ValueError("need at least two random schedules for correlations")
    if mc_batch and method != "montecarlo":
        raise ValueError(
            f"mc_batch applies to the montecarlo method only, got method={method!r}"
        )
    gen = as_generator(rng)

    schedules = chain(
        random_schedules(workload, n_random, gen),
        (ALL_HEURISTICS[hname](workload) for hname in heuristics),
    )
    if mc_batch:
        # Draw the whole population first, then sample all schedules at once
        # (the propagation is vectorized across schedules in chunks) and
        # extract every schedule's metrics from the (S, R) matrix row-wise.
        population = list(schedules)
        all_samples = sample_makespans_batch(
            population, model, gen, n_realizations=mc_realizations
        )
        metrics = metrics_from_samples_matrix(
            all_samples, population, model, delta=delta, gamma=gamma
        )
        labels = [s.label for s in population]
    else:
        # One engine for the whole panel: cross-schedule interning + memos.
        # Classical walks draw nothing from ``gen``, so drawing a chunk of
        # schedules before walking it in lockstep leaves the stream
        # unchanged; every other method takes one schedule at a time (Monte
        # Carlo draws from ``gen`` between schedules).
        engine = (
            BatchedGridEngine(model) if method in ("classical", "dodin") else None
        )
        chunk = _PANEL_CHUNK if method == "classical" else 1
        metrics, labels = [], []
        while batch := list(islice(schedules, chunk)):
            if method == "classical":
                rvs = classical_makespans(batch, model, engine=engine)
                metrics += [
                    metrics_from_rv(rv, s, model, delta=delta, gamma=gamma)
                    for rv, s in zip(rvs, batch)
                ]
            else:
                metrics += [
                    evaluate_schedule(
                        s,
                        model,
                        method=method,
                        delta=delta,
                        gamma=gamma,
                        n_realizations=mc_realizations,
                        rng=gen,
                        engine=engine,
                    )
                    for s in batch
                ]
            labels += [s.label for s in batch]

    random_panel = MetricPanel.from_metrics(metrics[:n_random], labels[:n_random])
    heuristic_metrics = dict(zip(heuristics, metrics[n_random:]))
    return CaseResult(
        name=name or workload.graph.name,
        panel=MetricPanel.from_metrics(metrics, labels),
        pearson=random_panel.pearson(),
        heuristic_metrics=heuristic_metrics,
    )
