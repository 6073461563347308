"""Independence-assumption ("classical") makespan distribution.

Walk the disjunctive graph in topological order; each task's start time is
the maximum over its (disjunctive) predecessors of *finish + communication*,
its finish time is *start + duration*.  Sums are convolutions, maxima are
CDF products — both assume the joining distributions are independent, which
is exact on (out-)trees and an approximation whenever paths share history.
The paper used exactly this method for its metric panels after validating it
against Monte-Carlo realizations (its Figures 1 and 2; our Fig-1/2 harness
reproduces that validation).

The walk is *level-synchronous*: all grid operations of one DAG level are
independent, so they are dispatched together through the batched grid-RV
engine (:class:`~repro.stochastic.batch.BatchedGridEngine`) — interned
duration RVs, batched convolution trims/refits, vectorized N-way CDF
products.  :func:`classical_makespans` walks a whole *panel* of schedules
of one workload in lockstep: level ``k`` of every schedule that has one
goes into the same three engine calls (arrival sums, join maxima,
duration sums), so a case panel fills the engine's batched blocks where a
single schedule's level (about two unique sums on a Cholesky 35 walk)
would take the per-op scalar path.  :func:`repro.core.study.evaluate_case`
walks a case in chunks of ``_PANEL_CHUNK`` (64) schedules.  The
one-schedule entry points are the panel walk of one schedule.  The results are bit-identical to the
historical per-task per-op walk, which is kept frozen as
:func:`repro.analysis._reference.classical_task_finishes_reference` and
asserted equal by the equivalence suite.

A panel walk uses every CPU the process may run on.
:func:`classical_makespans` deals its schedules round-robin to one
walker per CPU (``_WALKERS``, from ``os.sched_getaffinity``; 1 where that
does not exist): the calling process walks the first share and a forked
child walks each other share on its copy-on-write copy of the engine
(:func:`repro.util.fork.fork_map`, which states the fork contract).  The
memos are content-pure and a panel walk never depended on how its
schedules were grouped, so every makespan keeps its bytes.  A walker's
memo entries die with it; its work counters come back to the engine
(:meth:`~repro.stochastic.batch.BatchedGridEngine.add_work`).  A
``ProcessPoolBackend`` worker walks with its share of the CPUs
(:func:`share_walkers`).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.schedule.schedule import Schedule
from repro.stochastic.batch import WORK_COUNTERS, BatchedGridEngine, engine_for
from repro.stochastic.model import StochasticModel
from repro.stochastic.rv import NumericRV
from repro.util.fork import fork_map

__all__ = [
    "classical_makespan",
    "classical_makespans",
    "classical_task_finishes",
    "share_walkers",
]

#: Walkers a panel walk is split across: one per CPU this process may run
#: on (see the module docstring).
_WALKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
)


def share_walkers(workers: int) -> None:
    """Keep one of ``workers`` equal shares of this process's walkers.

    Later panel walks split across ``max(1, walkers // workers)`` walkers:
    the initializer of each ``ProcessPoolBackend`` worker, so that
    ``--jobs N`` on N CPUs runs N walk processes in all.
    """
    global _WALKERS
    _WALKERS = max(1, _WALKERS // workers)


def _walk_panel(
    schedules: Sequence[Schedule], eng: BatchedGridEngine
) -> list[list[NumericRV]]:
    """Finish-time RV of every task of every schedule, levels in lockstep.

    Level ``k`` of every schedule that has one is dispatched as three
    batched engine steps: all arrival convolutions, all join maxima, all
    duration convolutions; schedules with fewer levels drop out.  The
    per-task predecessor order (and therefore every grid operation)
    matches the historical per-op walk exactly.
    """
    walks = [
        (s.workload, s.disjunctive(), s.proc, s.edge_min_comm())
        for s in schedules
    ]
    finishes: list[list] = [[None] * s.workload.n_tasks for s in schedules]
    n_levels = max((dis.n_levels for _, dis, _, _ in walks), default=0)
    for level in range(n_levels):
        # 1) arrival = finish[pred] (+ comm) for every incoming edge.
        arrival_pairs: list[tuple[NumericRV, NumericRV]] = []
        slots: list[tuple[list, int, float, list]] = []
        for (w, dis, proc, edge_comm), fin in zip(walks, finishes):
            if level >= dis.n_levels:
                continue
            ep, src, topo = dis.edge_ptr, dis.edge_src, dis.topo
            i0, i1 = int(dis.level_ptr[level]), int(dis.level_ptr[level + 1])
            for i in range(i0, i1):
                parts: list = []
                for e in range(int(ep[i]), int(ep[i + 1])):
                    fu = fin[int(src[e])]
                    assert fu is not None, "topological order violated"
                    c = float(edge_comm[e])
                    if c > 0.0:
                        parts.append(len(arrival_pairs))
                        arrival_pairs.append((fu, eng.rv(c)))
                    else:
                        parts.append(fu)
                v = int(topo[i])
                slots.append((fin, v, w.duration(v, int(proc[v])), parts))
        arrivals = eng.add_pairs(arrival_pairs)
        # 2) start = max over arrivals (0 for entry tasks).
        groups = [
            [arrivals[p] if isinstance(p, int) else p for p in parts]
            for *_, parts in slots
            if parts
        ]
        maxima = iter(eng.max_groups(groups))
        # 3) finish = start + duration.
        dur_pairs = [
            (next(maxima) if parts else eng.point(0.0), eng.rv(d))
            for _, _, d, parts in slots
        ]
        for (fin, v, _, _), f in zip(slots, eng.add_pairs(dur_pairs)):
            fin[v] = f
    return finishes


def classical_task_finishes(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> list[NumericRV]:
    """Finish-time RV of every task under the independence assumption.

    The panel walk of one schedule.  Pass ``engine`` to share the
    duration-RV intern pool and operation memos across several walks over
    the same model (e.g. the makespan and a robustness replay of the same
    schedule); it must have been built for ``model`` (``ValueError``
    otherwise).
    """
    return _walk_panel([schedule], engine_for(model, engine))[0]


def classical_makespans(
    schedules: Sequence[Schedule],
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> list[NumericRV]:
    """Makespan RV of every schedule of a panel over one workload.

    Walks the schedules in lockstep (see the module docstring); every
    makespan is the max of its schedule's exit-task finishes, all taken in
    one final batched step.  The schedules are dealt round-robin to up to
    ``_WALKERS`` walkers, the calling process and forked children, and
    each result lands at its schedule's index.  Each result is
    bit-identical to walking its schedule alone.  ``engine`` is shared as
    in :func:`classical_task_finishes`; after the walk its work counters
    include every walker's.
    """
    eng = engine_for(model, engine)
    schedules = list(schedules)
    walkers = max(1, min(_WALKERS, len(schedules)))
    shares = [schedules[k::walkers] for k in range(walkers)]
    walks = fork_map(lambda share: _walk_share(share, eng), shares)
    out: list[NumericRV] = [None] * len(schedules)  # type: ignore[list-item]
    for k, (makespans, work) in enumerate(walks):
        out[k::walkers] = makespans
        if k:  # the caller's own work is already in its engine
            eng.add_work(work)
    return out


def _walk_share(
    schedules: Sequence[Schedule], eng: BatchedGridEngine
) -> tuple[list[NumericRV], dict[str, int]]:
    """One walker's makespans and the work counters it added to ``eng``."""
    before = eng.stats
    finishes = _walk_panel(schedules, eng)
    makespans = eng.max_groups(
        [
            [fin[v] for v in disjunctive_sinks(s)]
            for s, fin in zip(schedules, finishes)
        ]
    )
    after = eng.stats
    return makespans, {k: after[k] - before[k] for k in WORK_COUNTERS}


def classical_makespan(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> NumericRV:
    """Makespan RV: the max of all exit-task finish distributions."""
    return classical_makespans([schedule], model, engine=engine)[0]


def disjunctive_sinks(schedule: Schedule) -> list[int]:
    """Tasks with no successor in the disjunctive graph.

    The makespan is the maximum of exactly these finish times; folding any
    additional (dominated) task would spuriously widen the distribution under
    the independence assumption.
    """
    dis = schedule.disjunctive()
    has_succ = np.zeros(schedule.workload.n_tasks, dtype=bool)
    has_succ[dis.edge_src] = True
    return [int(v) for v in np.flatnonzero(~has_succ)]
