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
products.  The results are bit-identical to the historical per-task per-op
walk, which is kept frozen as
:func:`repro.analysis._reference.classical_task_finishes_reference` and
asserted equal by the equivalence suite.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.schedule import Schedule
from repro.stochastic.batch import BatchedGridEngine
from repro.stochastic.model import StochasticModel
from repro.stochastic.rv import NumericRV

__all__ = ["classical_makespan", "classical_task_finishes"]


def classical_task_finishes(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> list[NumericRV]:
    """Finish-time RV of every task under the independence assumption.

    Walks the schedule's flat CSR arrays one level at a time; within a
    level, all arrival convolutions, all join maxima and all duration
    convolutions are dispatched as three batched engine steps.  The
    per-task predecessor order (and therefore every grid operation) matches
    the historical per-op walk exactly — the engine is a bit-identical
    batching of the same algebra.

    Pass ``engine`` to share the duration-RV intern pool and operation
    memos across several walks over the same model (e.g. the makespan and
    a robustness replay of the same schedule).  This function does not end
    the walk: :func:`classical_makespan` does, and a caller sharing an
    engine across bare finish walks calls ``engine.end_walk()`` itself.
    """
    eng = BatchedGridEngine(model) if engine is None else engine
    w = schedule.workload
    dis = schedule.disjunctive()
    proc = schedule.proc
    edge_comm = schedule.edge_min_comm()
    ep, src = dis.edge_ptr, dis.edge_src
    topo, lp = dis.topo, dis.level_ptr
    finishes: list[NumericRV | None] = [None] * w.n_tasks

    for level in range(dis.n_levels):
        i0, i1 = int(lp[level]), int(lp[level + 1])
        # 1) arrival = finish[pred] (+ comm) for every incoming edge.
        arrival_pairs: list[tuple[NumericRV, NumericRV]] = []
        slots: list[list] = []
        for i in range(i0, i1):
            parts: list = []
            for e in range(int(ep[i]), int(ep[i + 1])):
                fu = finishes[int(src[e])]
                assert fu is not None, "topological order violated"
                c = float(edge_comm[e])
                if c > 0.0:
                    parts.append(len(arrival_pairs))
                    arrival_pairs.append((fu, eng.rv(c)))
                else:
                    parts.append(fu)
            slots.append(parts)
        arrivals = eng.add_pairs(arrival_pairs)
        # 2) start = max over arrivals (0 for entry tasks).
        groups = [
            [arrivals[p] if isinstance(p, int) else p for p in parts]
            for parts in slots
            if parts
        ]
        maxima = iter(eng.max_groups(groups))
        starts = [
            next(maxima) if parts else eng.point(0.0) for parts in slots
        ]
        # 3) finish = start + duration.
        dur_pairs = [
            (start, eng.rv(w.duration(int(topo[i0 + j]), int(proc[topo[i0 + j]]))))
            for j, start in enumerate(starts)
        ]
        for j, fin in enumerate(eng.add_pairs(dur_pairs)):
            finishes[int(topo[i0 + j])] = fin
    return finishes  # type: ignore[return-value]


def classical_makespan(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> NumericRV:
    """Makespan RV: the max of all exit-task finish distributions.

    Ends the walk on the engine (:meth:`BatchedGridEngine.end_walk`), so a
    shared engine keeps only the operand resamples later walks reuse.
    """
    eng = BatchedGridEngine(model) if engine is None else engine
    finishes = classical_task_finishes(schedule, model, engine=eng)
    sinks = [finishes[v] for v in disjunctive_sinks(schedule)]
    makespan = eng.max_groups([sinks])[0]
    eng.end_walk()
    return makespan


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
