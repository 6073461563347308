"""Dodin-style series-parallel makespan evaluation.

Dodin's method (Operations Research 1985) evaluates the completion-time
distribution of an activity network by repeatedly applying two exact
reductions to the activity-on-arc form:

* **series** — a vertex with one incoming and one outgoing arc is removed,
  the two arc distributions convolved;
* **parallel** — two arcs sharing both endpoints are merged, their
  distributions combined with the independent maximum.

On series-parallel graphs this is *exact* up to grid resolution — in
particular, shared path prefixes (e.g. the common ancestor of a diamond) are
factored out *before* any maximum is taken, which the plain independence
assumption gets wrong.  For irreducible (non-SP) graphs Dodin's original
method duplicates nodes; we instead stop and evaluate the remaining reduced
core with the independence assumption, an approximation the paper itself
adopted after observing that Dodin, Spelde and the classical method "gave
similar results".

The schedule's disjunctive graph is converted to activity-on-arc form: task
``v`` becomes vertices ``in(v) → out(v)`` carrying its duration RV; each
dependency becomes an arc carrying its communication RV (a point mass at 0
for same-processor and disjunctive arcs).

Two hot-path rewrites (both bit-identical to the frozen oracles in
:mod:`repro.analysis._reference`):

* :func:`_reduce` drives the series/parallel fixpoint from a **worklist**
  seeded with the endpoints touched by each splice/merge instead of
  rescanning every node and edge per iteration (the historical fixpoint is
  quadratic on long chains).  Candidates are visited in the same
  node-insertion order as the historical full scan, so the reduction
  *order* — and therefore every convolution association — is unchanged.
* :func:`_longest_path_rv` walks the reduced core level-synchronously
  through the batched grid-RV engine
  (:class:`~repro.stochastic.batch.BatchedGridEngine`).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.schedule.schedule import Schedule
from repro.stochastic.batch import BatchedGridEngine
from repro.stochastic.model import StochasticModel
from repro.stochastic.rv import NumericRV

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["dodin_makespan"]

_SOURCE = -1
_SINK = -2


def _activity_network(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> nx.MultiDiGraph:
    import networkx as nx

    w = schedule.workload
    dis = schedule.disjunctive()
    proc = schedule.proc
    edge_comm = schedule.edge_min_comm()
    pos, ep, src = dis.topo_pos, dis.edge_ptr, dis.edge_src
    rv = (engine.rv if engine is not None else model.rv)
    zero = engine.point(0.0) if engine is not None else None
    g = nx.MultiDiGraph()

    def vin(v: int) -> tuple[str, int]:
        return ("in", v)

    def vout(v: int) -> tuple[str, int]:
        return ("out", v)

    def zero_rv() -> NumericRV:
        return zero if zero is not None else NumericRV.point(0.0)

    n = w.n_tasks
    for v in range(n):
        g.add_edge(vin(v), vout(v), rv=rv(w.duration(v, int(proc[v]))))
    has_succ = np.zeros(n, dtype=bool)
    has_succ[src] = True
    for v in range(n):
        i = int(pos[v])
        for e in range(int(ep[i]), int(ep[i + 1])):
            c = float(edge_comm[e])
            g.add_edge(
                vout(int(src[e])), vin(v), rv=rv(c) if c > 0 else zero_rv()
            )
    indeg_zero = np.flatnonzero(ep[pos + 1] == ep[pos])
    for v in indeg_zero:
        g.add_edge(_SOURCE, vin(int(v)), rv=zero_rv())
    for v in np.flatnonzero(~has_succ):
        g.add_edge(vout(int(v)), _SINK, rv=zero_rv())
    return g


def _reduce(g: nx.MultiDiGraph, fast_conv: bool = False) -> None:
    """Series/parallel reduction fixpoint, worklist-driven.

    Equivalent to the historical full-rescan fixpoint
    (:func:`repro.analysis._reference.dodin_reduce_reference`) with the
    identical reduction order — each pass merges the pending multi-arc
    pairs, then splices pending degree-(1,1) vertices in node-insertion
    order, exactly as the full scan visits them; only vertices whose
    degrees were touched since their last visit are ever re-examined.  The
    work is therefore proportional to the reductions performed instead of
    (passes × graph size).

    ``fast_conv`` threads the fast precision policy into the per-op
    ``add``/``maximum`` calls (the reduction operates on RV methods
    directly, not through an engine).
    """
    order = {v: i for i, v in enumerate(g.nodes)}
    pend_pairs = {(a, b) for a, b, _ in g.edges(keys=True)}
    pend_nodes = set(g.nodes)
    while pend_pairs or pend_nodes:
        next_pairs: set = set()
        next_nodes: set = set()
        # Parallel phase: merge multi-arcs between pending vertex pairs.
        for a, b in pend_pairs:
            keys = list(g[a][b].keys()) if g.has_edge(a, b) else []
            if len(keys) > 1:
                rv = g[a][b][keys[0]]["rv"]
                for k in keys[1:]:
                    rv = rv.maximum(g[a][b][k]["rv"], fast=fast_conv)
                g.remove_edges_from([(a, b, k) for k in keys])
                g.add_edge(a, b, rv=rv)
                # Merges change degrees: both endpoints become series
                # candidates of this pass (the full scan visits them after
                # its parallel phase too).
                pend_nodes.add(a)
                pend_nodes.add(b)
        # Series phase: splice pending degree-(1,1) vertices in insertion
        # order.  A splice may enable a neighbour — if the neighbour sits
        # later in insertion order the full scan would still reach it this
        # pass, otherwise only on the next pass; the heap reproduces that.
        heap = [order[v] for v in pend_nodes if v in g]
        heapq.heapify(heap)
        by_order = {order[v]: v for v in pend_nodes if v in g}
        seen: set = set()
        while heap:
            idx = heapq.heappop(heap)
            if idx in seen:
                continue
            seen.add(idx)
            v = by_order[idx]
            if v not in g or (isinstance(v, int) and v < 0):
                continue
            if g.in_degree(v) != 1 or g.out_degree(v) != 1:
                continue
            (a, _, ka) = next(iter(g.in_edges(v, keys=True)))
            (_, b, kb) = next(iter(g.out_edges(v, keys=True)))
            if a == v or b == v:  # pragma: no cover - self-loops impossible
                continue
            rv = g[a][v][ka]["rv"].add(g[v][b][kb]["rv"], fast=fast_conv)
            g.remove_node(v)
            if a == b:  # pragma: no cover - would be a cycle
                continue
            g.add_edge(a, b, rv=rv)
            if g.number_of_edges(a, b) > 1:
                next_pairs.add((a, b))
            for u in (a, b):
                if isinstance(u, int) and u < 0:
                    continue
                if order[u] > idx:
                    if order[u] not in seen:
                        by_order[order[u]] = u
                        heapq.heappush(heap, order[u])
                else:
                    next_nodes.add(u)
        pend_pairs = next_pairs
        pend_nodes = next_nodes


def _longest_path_rv(
    g: nx.MultiDiGraph, engine: BatchedGridEngine
) -> NumericRV:
    """Independence-assumption evaluation of the (reduced) network.

    Level-synchronous: each topological generation's arrival sums and join
    maxima are dispatched as batched engine steps (per-node operand order
    unchanged, hence bit-identical to the sequential walk).
    """
    import networkx as nx

    arrival: dict = {}
    for generation in nx.topological_generations(g):
        pairs: list[tuple[NumericRV, NumericRV]] = []
        slots: list[tuple] = []
        for v in generation:
            k0 = len(pairs)
            for a, _, data in g.in_edges(v, data=True):
                pairs.append((arrival[a], data["rv"]))
            slots.append((v, k0, len(pairs)))
        sums = engine.add_pairs(pairs)
        groups = [sums[k0:k1] for _, k0, k1 in slots if k1 > k0]
        maxima = iter(engine.max_groups(groups))
        for v, k0, k1 in slots:
            arrival[v] = next(maxima) if k1 > k0 else engine.point(0.0)
    return arrival[_SINK]


def dodin_makespan(
    schedule: Schedule,
    model: StochasticModel,
    engine: BatchedGridEngine | None = None,
) -> NumericRV:
    """Makespan RV via series-parallel reduction (independence fallback).

    Ends the walk on the engine, like :func:`classical_makespan` (a fully
    reduced network never reaches the engine's sums).
    """
    eng = BatchedGridEngine(model) if engine is None else engine
    g = _activity_network(schedule, model, engine=eng)
    _reduce(g, fast_conv=eng.fast_conv)
    if g.number_of_edges() == 1:
        _, _, data = next(iter(g.edges(data=True)))
        return data["rv"]
    makespan = _longest_path_rv(g, eng)
    eng.end_walk()
    return makespan
