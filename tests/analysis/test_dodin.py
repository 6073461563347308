"""Dodin series-parallel reduction specifics."""

import numpy as np
import pytest

from repro.analysis.dodin import _activity_network, _reduce, dodin_makespan
from repro.dag import TaskGraph, chain_dag, fork_join_dag
from repro.platform import Platform, Workload
from repro.schedule import Schedule
from repro.stochastic import StochasticModel
from repro.stochastic.batch import BatchedGridEngine


def _workload(graph, durations, m=1):
    comp = np.repeat(np.asarray(durations, dtype=float)[:, None], m, axis=1)
    return Workload(graph, Platform.uniform(m), comp)


class TestReduction:
    def test_chain_reduces_to_single_edge(self, model):
        g = chain_dag(6)
        w = _workload(g, [1, 2, 3, 4, 5, 6])
        s = Schedule.from_proc_orders(w, [0] * 6, [tuple(range(6))])
        net = _activity_network(s, model)
        _reduce(net, BatchedGridEngine(model))
        assert net.number_of_edges() == 1

    @pytest.mark.parametrize("fast_conv", [False, True], ids=["exact", "fast"])
    def test_reduction_counts_in_engine_stats(self, fast_conv):
        # Every sum of the chain is a series splice; the engine computes
        # the 5 convolutions and counts them like a walk's.
        model = StochasticModel(ul=1.1, grid_n=65, fast_conv=fast_conv)
        g = chain_dag(6)
        w = _workload(g, [1, 2, 3, 4, 5, 6])
        s = Schedule.from_proc_orders(w, [0] * 6, [tuple(range(6))])
        engine = BatchedGridEngine(model)
        dodin_makespan(s, model, engine=engine)
        assert engine.stats["add_memo"] == 5
        assert engine.stats["conv_macs"] == 33_815

    def test_fork_join_reduces_to_single_edge(self, model):
        g = fork_join_dag(3)
        w = _workload(g, [1, 2, 3, 4, 5], m=3)
        s = Schedule.from_proc_orders(
            w, [0, 0, 1, 2, 0], [(0, 1, 4), (2,), (3,)]
        )
        net = _activity_network(s, model)
        _reduce(net, BatchedGridEngine(model))
        assert net.number_of_edges() == 1

    def test_chain_sum_exact(self, model):
        g = chain_dag(4)
        w = _workload(g, [10, 20, 30, 40])
        s = Schedule.from_proc_orders(w, [0] * 4, [(0, 1, 2, 3)])
        rv = dodin_makespan(s, model)
        assert rv.mean() == pytest.approx(float(model.mean(100.0)), rel=1e-3)

    def test_deterministic_chain_is_point(self):
        det = StochasticModel(ul=1.0)
        g = chain_dag(3)
        w = _workload(g, [1, 2, 3])
        s = Schedule.from_proc_orders(w, [0] * 3, [(0, 1, 2)])
        rv = dodin_makespan(s, det)
        assert rv.is_point
        assert rv.lo == pytest.approx(6.0)

    def test_irreducible_graph_falls_back(self, model):
        # The "W" graph (two sources, two sinks, crossing edges) is not SP;
        # dodin must still return a sane distribution via the fallback.
        g = TaskGraph(5, [(0, 2, 0.0), (1, 2, 0.0), (0, 3, 0.0), (2, 4, 0.0), (3, 4, 0.0)])
        w = _workload(g, [5, 6, 7, 8, 9], m=2)
        s = Schedule.from_proc_orders(w, [0, 1, 0, 1, 0], [(0, 2, 4), (1, 3)])
        rv = dodin_makespan(s, model)
        from repro.analysis import sample_makespans

        mc = sample_makespans(s, model, rng=0, n_realizations=30_000)
        assert rv.mean() == pytest.approx(mc.mean(), rel=1e-2)


class TestAgainstClassicalOnTrees:
    def test_out_tree_engines_agree(self, model):
        # On an out-tree all joins are trivial: classical and dodin coincide.
        g = TaskGraph(5, [(0, 1, 0.0), (0, 2, 0.0), (1, 3, 0.0), (1, 4, 0.0)])
        w = _workload(g, [3, 4, 5, 6, 7], m=5)
        s = Schedule.from_proc_orders(
            w, [0, 1, 2, 3, 4], [(0,), (1,), (2,), (3,), (4,)]
        )
        from repro.analysis import classical_makespan

        a = classical_makespan(s, model)
        b = dodin_makespan(s, model)
        assert a.mean() == pytest.approx(b.mean(), rel=1e-3)
        assert a.std() == pytest.approx(b.std(), rel=0.05)
