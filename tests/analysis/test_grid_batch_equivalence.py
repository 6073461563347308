"""Batched grid-RV engine vs the frozen per-op walks: exact array equality.

The batched engine (:mod:`repro.stochastic.batch`) must reproduce the
historical per-task per-op classical walk and the full-rescan Dodin
reduction *bit-for-bit* — same support grids, same densities, same atom
metadata — across graph families, schedules, uncertainty levels and grid
resolutions.  The vectorized numpy replicas it builds on (``interp``,
``gradient``, ``linspace``, trapezoid, trim windows) are each fuzzed
against the numpy primitive they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis._reference import (
    classical_makespan_reference,
    classical_task_finishes_reference,
    dodin_makespan_reference,
    dodin_reduce_reference,
)
from repro.analysis.classical import classical_makespan, classical_task_finishes
from repro.analysis.dodin import _activity_network, _reduce, dodin_makespan
from repro.dag.fork_join import fork_join_dag
from repro.platform import (
    cholesky_workload,
    ge_workload,
    lu_workload,
    random_workload,
    workload_for_graph,
)
from repro.schedule import ALL_HEURISTICS, heft
from repro.schedule.random_schedule import random_schedule
from repro.stochastic import NumericRV, StochasticModel, beta_rv, point_rv
from repro.stochastic.batch import (
    _MIN_BATCH,
    BatchedGridEngine,
    _linspace,
    _linspace_rows,
    _trapz,
    gradient_rows,
    interp_uniform,
)


def assert_rv_equal(a, b, ctx=""):
    """Exact equality of two NumericRVs including degenerate metadata."""
    assert a.is_point == b.is_point, ctx
    assert np.array_equal(a.xs, b.xs), ctx
    if not a.is_point:
        assert np.array_equal(a.pdf, b.pdf), ctx
    assert a.atom == b.atom, ctx


def workloads():
    return [
        ("fork_join", workload_for_graph(fork_join_dag(6), 3, rng=11)),
        ("cholesky", cholesky_workload(5, 4, rng=12)),
        ("lu", lu_workload(4, 3, rng=13)),
        ("ge", ge_workload(6, 4, rng=14)),
        ("random", random_workload(40, 5, rng=15)),
    ]


WORKLOADS = workloads()


class TestClassicalEquivalence:
    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    @pytest.mark.parametrize("hname", ["heft", "bil", "bmct"])
    def test_heuristic_schedules(self, name, w, hname):
        s = ALL_HEURISTICS[hname](w)
        model = StochasticModel(ul=1.1, grid_n=65)
        ref = classical_task_finishes_reference(s, model)
        new = classical_task_finishes(s, model)
        for v, (a, b) in enumerate(zip(new, ref)):
            assert_rv_equal(a, b, f"{name}/{hname} task {v}")

    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    @pytest.mark.parametrize("ul", [1.0, 1.01, 1.1])
    def test_random_schedules_and_uls(self, name, w, ul):
        s = random_schedule(w, rng=16)
        model = StochasticModel(ul=ul)
        assert_rv_equal(
            classical_makespan(s, model),
            classical_makespan_reference(s, model),
            f"{name} ul={ul}",
        )

    def test_grid_resolutions(self):
        w = ge_workload(7, 4, rng=17)
        s = heft(w)
        for grid_n in (33, 65, 129):
            model = StochasticModel(ul=1.1, grid_n=grid_n)
            assert_rv_equal(
                classical_makespan(s, model),
                classical_makespan_reference(s, model),
                f"grid {grid_n}",
            )

    def test_shared_engine_is_bit_stable(self):
        """Reusing one engine across walks must not change any array."""
        w = cholesky_workload(5, 4, rng=18)
        model = StochasticModel(ul=1.1)
        engine = BatchedGridEngine(model)
        schedules = [random_schedule(w, rng=r) for r in (1, 2)] + [heft(w)]
        for s in schedules:
            assert_rv_equal(
                classical_makespan(s, model, engine=engine),
                classical_makespan_reference(s, model),
                "shared engine",
            )
        assert engine.stats["rv_pool"] > 0

    def test_memo_returns_identical_objects(self):
        model = StochasticModel(ul=1.1)
        engine = BatchedGridEngine(model)
        a, b = model.rv(3.0), model.rv(5.0)
        (r1,) = engine.add_pairs([(a, b)])
        (r2,) = engine.add_pairs([(a, b)])
        assert r1 is r2
        (m1,) = engine.max_groups([[r1, a]])
        (m2,) = engine.max_groups([[r1, a]])
        assert m1 is m2
        # Interning: one object per duration value.
        assert engine.rv(7.25) is engine.rv(7.25)

    def test_memo_hits_on_equal_content_distinct_objects(self):
        """Value interning: memos key on content, not object identity."""
        from repro.stochastic.rv import NumericRV

        model = StochasticModel(ul=1.1)
        engine = BatchedGridEngine(model)
        a, b = model.rv(3.0), model.rv(5.0)
        a2 = NumericRV(a.xs.copy(), a.pdf.copy(), atom=a.atom)
        b2 = NumericRV(b.xs.copy(), b.pdf.copy(), atom=b.atom)
        assert a2 is not a and b2 is not b
        (r1,) = engine.add_pairs([(a, b)])
        (r2,) = engine.add_pairs([(a2, b2)])
        assert r1 is r2
        (m1,) = engine.max_groups([[a, b]])
        (m2,) = engine.max_groups([[a2, b2]])
        assert m1 is m2
        # Same-level dedup too: equal-content pairs collapse to one job.
        eng2 = BatchedGridEngine(model)
        res = eng2.add_pairs([(a, b), (a2, b2)])
        assert res[0] is res[1]
        assert eng2.stats["add_memo"] == 1
        assert eng2.stats["value_pool"] >= 2


class TestDodinEquivalence:
    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    def test_makespan(self, name, w):
        s = heft(w)
        model = StochasticModel(ul=1.1, grid_n=65)
        assert_rv_equal(
            dodin_makespan(s, model), dodin_makespan_reference(s, model), name
        )

    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    def test_worklist_reduce_matches_full_rescan(self, name, w):
        """Same reduced topology, same edge RV arrays, same association order."""
        s = random_schedule(w, rng=19)
        model = StochasticModel(ul=1.1, grid_n=65)
        g_new = _activity_network(s, model)
        g_ref = _activity_network(s, model)
        _reduce(g_new)
        dodin_reduce_reference(g_ref)
        assert set(g_new.nodes) == set(g_ref.nodes)
        edges_new = sorted(
            ((a, b) for a, b, _ in g_new.edges(keys=True)), key=repr
        )
        edges_ref = sorted(
            ((a, b) for a, b, _ in g_ref.edges(keys=True)), key=repr
        )
        assert edges_new == edges_ref
        for a, b in edges_new:
            rvs_new = [d["rv"] for d in g_new[a][b].values()]
            rvs_ref = [d["rv"] for d in g_ref[a][b].values()]
            assert len(rvs_new) == len(rvs_ref)
            for x, y in zip(rvs_new, rvs_ref):
                assert_rv_equal(x, y, f"{name} edge {a}->{b}")


class TestMaxCellGuardEquivalence:
    """Maxima that ``_max_cell_guard`` rebuilds, scalar and batched paths."""

    @staticmethod
    def groups(n, floor):
        # A narrow operand (0.055 wide) inside a wide one whose output step is
        # 0.125; with a floor it also cuts the wide operand (an atom).
        out = []
        for k in range(n):
            wide = beta_rv(1.0 + k, 10.0 + k, 2.0, 3.0, grid_n=65)
            if floor:
                narrow = beta_rv(1.98 + k, 2.0328125 + k, 1.5, 8.0, grid_n=65)
                out.append([wide, point_rv(2.0 + k), narrow])
            else:
                narrow = beta_rv(2.0 + k, 2.0546875 + k, 1.5, 8.0, grid_n=65)
                out.append([wide, narrow])
        return out

    # One group runs the engine's scalar path; _MIN_BATCH groups with equal
    # fine-grid lengths run the batched fine-group path.
    @pytest.mark.parametrize("n", [1, _MIN_BATCH], ids=["scalar", "batched"])
    @pytest.mark.parametrize("floor", [False, True], ids=["plain", "atom"])
    def test_guarded_maxima_match_max_of(self, n, floor):
        groups = self.groups(n, floor)
        engine = BatchedGridEngine(StochasticModel(ul=1.1, grid_n=65))
        for k, (got, rvs) in enumerate(zip(engine.max_groups(groups), groups)):
            want = NumericRV.max_of(rvs)
            assert_rv_equal(got, want, f"group {k}")
            # Rebuilt: the first half cell holds the exact P(max ≤ lo + dx/2).
            edge = got.lo + got.dx / 2
            p0 = np.prod([rv.cdf(edge) for rv in rvs if not rv.is_point])
            assert got.pdf[0] * got.dx / 2 == pytest.approx(p0, abs=1e-9)


class TestNumpyReplicas:
    """The engine's vectorized kernels vs the numpy primitives they mirror."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_interp_uniform_matches_np_interp(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(2, 300))
        kind = data.draw(st.sampled_from(["linspace", "arange"]))
        x0 = rng.normal() * 100
        if kind == "linspace":
            xp = np.linspace(x0, x0 + 10 ** rng.uniform(-4, 3), n)
        else:
            xp = x0 + (10 ** rng.uniform(-6, 1)) * np.arange(n)
        fp = rng.random(n)
        q = np.concatenate(
            [
                rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 64),
                xp[rng.integers(0, n, 8)],  # exact grid hits
                [xp[0], xp[-1]],
            ]
        )
        left, right = rng.normal(), rng.normal()
        got = interp_uniform(
            q, np.zeros(len(q), dtype=np.intp), xp[None], fp[None], left, right
        )
        assert np.array_equal(got, np.interp(q, xp, fp, left=left, right=right))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gradient_rows_matches_np_gradient(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(3, 200))
        rows = data.draw(st.integers(1, 5))
        xs = np.empty((rows, n))
        for i in range(rows):
            if rng.random() < 0.5:
                xs[i] = np.linspace(rng.normal(), rng.normal() + 5 + rng.random(), n)
            else:
                xs[i] = rng.normal() + (rng.random() + 0.1) * np.arange(n)
        f = rng.random((rows, n))
        got = gradient_rows(f, xs)
        for i in range(rows):
            assert np.array_equal(got[i], np.gradient(f[i], xs[i]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_linspace_and_trapz_replicas(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(2, 500))
        a = rng.normal() * 1e3
        b = a + 10 ** rng.uniform(-8, 4)
        assert np.array_equal(_linspace(a, b, n), np.linspace(a, b, n))
        starts = rng.normal(size=7) * 100
        stops = starts + 10 ** rng.uniform(-5, 3, 7)
        assert np.array_equal(
            _linspace_rows(starts, stops, n),
            np.linspace(starts, stops, n, axis=-1),
        )
        y = rng.random(n)
        dx = 10 ** rng.uniform(-6, 2)
        assert _trapz(y, dx) == float(np.trapezoid(y, dx=dx))


class TestRadiusBatchReplay:
    def test_batched_replay_matches_scalar(self):
        from repro.core.related import _replay_makespan, _replay_makespans_batch

        s = heft(cholesky_workload(5, 4, rng=20))
        infl = np.array([0.0, 0.05, 0.37, 1.0, 9.5])
        batch = _replay_makespans_batch(s, infl)
        ref = np.array([_replay_makespan(s, x) for x in infl])
        assert np.array_equal(batch, ref)
