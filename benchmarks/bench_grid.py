"""Old-vs-new benchmarks of the batched grid-RV engine (BENCH_core.json).

Times the frozen per-op grid walks
(:func:`repro.analysis._reference.classical_makespan_reference` /
:func:`~repro.analysis._reference.dodin_makespan_reference`) against the
level-batched engine that replaced them, on the fig-6 graph shapes at the
campaign's quick-scale grid resolution (65 points, the paper's 64-point
regime), and records ``classical_makespan`` / ``dodin_makespan`` rows into
``BENCH_core.json`` via the shared collector.  The pairs are bit-identical
(``tests/analysis/test_grid_batch_equivalence.py`` asserts exact array
equality), so the ratios are pure speed measurements.

Two regimes are asserted separately (see ``docs/performance.md``): on the
structured fig-6 families (Cholesky, Gaussian elimination) the walk is
call-overhead-bound and the batched engine clears 2×; on dense *random*
graphs the wall-clock is dominated by the irreducible C kernels (the
common-step convolutions themselves), which bit-identity pins, so the
ratio is reported but only floored near parity.

The ``classical_panel`` row times a case panel at the shape of the query
service's miss (Cholesky 35, 50 random schedules plus HEFT/BIL/BMCT):
walking its schedules one at a time through a shared engine against the
lockstep panel walk that :func:`~repro.core.study.evaluate_case` uses.
Both give identical makespans; the panel fills the engine's batched
blocks where a single schedule's level mostly takes the scalar path.

The ``*_fastconv`` rows measure the opt-in fast precision policy on the
dense random shape — the convolution wall the policy exists to break.
Those pairs are *not* bit-identical (the caps bound the intermediate
grids); the measured error is asserted in
``tests/analysis/test_fast_conv.py``, and the floor here is the ≥3×
end-to-end target.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis._reference import (
    classical_makespan_reference,
    dodin_makespan_reference,
)
from repro.analysis.classical import classical_makespan, classical_makespans
from repro.analysis.dodin import dodin_makespan
from repro.platform import cholesky_workload, ge_workload, random_workload
from repro.schedule import ALL_HEURISTICS, heft
from repro.schedule.random_schedule import random_schedules
from repro.stochastic import StochasticModel
from repro.stochastic.batch import BatchedGridEngine


def best_of(fn, reps: int) -> float:
    """Best-of-``reps`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def model():
    # The fig-6 campaign's quick-scale model: UL 1.1, 65-point grids.
    return StochasticModel(ul=1.1, grid_n=65)


def _pair(record_bench, op, shape, old_fn, new_fn, reps):
    old = best_of(old_fn, reps)
    new = best_of(new_fn, reps)
    record_bench(
        op=op,
        shape=shape,
        ns_per_op=new * 1e9,
        baseline_ns_per_op=old * 1e9,
        ratio=old / new,
    )
    return old / new


#: Fig-6 graph shapes (paper §V sizes, bench_kernel.py naming) and the
#: per-shape classical floor: ≥2× where the walk is overhead-bound,
#: near-parity floors where the convolution kernels dominate (random).
_SHAPES = [
    ("cholesky_n35_m8", lambda: cholesky_workload(5, 8, rng=1), 2.0),
    ("cholesky_n84_m4", lambda: cholesky_workload(7, 4, rng=1), 2.0),
    ("ge_n90_m8", lambda: ge_workload(13, 8, rng=2), 2.0),
    ("random_n100_m8", lambda: random_workload(100, 8, rng=3), 1.0),
]


class TestClassicalMakespan:
    """End-to-end ``classical_makespan``: per-op walk vs batched engine."""

    @pytest.mark.parametrize(
        "name,maker,floor", _SHAPES, ids=[s[0] for s in _SHAPES]
    )
    def test_classical(self, record_bench, bench_quick, model, name, maker, floor):
        w = maker()
        s = heft(w)
        reps = 3 if bench_quick else 7
        ratio = _pair(
            record_bench,
            "classical_makespan",
            name,
            lambda: classical_makespan_reference(s, model),
            lambda: classical_makespan(s, model),
            reps,
        )
        # Halve the floors under --bench-quick (noisy shared CI runners).
        assert ratio >= (floor / 2.0 if bench_quick else floor)


class TestDodinMakespan:
    """End-to-end ``dodin_makespan``: full-rescan + per-op walk vs
    worklist reduction + batched engine."""

    @pytest.mark.parametrize(
        "name,maker,floor",
        [(n, m, f) for n, m, f in _SHAPES],
        ids=[s[0] for s in _SHAPES],
    )
    def test_dodin(self, record_bench, bench_quick, model, name, maker, floor):
        w = maker()
        s = heft(w)
        reps = 3 if bench_quick else 7
        ratio = _pair(
            record_bench,
            "dodin_makespan",
            name,
            lambda: dodin_makespan_reference(s, model),
            lambda: dodin_makespan(s, model),
            reps,
        )
        # Dodin keeps its serial reduction chain (series splices are
        # data-dependent), so its floor sits below the classical one.
        dodin_floor = min(floor, 1.4) if floor >= 2.0 else 1.0
        assert ratio >= (dodin_floor / 2.0 if bench_quick else dodin_floor)


class TestClassicalPanel:
    """One schedule at a time through a shared engine vs the lockstep panel
    walk, on the query service's miss shape."""

    _FLOOR = 1.2

    def test_classical_panel(self, record_bench, bench_quick, model):
        w = cholesky_workload(5, 8, rng=1)
        schedules = list(random_schedules(w, 50, rng=2))
        schedules += [ALL_HEURISTICS[h](w) for h in ("heft", "bil", "bmct")]

        # A fresh engine per call: a warm one would answer from its memos.
        def one_at_a_time():
            engine = BatchedGridEngine(model)
            return [classical_makespan(s, model, engine=engine) for s in schedules]

        def panel():
            return classical_makespans(schedules, model)

        for a, b in zip(one_at_a_time(), panel()):
            assert np.array_equal(a.xs, b.xs) and a.atom == b.atom
            assert a.is_point or np.array_equal(a.pdf, b.pdf)
        reps = 3 if bench_quick else 7
        ratio = _pair(
            record_bench,
            "classical_panel",
            "cholesky_n35_m8_s53",
            one_at_a_time,
            panel,
            reps,
        )
        assert ratio >= (self._FLOOR / 2.0 if bench_quick else self._FLOOR)


class TestFastConv:
    """Fast precision policy vs the per-op reference on the dense random
    shape (the convolution wall): ≥3× end-to-end."""

    _FLOOR = 3.0

    @pytest.fixture(scope="class")
    def dense_schedule(self):
        return heft(random_workload(100, 8, rng=3))

    def test_classical_fastconv(
        self, record_bench, bench_quick, model, dense_schedule
    ):
        fast = model.with_fast_conv()
        reps = 3 if bench_quick else 7
        ratio = _pair(
            record_bench,
            "classical_makespan_fastconv",
            "random_n100_m8",
            lambda: classical_makespan_reference(dense_schedule, model),
            lambda: classical_makespan(dense_schedule, fast),
            reps,
        )
        assert ratio >= (self._FLOOR / 2.0 if bench_quick else self._FLOOR)

    def test_dodin_fastconv(
        self, record_bench, bench_quick, model, dense_schedule
    ):
        fast = model.with_fast_conv()
        reps = 3 if bench_quick else 7
        ratio = _pair(
            record_bench,
            "dodin_makespan_fastconv",
            "random_n100_m8",
            lambda: dodin_makespan_reference(dense_schedule, model),
            lambda: dodin_makespan(dense_schedule, fast),
            reps,
        )
        assert ratio >= (self._FLOOR / 2.0 if bench_quick else self._FLOOR)
