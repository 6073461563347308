"""Fast precision policy vs the exact oracle: measured error bounds.

The ``fast_conv`` policy (capped conv/max grids + FFT dispatch, see the
precision-policy section of :mod:`repro.stochastic.batch`, its only
implementation) trades a bounded, *measured* amount of grid-resolution
accuracy for wall-clock.  The model carries it; the per-op
:class:`~repro.stochastic.rv.NumericRV` methods are exact-only.  This suite
pins the contract:

* across heuristics × graph families × ULs the makespan density stays
  within ``max |pdf_fast − pdf_exact|·dx ≤ 2e-2`` of the exact oracle,
  with mean and σ within 1% / 10% — and whenever the engine reports that
  no cap bound and the FFT never fired, the fast path is **bit-identical**
  to the exact one (narrow communication RVs make the caps bind even on
  small graphs, so both branches of the property are exercised);
* on a dense random graph (where narrow communication RVs used to force
  ~16k-point grids) the caps are asserted to actually bind, via the
  engine's ``conv_capped`` counter;
* the FFT kernel itself matches ``np.convolve`` to ~1e-10;
* with no per-op fast path left to compare against, one sha256 digest
  pins the fast Dodin makespans' bytes (the golden test pins the fast
  classical walk through the ``dense-approx`` artifacts);
* the policy travels on the model (ValueError on engine/model policy
  mismatches) and changes campaign cache keys only when enabled.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis._reference import (
    classical_makespan_reference,
    dodin_makespan_reference,
)
from repro.analysis.classical import classical_makespan
from repro.analysis.dodin import dodin_makespan
from repro.campaign import CampaignCase
from repro.core.metrics import evaluate_schedule
from repro.dag.fork_join import fork_join_dag
from repro.experiments.cases import CaseSpec
from repro.platform import (
    cholesky_workload,
    ge_workload,
    lu_workload,
    random_workload,
    workload_for_graph,
)
from repro.schedule import ALL_HEURISTICS, heft
from repro.stochastic import StochasticModel
from repro.stochastic.batch import (
    _FFT_MIN_OPERAND,
    BatchedGridEngine,
    _conv_kernel,
    _fft_convolve,
)
from repro.stochastic.rv import NumericRV

#: The documented density bound: max |pdf_fast − pdf_exact|·dx.
PDF_ERR_BOUND = 2e-2
#: Mean / σ relative-delta bounds (measured: ~2e-4 / ~2.3e-2).
MEAN_REL_BOUND = 1e-2
STD_REL_BOUND = 1e-1


def workloads():
    return [
        ("fork_join", workload_for_graph(fork_join_dag(6), 3, rng=11)),
        ("cholesky", cholesky_workload(5, 4, rng=12)),
        ("lu", lu_workload(4, 3, rng=13)),
        ("ge", ge_workload(6, 4, rng=14)),
        ("random", random_workload(40, 5, rng=15)),
    ]


WORKLOADS = workloads()


def pdf_sup_error(fast: NumericRV, exact: NumericRV) -> float:
    """max |pdf_fast − pdf_exact| · dx on the exact grid (0 for points)."""
    if exact.is_point or fast.is_point:
        assert fast.is_point == exact.is_point
        assert fast.xs[0] == exact.xs[0]
        return 0.0
    dx = exact.xs[1] - exact.xs[0]
    pdf_f = np.interp(exact.xs, fast.xs, fast.pdf, left=0.0, right=0.0)
    return float(np.max(np.abs(pdf_f - exact.pdf)) * dx)


def assert_close_enough(fast: NumericRV, exact: NumericRV, ctx: str) -> None:
    assert pdf_sup_error(fast, exact) <= PDF_ERR_BOUND, ctx
    if not exact.is_point:
        m_e, m_f = exact.mean(), fast.mean()
        assert abs(m_f - m_e) <= MEAN_REL_BOUND * abs(m_e), ctx
        s_e, s_f = exact.std(), fast.std()
        if s_e > 0:
            assert abs(s_f - s_e) <= STD_REL_BOUND * s_e, ctx


class TestFftKernel:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        for n_a, n_b in [(4, 4), (65, 65), (513, 520), (700, 1024)]:
            ya, yb = rng.random(n_a), rng.random(n_b)
            direct = np.convolve(ya, yb)
            fft = _fft_convolve(ya, yb)
            assert fft.shape == direct.shape
            assert np.max(np.abs(fft - direct)) < 1e-10 * max(n_a, n_b)

    def test_clips_ringing_at_zero(self):
        ya = np.zeros(600)
        ya[0] = 1.0
        assert (_fft_convolve(ya, ya) >= 0.0).all()

    def test_dispatch_rule(self):
        rng = np.random.default_rng(1)
        small = rng.random(65)
        big = rng.random(_FFT_MIN_OPERAND)
        # Exact mode and asymmetric fast shapes stay on the direct product
        # (bit-identical, not just close).
        assert np.array_equal(
            _conv_kernel(big, small, fast=True), np.convolve(big, small)
        )
        assert np.array_equal(
            _conv_kernel(big, big, fast=False), np.convolve(big, big)
        )
        # Balanced large fast shapes go through the FFT.
        assert np.array_equal(
            _conv_kernel(big, big, fast=True), _fft_convolve(big, big)
        )


class TestPropertySweep:
    """Error bound across heuristics × families × ULs, with the stronger
    bit-identity contract whenever the engine reports the policy idle."""

    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    @pytest.mark.parametrize("hname", ["heft", "bil", "bmct"])
    def test_classical_heuristics(self, name, w, hname):
        s = ALL_HEURISTICS[hname](w)
        model = StochasticModel(ul=1.1, grid_n=65)
        exact = classical_makespan_reference(s, model)
        engine = BatchedGridEngine(model.with_fast_conv())
        fast = classical_makespan(s, model.with_fast_conv(), engine=engine)
        ctx = f"{name}/{hname}"
        assert_close_enough(fast, exact, ctx)
        stats = engine.stats
        if not (stats["conv_capped"] or stats["max_capped"] or stats["fft_convs"]):
            assert np.array_equal(fast.xs, exact.xs), ctx
            if not exact.is_point:
                assert np.array_equal(fast.pdf, exact.pdf), ctx
            assert fast.atom == exact.atom, ctx

    @pytest.mark.parametrize("name,w", WORKLOADS, ids=[n for n, _ in WORKLOADS])
    @pytest.mark.parametrize("ul", [1.0, 1.01, 1.1, 1.3])
    def test_both_engines_across_uls(self, name, w, ul):
        s = heft(w)
        model = StochasticModel(ul=ul, grid_n=65)
        for makespan, reference in (
            (classical_makespan, classical_makespan_reference),
            (dodin_makespan, dodin_makespan_reference),
        ):
            exact = reference(s, model)
            fast = makespan(s, model.with_fast_conv())
            ctx = f"{name} ul={ul} {makespan.__name__}"
            assert_close_enough(fast, exact, ctx)

    def test_deterministic_model_is_bit_identical(self):
        # ul=1.0: every duration is a point mass, no convolution is ever
        # planned, so the policy is provably idle.
        w = cholesky_workload(5, 4, rng=12)
        s = heft(w)
        model = StochasticModel(ul=1.0, grid_n=65)
        engine = BatchedGridEngine(model.with_fast_conv())
        fast = classical_makespan(s, model.with_fast_conv(), engine=engine)
        exact = classical_makespan_reference(s, model)
        stats = engine.stats
        assert stats["conv_capped"] == 0 and stats["fft_convs"] == 0
        assert np.array_equal(fast.xs, exact.xs)
        assert fast.atom == exact.atom


class TestNarrowOperandRescue:
    """An operand narrower than the capped common step must not lose its
    mass (regression: the quick fig-6 fast-conv sweep crashed with
    'cannot normalize PDF with total mass 0.0' when a ~1e-3-wide
    communication RV met a ~1e3-wide partner under the 520-point cap)."""

    @staticmethod
    def _wide_and_narrow():
        xs_w = np.linspace(0.0, 1000.0, 65)
        pdf_w = np.ones(65)
        wide = NumericRV.from_pdf(xs_w, pdf_w)
        # Hat density vanishing at both support endpoints (Beta-like), so
        # sampling only the endpoints sees exactly zero.
        xs_n = np.linspace(5.0, 5.001, 65)
        pdf_n = np.minimum(np.arange(65), np.arange(65)[::-1]).astype(float)
        narrow = NumericRV.from_pdf(xs_n, pdf_n)
        return wide, narrow

    @staticmethod
    def _fast_add(a, b):
        engine = BatchedGridEngine(
            StochasticModel(ul=1.1, grid_n=65).with_fast_conv()
        )
        (out,) = engine.add_pairs([(a, b)])
        assert engine.stats["conv_capped"] == 1
        return out

    def test_fast_engine_add_survives_and_keeps_mean(self):
        wide, narrow = self._wide_and_narrow()
        out = self._fast_add(wide, narrow)
        want = wide.mean() + narrow.mean()
        # The dominant error is the 65-point output refit (cell ~15.6 over
        # the ~1000-wide support), in both modes; the rescue must stay
        # within that resolution, not degrade it.
        assert abs(out.mean() - want) <= out.xs[1] - out.xs[0]
        assert abs(float(np.trapezoid(out.pdf, x=out.xs)) - 1.0) < 1e-9

    def test_exact_mode_unaffected(self):
        wide, narrow = self._wide_and_narrow()
        fast = self._fast_add(wide, narrow)
        exact = wide.add(narrow)
        # The exact plan coarsens here too (the joint support passes its
        # 16,384-point cap, so the narrow operand is rescued as well), and
        # the fast result must agree with it at the shared output
        # resolution.
        assert abs(fast.mean() - exact.mean()) <= exact.xs[1] - exact.xs[0]
        assert pdf_sup_error(fast, exact) <= PDF_ERR_BOUND


class TestDenseRandomErrorBound:
    """The case the policy exists for: dense random graphs whose narrow
    communication RVs used to force ~16k-point conv grids."""

    @pytest.fixture(scope="class")
    def dense(self):
        w = random_workload(100, 8, rng=3)
        return heft(w)

    def test_classical_bound_and_policy_engaged(self, dense):
        model = StochasticModel(ul=1.1, grid_n=65)
        exact = classical_makespan_reference(dense, model)
        engine = BatchedGridEngine(model.with_fast_conv())
        fast = classical_makespan(dense, model.with_fast_conv(), engine=engine)
        # The caps must actually have bound — otherwise this asserts nothing.
        assert engine.stats["conv_capped"] > 0
        assert_close_enough(fast, exact, "dense classical")

    def test_dodin_bound(self, dense):
        model = StochasticModel(ul=1.1, grid_n=65)
        exact = dodin_makespan_reference(dense, model)
        fast = dodin_makespan(dense, model.with_fast_conv())
        assert_close_enough(fast, exact, "dense dodin")

    def test_exact_mode_engine_counters_stay_zero(self, dense):
        model = StochasticModel(ul=1.1, grid_n=65)
        engine = BatchedGridEngine(model)
        classical_makespan(dense, model, engine=engine)
        stats = engine.stats
        assert stats["conv_capped"] == 0
        assert stats["max_capped"] == 0
        assert stats["fft_convs"] == 0


class TestDodinDigest:
    """The fast policy's bytes, pinned where no second path can check them.

    The engine is the fast policy's only implementation, so no oracle
    reproduces its bytes; this sha256 over ``xs``, ``pdf`` and ``atom`` of
    fast Dodin makespans does.  It was recorded while Dodin's reduction
    still ran the per-op fast arithmetic, and moving the reduction onto
    the engine left it unchanged.  Inputs: :data:`WORKLOADS` × HEFT/BIL/BMCT
    at UL 1.01 and 1.1, then the dense random_n100 HEFT schedule at both
    ULs, where the caps bind.
    """

    DIGEST = "85f982795684811740d7a5a67cd24417e29e0d5965ffabbe59a22449a42a7cfe"

    @pytest.mark.usefixtures("pinned_libs")
    def test_fast_dodin_makespans_match_digest(self):
        panel = [
            ALL_HEURISTICS[hname](w)
            for _, w in WORKLOADS
            for hname in ("heft", "bil", "bmct")
        ]
        dense = heft(random_workload(100, 8, rng=3))
        runs = [(ul, s) for ul in (1.01, 1.1) for s in panel]
        runs += [(ul, dense) for ul in (1.01, 1.1)]
        digest = hashlib.sha256()
        capped = []
        for ul, s in runs:
            model = StochasticModel(ul=ul, grid_n=65).with_fast_conv()
            engine = BatchedGridEngine(model)
            rv = dodin_makespan(s, model, engine=engine)
            digest.update(rv.xs.tobytes())
            if rv.pdf is not None:
                digest.update(rv.pdf.tobytes())
            digest.update(np.float64(rv.atom).tobytes())
            capped.append(engine.stats["conv_capped"])
        assert all(capped[-2:])
        assert digest.hexdigest() == self.DIGEST


class TestDefaultPathBitIdentity:
    """Engine sharing + value interning must not perturb the exact path."""

    def test_shared_engine_interned_values_match_reference(self):
        w = random_workload(40, 5, rng=15)
        model = StochasticModel(ul=1.1, grid_n=65)
        engine = BatchedGridEngine(model)
        for hname in ("heft", "bil", "bmct"):
            s = ALL_HEURISTICS[hname](w)
            got = classical_makespan(s, model, engine=engine)
            ref = classical_makespan_reference(s, model)
            assert np.array_equal(got.xs, ref.xs), hname
            assert np.array_equal(got.pdf, ref.pdf), hname
            assert got.atom == ref.atom, hname
            got_d = dodin_makespan(s, model, engine=engine)
            ref_d = dodin_makespan_reference(s, model)
            assert np.array_equal(got_d.xs, ref_d.xs), hname
            assert np.array_equal(got_d.pdf, ref_d.pdf), hname
        assert engine.stats["value_pool"] > 0


class TestThreading:
    def test_evaluate_schedule_rejects_policy_mismatch(self, small_workload, model):
        s = heft(small_workload)
        exact_engine = BatchedGridEngine(model)
        with pytest.raises(ValueError, match="precision policy"):
            evaluate_schedule(s, model.with_fast_conv(), engine=exact_engine)
        fast_engine = BatchedGridEngine(model.with_fast_conv())
        with pytest.raises(ValueError, match="precision policy"):
            evaluate_schedule(s, model, engine=fast_engine)


class TestCampaignKeys:
    SPEC = CaseSpec("cholesky", 3, 1.1)

    def test_exact_case_serialization_unchanged(self):
        # Pre-change artifact caches must load warm: the default policy
        # omits the field entirely.
        case = CampaignCase(spec=self.SPEC)
        assert "fast_conv" not in case.to_dict()

    def test_fast_case_gets_distinct_key(self):
        exact = CampaignCase(spec=self.SPEC)
        fast = CampaignCase(spec=self.SPEC, fast_conv=True)
        assert fast.to_dict()["fast_conv"] is True
        assert fast.key != exact.key

    def test_roundtrip(self):
        for case in (
            CampaignCase(spec=self.SPEC),
            CampaignCase(spec=self.SPEC, fast_conv=True),
        ):
            assert CampaignCase.from_dict(case.to_dict()) == case
            assert CampaignCase.from_dict(case.to_dict()).key == case.key
