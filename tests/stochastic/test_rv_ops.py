"""Sum and max operators of NumericRV, validated against closed forms and MC."""

import numpy as np
import pytest

from repro.stochastic import NumericRV, beta_rv, point_rv, uniform_rv


class TestShiftScale:
    def test_shift(self):
        rv = beta_rv(1.0, 2.0)
        shifted = rv.shift(3.0)
        assert shifted.mean() == pytest.approx(rv.mean() + 3.0, rel=1e-9)
        assert shifted.var() == pytest.approx(rv.var(), rel=1e-9)

    def test_shift_zero_is_identity(self):
        rv = beta_rv(1.0, 2.0)
        assert rv.shift(0.0) is rv

    def test_scalar_add_operator(self):
        rv = beta_rv(1.0, 2.0)
        assert (rv + 2.0).mean() == pytest.approx(rv.mean() + 2.0)
        assert (2.0 + rv).mean() == pytest.approx(rv.mean() + 2.0)

    def test_scale(self):
        rv = beta_rv(1.0, 2.0)
        scaled = rv.scale(4.0)
        assert scaled.mean() == pytest.approx(4.0 * rv.mean(), rel=1e-9)
        assert scaled.std() == pytest.approx(4.0 * rv.std(), rel=1e-9)

    def test_scale_rejects_nonpositive(self):
        rv = beta_rv(1.0, 2.0)
        with pytest.raises(ValueError):
            rv.scale(0.0)
        with pytest.raises(ValueError):
            rv.scale(-1.0)

    def test_mul_operator(self):
        rv = beta_rv(1.0, 2.0)
        assert (3.0 * rv).mean() == pytest.approx(3.0 * rv.mean())


class TestAdd:
    def test_sum_of_points(self):
        assert (point_rv(2.0) + point_rv(3.0)).lo == 5.0

    def test_point_plus_rv_shifts(self):
        rv = beta_rv(1.0, 2.0)
        out = point_rv(10.0).add(rv)
        assert out.mean() == pytest.approx(rv.mean() + 10.0, rel=1e-9)

    def test_sum_moments_additive(self):
        a = beta_rv(10.0, 11.0)
        b = beta_rv(20.0, 22.0)
        s = a.add(b)
        assert s.mean() == pytest.approx(a.mean() + b.mean(), rel=1e-6)
        assert s.var() == pytest.approx(a.var() + b.var(), rel=1e-2)

    def test_sum_support(self):
        a = uniform_rv(0.0, 1.0)
        b = uniform_rv(2.0, 3.0)
        s = a.add(b)
        assert s.lo >= 2.0 - 1e-9
        assert s.hi <= 4.0 + 1e-9

    def test_sum_of_uniforms_is_triangular(self):
        # U[0,1] + U[0,1] has a triangular density peaking at 1.
        a = uniform_rv(0.0, 1.0, grid_n=201)
        s = a.add(a)
        peak_x = s.xs[np.argmax(s.pdf)]
        assert peak_x == pytest.approx(1.0, abs=0.05)
        assert s.cdf(1.0) == pytest.approx(0.5, abs=1e-2)

    def test_sum_against_monte_carlo(self):
        a = beta_rv(10.0, 12.0)
        b = beta_rv(5.0, 5.5)
        s = a.add(b)
        rng = np.random.default_rng(3)
        mc = (10 + 2 * rng.beta(2, 5, 200_000)) + (5 + 0.5 * rng.beta(2, 5, 200_000))
        assert s.mean() == pytest.approx(mc.mean(), rel=1e-3)
        assert s.std() == pytest.approx(mc.std(), rel=2e-2)

    def test_sum_iid_moments(self):
        rv = beta_rv(1.0, 2.0)
        s = rv.sum_iid(9)
        assert s.mean() == pytest.approx(9 * rv.mean(), rel=1e-6)
        assert s.var() == pytest.approx(9 * rv.var(), rel=1e-2)

    def test_sum_iid_validates(self):
        rv = beta_rv(1.0, 2.0)
        with pytest.raises(ValueError):
            rv.sum_iid(0)
        assert rv.sum_iid(1) is rv

    def test_sum_iid_of_point(self):
        assert point_rv(2.0).sum_iid(5).lo == 10.0


class TestMaximum:
    def test_max_of_points(self):
        assert point_rv(2.0).maximum(point_rv(3.0)).lo == 3.0

    def test_max_with_dominated_point_is_identity(self):
        rv = beta_rv(10.0, 11.0)
        out = rv.maximum(point_rv(5.0))
        assert out.mean() == pytest.approx(rv.mean(), rel=1e-9)

    def test_max_with_dominating_point(self):
        rv = beta_rv(10.0, 11.0)
        out = rv.maximum(point_rv(20.0))
        assert out.is_point
        assert out.lo == 20.0

    def test_max_with_cutting_point_conserves_mass_and_mean(self):
        rv = uniform_rv(0.0, 1.0, grid_n=201)
        out = rv.maximum(point_rv(0.5))
        # E[max(U, 0.5)] = 0.5·0.5 + E[U | U>0.5]·0.5 = 0.25 + 0.375 = 0.625
        assert out.mean() == pytest.approx(0.625, abs=5e-3)
        assert out.lo >= 0.5 - 1e-9

    def test_max_stochastic_dominance(self):
        a = beta_rv(10.0, 12.0)
        b = beta_rv(11.0, 13.0)
        m = a.maximum(b)
        xs = np.linspace(9, 14, 50)
        # F_max ≤ min(F_a, F_b) pointwise (2e-3 numeric tolerance: the
        # gradient + clip + renormalize pipeline redistributes mass locally).
        assert np.all(m.cdf(xs) <= np.minimum(a.cdf(xs), b.cdf(xs)) + 2e-3)

    def test_max_against_monte_carlo(self):
        a = beta_rv(10.0, 12.0)
        b = beta_rv(10.5, 11.5)
        m = a.maximum(b)
        rng = np.random.default_rng(4)
        mc = np.maximum(
            10 + 2 * rng.beta(2, 5, 200_000), 10.5 + rng.beta(2, 5, 200_000)
        )
        assert m.mean() == pytest.approx(mc.mean(), rel=1e-3)
        assert m.std() == pytest.approx(mc.std(), rel=3e-2)

    def test_max_of_many_equals_pairwise(self):
        a = beta_rv(10.0, 12.0)
        b = beta_rv(11.0, 12.5)
        c = beta_rv(9.0, 13.0)
        nway = NumericRV.max_of([a, b, c])
        pairwise = a.maximum(b).maximum(c)
        assert nway.mean() == pytest.approx(pairwise.mean(), rel=1e-3)
        assert nway.std() == pytest.approx(pairwise.std(), rel=5e-2)

    def test_max_of_empty_rejected(self):
        with pytest.raises(ValueError):
            NumericRV.max_of([])

    def test_max_iid_cdf_power(self):
        rv = uniform_rv(0.0, 1.0, grid_n=201)
        m = rv.max_iid(3)
        # P(max of 3 U ≤ x) = x³
        assert m.cdf(0.5) == pytest.approx(0.125, abs=1e-2)

    def test_max_iid_concentrates(self):
        # The std of the max of k i.i.d. variables decreases with k —
        # the paper's Fig. 9 argument for robust join schedules.
        rv = beta_rv(10.0, 20.0)
        stds = [rv.max_iid(k).std() for k in (1, 4, 16, 64)]
        assert all(s1 > s2 for s1, s2 in zip(stds, stds[1:]))

    def test_max_identity_single(self):
        rv = beta_rv(1.0, 2.0)
        assert NumericRV.max_of([rv]) is rv


def _exact_max_mean(rvs, lo, hi):
    """E[max] = lo + ∫ (1 − F) over [lo, hi], on a fine quadrature grid."""
    xs = np.linspace(lo, hi, 200_001)
    f = np.ones_like(xs)
    for rv in rvs:
        f *= rv.cdf(xs)
    return lo + np.trapezoid(1.0 - f, xs)


def _cell_masses(rv):
    """Trapezoid mass of each grid point's cell (half cells at the ends)."""
    w = np.full(len(rv.xs), rv.dx)
    w[0] = w[-1] = rv.dx / 2
    return w * rv.pdf


class TestMaxCellGuard:
    """``max_of`` with an operand narrower than one output cell."""

    # b spans 0.055 inside a's [1, 10]; the output step is 0.125.
    WIDE = (1.0, 10.0, 2.0, 3.0)
    NARROW = (2.0, 2.0546875, 1.5, 8.0)

    def test_narrow_operand_inside_wide_keeps_mean(self):
        a = beta_rv(*self.WIDE, grid_n=65)
        b = beta_rv(*self.NARROW, grid_n=65)
        m = a.maximum(b)
        exact = _exact_max_mean([a, b], m.lo, m.hi)
        assert abs(m.mean() - exact) <= m.dx / 2
        # The first cell holds P(max ≤ 2.0625), not a sample of b's spike.
        p0 = float(a.cdf(2.0625) * b.cdf(2.0625))
        assert _cell_masses(m)[0] == pytest.approx(p0, abs=1e-9)
        assert np.trapezoid(m.pdf, m.xs) == pytest.approx(1.0, abs=1e-12)

    def test_narrow_operand_under_a_floor_keeps_atom(self):
        a = beta_rv(*self.WIDE, grid_n=65)
        b = beta_rv(1.98, 2.0328125, 1.5, 8.0, grid_n=65)
        m = NumericRV.max_of([a, point_rv(2.0), b])
        assert m.lo == 2.0
        atom = float(a.cdf(2.0) * b.cdf(2.0))
        assert m.atom == pytest.approx(atom, rel=1e-6)
        p0 = float(a.cdf(2.0625) * b.cdf(2.0625))
        assert _cell_masses(m)[0] == pytest.approx(p0, abs=1e-9)
        exact = _exact_max_mean([a, b], 2.0, m.hi)
        assert abs(m.mean() - exact) <= m.dx / 2

    def test_smooth_result_is_returned_unchanged(self):
        from repro.stochastic.rv import _max_cell_guard

        a = beta_rv(10.0, 12.0)
        b = beta_rv(11.0, 13.0)
        m = a.maximum(b)
        assert _max_cell_guard([a, b], m) is m
