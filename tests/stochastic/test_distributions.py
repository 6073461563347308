"""Distribution factories."""

import itertools

import numpy as np
import pytest

from repro.stochastic import beta_rv, gamma_rv, point_rv, special_rv, uniform_rv
from repro.stochastic.rv import NumericRV


def _scipy_stats_beta_rv(lo, hi, alpha, beta, grid_n):
    """The historical ``beta_rv``: density from ``scipy.stats.beta.pdf``."""
    from scipy import stats

    xs = np.linspace(lo, hi, grid_n)
    u = (xs - lo) / (hi - lo)
    pdf = stats.beta.pdf(u, alpha, beta) / (hi - lo)
    pdf = np.nan_to_num(pdf, posinf=0.0)
    return NumericRV.from_pdf(xs, pdf)


class TestBetaKernelOracle:
    """``beta_rv`` calls SciPy's private Boost ufunc instead of
    ``scipy.stats``; every duration RV, hence every cached artifact, must
    stay byte-identical.  A SciPy release that renames or changes the
    ufunc fails here instead of silently changing artifacts."""

    @pytest.mark.parametrize("grid_n", [8, 65, 129, 513])
    def test_bytes_equal_scipy_stats(self, grid_n):
        probes = itertools.product(
            (1.01, 1.1, 1.5, 2.0, 10.0),
            ((2.0, 5.0), (0.5, 0.5), (1.0, 1.0), (3.0, 2.0)),
            (1.0, 3.7, 250.0),
        )
        for ul, (a, b), lo in probes:
            got = beta_rv(lo, lo * ul, a, b, grid_n=grid_n)
            want = _scipy_stats_beta_rv(lo, lo * ul, a, b, grid_n)
            assert got.xs.tobytes() == want.xs.tobytes(), (ul, a, b, lo)
            assert got.pdf.tobytes() == want.pdf.tobytes(), (ul, a, b, lo)


class TestBeta:
    def test_degenerate_support_gives_point(self):
        assert beta_rv(3.0, 3.0).is_point

    def test_invalid_support_rejected(self):
        with pytest.raises(ValueError):
            beta_rv(3.0, 2.0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            beta_rv(0.0, 1.0, alpha=0.0)
        with pytest.raises(ValueError):
            beta_rv(0.0, 1.0, beta=-1.0)

    def test_right_skew_of_paper_shape(self):
        # α=2, β=5: mode at (α−1)/(α+β−2) = 0.2 of the range, mean > mode.
        rv = beta_rv(0.0, 1.0, 2.0, 5.0, grid_n=501)
        mode = rv.xs[np.argmax(rv.pdf)]
        assert mode == pytest.approx(0.2, abs=0.01)
        assert rv.mean() > mode

    def test_endpoint_density_zero_for_interior_shapes(self):
        rv = beta_rv(0.0, 1.0, 2.0, 5.0)
        assert rv.pdf[0] == 0.0
        assert rv.pdf[-1] == 0.0


class TestGamma:
    def test_moments(self):
        rv = gamma_rv(20.0, 0.5, grid_n=513)
        assert rv.mean() == pytest.approx(20.0, rel=1e-3)
        assert rv.std() == pytest.approx(10.0, rel=1e-2)

    def test_zero_cv_gives_point(self):
        assert gamma_rv(5.0, 0.0).is_point

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            gamma_rv(0.0, 0.5)


class TestSpecial:
    def test_multimodal(self):
        rv = special_rv()
        pdf = rv.pdf
        # Count strict local maxima above 10% of the global peak.
        peaks = 0
        threshold = 0.1 * pdf.max()
        for i in range(1, len(pdf) - 1):
            if pdf[i] > pdf[i - 1] and pdf[i] > pdf[i + 1] and pdf[i] > threshold:
                peaks += 1
        assert peaks >= 2, "special distribution must be multi-modal"

    def test_support_matches_paper(self):
        rv = special_rv()
        assert rv.lo == 0.0
        assert rv.hi == 40.0

    def test_finite_variance(self):
        rv = special_rv()
        assert 0.0 < rv.var() < 40.0**2


class TestPoint:
    def test_point_factory(self):
        assert point_rv(1.5).is_point

    def test_uniform_degenerate(self):
        assert uniform_rv(2.0, 2.0).is_point
