"""Streaming accumulators agree with batch numpy to ~1e-12."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import MomentAccumulator, P2Quantile

TOL = 1e-12


def _rel_close(a, b, tol=TOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    both_nan = np.isnan(a) & np.isnan(b)
    return np.all(both_nan | (np.abs(a - b) <= tol * scale))


class TestMomentAccumulator:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 60))
    @settings(max_examples=30, deadline=None)
    def test_incremental_matches_numpy(self, seed, k):
        rng = np.random.default_rng(seed)
        xs = rng.normal(scale=10.0, size=(k, 4, 3))
        acc = MomentAccumulator((4, 3))
        for x in xs:
            acc.add(x)
        assert _rel_close(acc.mean, xs.mean(axis=0))
        assert _rel_close(acc.std(), xs.std(axis=0))
        assert _rel_close(acc.variance(ddof=1), xs.var(axis=0, ddof=1))
        assert acc.n == k

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nan_skipping_matches_nanmean_nanstd(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(30, 6))
        xs[rng.random(size=xs.shape) < 0.3] = np.nan
        acc = MomentAccumulator((6,))
        for x in xs:
            acc.add(x)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            ref_mean = np.nanmean(xs, axis=0)
            ref_std = np.nanstd(xs, axis=0)
        assert _rel_close(acc.mean, ref_mean)
        assert _rel_close(acc.std(), ref_std)

    def test_scalar_shape(self):
        acc = MomentAccumulator(())
        for v in (1.0, 2.0, 3.0):
            acc.add(v)
        assert acc.mean == pytest.approx(2.0)
        assert acc.std(ddof=1) == pytest.approx(1.0)

    def test_empty_is_nan(self):
        acc = MomentAccumulator((2,))
        assert np.all(np.isnan(acc.mean))
        assert np.all(np.isnan(acc.std()))

    def test_all_nan_element_stays_nan(self):
        acc = MomentAccumulator((2,))
        for _ in range(5):
            acc.add(np.array([1.0, np.nan]))
        assert acc.mean[0] == 1.0
        assert np.isnan(acc.mean[1])

    def test_shape_mismatch_rejected(self):
        acc = MomentAccumulator((3,))
        with pytest.raises(ValueError):
            acc.add(np.zeros(4))


class TestP2Quantile:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    @settings(max_examples=20, deadline=None)
    def test_tracks_true_quantile(self, seed, q):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=4000)
        est = P2Quantile(q)
        for v in samples:
            est.add(v)
        true = float(np.quantile(samples, q))
        spread = samples.std()
        # P²'s worst case (a bad five-sample marker initialization on a
        # tail quantile) reaches ≈ 0.18σ; a broken estimator is off by ≈ σ.
        assert abs(est.value - true) < 0.3 * spread + 1e-9
        assert est.n == len(samples)

    def test_small_streams_exact(self):
        est = P2Quantile(0.5)
        assert np.isnan(est.value)
        for v in (3.0, 1.0, 2.0):
            est.add(v)
        assert est.value == pytest.approx(2.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.5)
        est = P2Quantile(0.5)
        with pytest.raises(ValueError, match="finite"):
            est.add(float("nan"))
