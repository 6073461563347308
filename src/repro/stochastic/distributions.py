"""Factories for the distributions used throughout the paper.

* :func:`beta_rv` — the paper's duration model: a Beta(α=2, β=5) scaled onto
  ``[min, UL·min]`` (right-skewed, well-defined nonzero mode).
* :func:`gamma_rv` — the Gamma distributions of the Ali et al. CV-based
  heterogeneity generator (used for *weights*, i.e. deterministic values).
* :func:`uniform_rv`, :func:`point_rv` — utility distributions.
* :func:`special_rv` — the deliberately multi-modal "special distribution"
  of Figure 7 (a concatenation of scaled Betas), used to stress the
  central-limit argument of the discussion section.

:func:`beta_rv` evaluates the density with the Boost ufunc that
``scipy.stats.beta.pdf`` itself calls, so it never pays for importing
:mod:`scipy.stats` (most of a cold start).  The factories no campaign case
reaches import :mod:`scipy.stats` on first use.
"""

from __future__ import annotations

import numpy as np
from scipy.special._ufuncs import _beta_pdf

from repro.stochastic.rv import DEFAULT_GRID_SIZE, NumericRV

__all__ = ["beta_rv", "gamma_rv", "uniform_rv", "point_rv", "special_rv"]


def point_rv(x: float) -> NumericRV:
    """Dirac mass at ``x`` (deterministic duration)."""
    return NumericRV.point(x)


def beta_rv(
    lo: float,
    hi: float,
    alpha: float = 2.0,
    beta: float = 5.0,
    grid_n: int = DEFAULT_GRID_SIZE,
) -> NumericRV:
    """Beta(α, β) linearly scaled onto ``[lo, hi]``.

    With the paper's α=2, β=5 the density is right-skewed with mode at
    ``lo + (hi−lo)/5`` — "more small values than large values".
    Degenerates to a point mass when ``hi == lo``.
    """
    if hi < lo:
        raise ValueError(f"invalid support [{lo}, {hi}]")
    if hi == lo:
        return NumericRV.point(lo)
    if alpha <= 0 or beta <= 0:
        raise ValueError("Beta shape parameters must be positive")
    xs = np.linspace(lo, hi, grid_n)
    u = (xs - lo) / (hi - lo)
    # Bit-identical to ``stats.beta.pdf(u, alpha, beta)``: every u lies in
    # [0, 1], where that reduces to this kernel (tests hold the two equal).
    with np.errstate(over="ignore"):
        pdf = _beta_pdf(u, alpha, beta) / (hi - lo)
    # α ≤ 1 or β ≤ 1 put infinite density at an endpoint; clamp for the grid.
    pdf = np.nan_to_num(pdf, posinf=0.0)
    return NumericRV.from_pdf(xs, pdf)


def uniform_rv(lo: float, hi: float, grid_n: int = DEFAULT_GRID_SIZE) -> NumericRV:
    """Uniform distribution on ``[lo, hi]``."""
    if hi < lo:
        raise ValueError(f"invalid support [{lo}, {hi}]")
    if hi == lo:
        return NumericRV.point(lo)
    xs = np.linspace(lo, hi, grid_n)
    pdf = np.full(grid_n, 1.0 / (hi - lo))
    return NumericRV.from_pdf(xs, pdf)


def gamma_rv(
    mean: float,
    cv: float,
    grid_n: int = DEFAULT_GRID_SIZE,
    tail: float = 1e-6,
) -> NumericRV:
    """Gamma distribution parameterized by mean and coefficient of variation.

    ``shape = 1/cv²`` and ``scale = mean·cv²`` (the Ali et al. CV-based
    parameterization).  The infinite support is truncated at the ``tail`` and
    ``1−tail`` quantiles and renormalized.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if cv <= 0:
        return NumericRV.point(mean)
    from scipy import stats

    shape = 1.0 / (cv * cv)
    scale = mean * cv * cv
    lo = float(stats.gamma.ppf(tail, shape, scale=scale))
    hi = float(stats.gamma.ppf(1.0 - tail, shape, scale=scale))
    xs = np.linspace(lo, hi, grid_n)
    pdf = stats.gamma.pdf(xs, shape, scale=scale)
    return NumericRV.from_pdf(xs, pdf)


def special_rv(grid_n: int = 513) -> NumericRV:
    """The multi-modal "special distribution" of Figure 7.

    The paper constructs it as a concatenation of Beta distributions on
    ``[0, 40]`` with a sharp low-value spike and secondary bumps — a shape
    chosen to be as far from Gaussian as possible while keeping finite
    variance, to probe how many self-convolutions the CLT needs.  The exact
    segment weights are not given in the paper; the values below visually
    match Figure 7 (dominant early spike, two smaller bumps, mean ≈ 13).
    """
    from scipy import stats

    segments = (
        # (lo, hi, alpha, beta, weight)
        (0.0, 8.0, 2.0, 4.0, 0.50),
        (8.0, 24.0, 3.0, 3.0, 0.30),
        (24.0, 40.0, 4.0, 2.0, 0.20),
    )
    xs = np.linspace(0.0, 40.0, grid_n)
    pdf = np.zeros_like(xs)
    for lo, hi, a, b, w in segments:
        mask = (xs >= lo) & (xs <= hi)
        u = (xs[mask] - lo) / (hi - lo)
        pdf[mask] += w * stats.beta.pdf(u, a, b) / (hi - lo)
    return NumericRV.from_pdf(xs, pdf)
