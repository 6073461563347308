"""The paper's uncertainty model: scaled-Beta durations with uncertainty level UL.

A duration whose *minimum* (deterministic) value is ``w`` becomes, under
uncertainty level ``UL ≥ 1``, a random variable supported on
``[w, UL·w]``::

    X = w + (UL − 1)·w · B,   B ~ Beta(α, β)

The paper selects α=2, β=5 — a right-skewed density ("more small values than
large values") with a well-defined nonzero mode.  The same UL applies to
computation and communication durations.

:class:`StochasticModel` turns minimum values into any of the three
representations used by the analysis engines:

* :meth:`rv` — grid :class:`~repro.stochastic.rv.NumericRV` (classical/Dodin
  evaluation);
* :meth:`normal` — moment-only :class:`~repro.stochastic.normal.NormalRV`
  (Spelde evaluation);
* :meth:`sample` — vectorized Monte-Carlo draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.stochastic.distributions import beta_rv
from repro.stochastic.normal import NormalRV
from repro.stochastic.rv import DEFAULT_GRID_SIZE, NumericRV

__all__ = ["StochasticModel"]


@dataclass(frozen=True)
class StochasticModel:
    """Uncertainty model (UL, Beta shape) shared by all durations.

    Parameters
    ----------
    ul:
        Uncertainty level; the maximum duration is ``ul`` times the minimum.
        ``ul == 1`` gives a fully deterministic model.
    alpha, beta:
        Beta shape parameters (paper: 2 and 5).
    grid_n:
        Grid resolution for :meth:`rv` (paper used 64 points).
    fast_conv:
        Opt into the fast grid-algebra precision policy: the classical and
        Dodin walks bound their intermediate convolution/maximum grids
        proportionally to ``grid_n`` and dispatch large balanced
        convolutions to an FFT kernel (see the precision-policy section of
        :mod:`repro.stochastic.batch`).  The default ``False`` is the exact
        mode, bit-identical to the frozen reference walks.  The analysis
        entry points take the policy from the model alone.  The duration
        RVs built by :meth:`rv` are unaffected either way — only how the
        analysis engines *combine* them changes.
    """

    ul: float = 1.1
    alpha: float = 2.0
    beta: float = 5.0
    grid_n: int = DEFAULT_GRID_SIZE
    fast_conv: bool = False

    def __post_init__(self) -> None:
        if self.ul < 1.0:
            raise ValueError(f"uncertainty level must be ≥ 1, got {self.ul}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta shape parameters must be positive")
        if self.grid_n < 8:
            raise ValueError(f"grid_n too small: {self.grid_n}")

    # Fraction of the [min, max] range covered by the Beta mean / variance.
    @property
    def _beta_mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def _beta_var(self) -> float:
        a, b = self.alpha, self.beta
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    def with_grid(self, grid_n: int) -> "StochasticModel":
        """Copy of this model with a different grid resolution."""
        return replace(self, grid_n=grid_n)

    def with_ul(self, ul: float) -> "StochasticModel":
        """Copy of this model with a different uncertainty level."""
        return replace(self, ul=ul)

    def with_fast_conv(self) -> "StochasticModel":
        """Copy of this model under the fast precision policy."""
        return replace(self, fast_conv=True)

    # ------------------------------------------------------------------ #
    # closed-form moments
    # ------------------------------------------------------------------ #

    def mean(self, min_value: float | np.ndarray) -> float | np.ndarray:
        """Expected duration for minimum value(s) ``min_value``."""
        return np.asarray(min_value) * (1.0 + (self.ul - 1.0) * self._beta_mean)

    def var(self, min_value: float | np.ndarray) -> float | np.ndarray:
        """Duration variance for minimum value(s) ``min_value``."""
        spread = (self.ul - 1.0) * np.asarray(min_value)
        return spread * spread * self._beta_var

    def std(self, min_value: float | np.ndarray) -> float | np.ndarray:
        """Duration standard deviation."""
        return np.sqrt(self.var(min_value))

    # ------------------------------------------------------------------ #
    # representations
    # ------------------------------------------------------------------ #

    def rv(self, min_value: float) -> NumericRV:
        """Grid RV on ``[w, UL·w]`` (point mass when degenerate).

        All durations share one Beta shape, so the RV for ``w`` is the unit
        RV on ``[1, UL]`` scaled by ``w`` — computed once and cached, which
        makes this the cheap inner call the analysis engines need.
        """
        w = float(min_value)
        if w < 0:
            raise ValueError(f"duration must be ≥ 0, got {w}")
        if w == 0.0 or self.ul == 1.0:
            return NumericRV.point(w)
        return _unit_rv(self.ul, self.alpha, self.beta, self.grid_n).scale(w)

    def normal(self, min_value: float) -> NormalRV:
        """Moment-matched Gaussian surrogate of :meth:`rv`."""
        w = float(min_value)
        if w < 0:
            raise ValueError(f"duration must be ≥ 0, got {w}")
        return NormalRV(float(self.mean(w)), float(self.var(w)))

    def sample(
        self,
        min_value: float | np.ndarray,
        rng: np.random.Generator,
        size: int | tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Draw realizations for minimum value(s) ``min_value``.

        ``min_value`` broadcasts against ``size`` — e.g. pass a length-``n``
        vector of minimum durations and ``size=(R, n)`` to draw ``R``
        realizations of all ``n`` durations at once.
        """
        w = np.asarray(min_value, dtype=float)
        if np.any(w < 0):
            raise ValueError("durations must be ≥ 0")
        if self.ul == 1.0:
            return np.broadcast_to(w, size if size is not None else w.shape).copy()
        b = rng.beta(self.alpha, self.beta, size=size)
        return w * (1.0 + (self.ul - 1.0) * b)


@lru_cache(maxsize=32)
def _unit_rv(ul: float, alpha: float, beta: float, grid_n: int) -> NumericRV:
    """The shared Beta RV on ``[1, UL]`` (cached per model parameterization)."""
    return beta_rv(1.0, ul, alpha, beta, grid_n=grid_n)
