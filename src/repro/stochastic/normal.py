"""Gaussian surrogate random variables for the Spelde evaluation method.

Spelde's approximation (Ludwig, Möhring & Stork 2001) exploits the central
limit theorem: every duration is reduced to its mean and standard deviation,
sums add moments exactly, and maxima are approximated by a Gaussian with the
first two moments of the true maximum, computed with Clark's classical
equations (Clark 1961).  No convolution is ever performed, which makes the
method orders of magnitude faster than grid evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.stochastic.rv import DEFAULT_GRID_SIZE, NumericRV

__all__ = ["NormalRV"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class NormalRV:
    """A normal distribution tracked by (mean, variance) only.

    ``var == 0`` encodes a deterministic value; all operations handle the
    degenerate case exactly.
    """

    mean: float
    var: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.var) and self.var >= 0.0):
            raise ValueError(f"variance must be finite and ≥ 0, got {self.var!r}")

    @classmethod
    def point(cls, x: float) -> "NormalRV":
        """Deterministic value ``x``."""
        return cls(float(x), 0.0)

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.var)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def __add__(self, other: "NormalRV | float") -> "NormalRV":
        if isinstance(other, (int, float)):
            return NormalRV(self.mean + float(other), self.var)
        return NormalRV(self.mean + other.mean, self.var + other.var)

    __radd__ = __add__

    def maximum(self, other: "NormalRV", rho: float = 0.0) -> "NormalRV":
        """Clark's moment-matched normal for max(X, Y).

        ``rho`` is the correlation between the operands (0 under the
        independence assumption the paper uses throughout).
        """
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must be in [-1, 1], got {rho}")
        m1, v1 = self.mean, self.var
        m2, v2 = other.mean, other.var
        a_sq = v1 + v2 - 2.0 * rho * math.sqrt(v1 * v2)
        if a_sq <= 1e-30:
            # Both deterministic (or perfectly correlated with equal spread):
            # the max is the larger mean with the common variance.
            return NormalRV(max(m1, m2), max(v1, v2))
        a = math.sqrt(a_sq)
        alpha = (m1 - m2) / a
        phi = math.exp(-0.5 * alpha * alpha) / _SQRT_2PI
        big_phi = _std_normal_cdf(alpha)
        big_phi_neg = 1.0 - big_phi
        first = m1 * big_phi + m2 * big_phi_neg + a * phi
        second = (
            (m1 * m1 + v1) * big_phi
            + (m2 * m2 + v2) * big_phi_neg
            + (m1 + m2) * a * phi
        )
        return NormalRV(first, max(second - first * first, 0.0))

    @staticmethod
    def max_of(rvs: "list[NormalRV]", rho: float = 0.0) -> "NormalRV":
        """Fold :meth:`maximum` over several RVs (Clark's sequential scheme)."""
        if not rvs:
            raise ValueError("max_of() requires at least one RV")
        out = rvs[0]
        for rv in rvs[1:]:
            out = out.maximum(rv, rho=rho)
        return out

    # ------------------------------------------------------------------ #
    # statistics used by the robustness metrics
    # ------------------------------------------------------------------ #

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X ≤ x)."""
        if self.var == 0.0:
            out = (np.asarray(x, dtype=float) >= self.mean).astype(float)
            return float(out) if out.ndim == 0 else out
        from scipy import stats

        return stats.norm.cdf(x, loc=self.mean, scale=self.std)

    def entropy(self) -> float:
        """Differential entropy ½·ln(2πe·σ²) (−inf when deterministic)."""
        if self.var == 0.0:
            return float("-inf")
        return 0.5 * math.log(2.0 * math.pi * math.e * self.var)

    def lateness(self) -> float:
        """E[X | X > E[X]] − E[X] = σ·√(2/π) for a Gaussian."""
        return self.std * math.sqrt(2.0 / math.pi)

    def prob_within(self, delta: float) -> float:
        """P(|X − E[X]| ≤ δ) = 2Φ(δ/σ) − 1 (1.0 when deterministic)."""
        if delta < 0:
            raise ValueError(f"delta must be ≥ 0, got {delta}")
        if self.var == 0.0:
            return 1.0
        return 2.0 * _std_normal_cdf(delta / self.std) - 1.0

    def prob_within_factor(self, gamma: float) -> float:
        """P(E[X]/γ ≤ X ≤ γ·E[X]) for γ ≥ 1."""
        if gamma < 1.0:
            raise ValueError(f"gamma must be ≥ 1, got {gamma}")
        if self.var == 0.0:
            return 1.0
        s = self.std
        hi = (gamma * self.mean - self.mean) / s
        lo = (self.mean / gamma - self.mean) / s
        return _std_normal_cdf(hi) - _std_normal_cdf(lo)

    def to_numeric(
        self, grid_n: int = DEFAULT_GRID_SIZE, span: float = 6.0
    ) -> NumericRV:
        """Sample this Gaussian on a grid (±``span``·σ) as a :class:`NumericRV`."""
        if self.var == 0.0:
            return NumericRV.point(self.mean)
        s = self.std
        xs = np.linspace(self.mean - span * s, self.mean + span * s, grid_n)
        pdf = np.exp(-0.5 * ((xs - self.mean) / s) ** 2) / (s * _SQRT_2PI)
        return NumericRV.from_pdf(xs, pdf)


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
