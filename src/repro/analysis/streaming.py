"""Numerically stable one-pass (streaming) statistic accumulators.

The campaign layer produces per-case artifacts one at a time — from worker
processes as they finish, or read back from the artifact cache — and the
paper's summary statistics (Figure 6's element-wise mean/σ of Pearson
matrices, the §VII derived correlation) are all expressible as
*accumulable* reductions.  This module provides the reduction primitives:

* :class:`MomentAccumulator` — element-wise mean/variance over a stream of
  equally-shaped arrays (Welford's update), skipping non-finite entries per
  element exactly like ``np.nanmean``/``np.nanstd``;
* :class:`P2Quantile` — the Jain & Chlamtac P² estimator: any quantile of
  an unbounded stream in O(1) memory, without storing samples.

Campaign code keeps the repo's bit-identical ``jobs=1``/``jobs=N``
guarantee by folding contributions through *one* accumulator in a fixed
case order (see :class:`repro.campaign.aggregate.SuiteAggregator`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MomentAccumulator", "P2Quantile"]


class MomentAccumulator:
    """Element-wise streaming mean and variance over same-shaped arrays.

    Each :meth:`add` folds one observation (an array of the configured
    ``shape``, or a scalar for ``shape=()``) into running first and second
    central moments using Welford's update.  Non-finite elements are
    skipped *per element* — each element keeps its own observation count —
    so the final :attr:`mean`/:meth:`std` match ``np.nanmean``/
    ``np.nanstd`` over the stacked stream (up to summation-order rounding).

    Memory is O(shape), independent of how many observations are folded.
    """

    __slots__ = ("shape", "_count", "_mean", "_m2")

    def __init__(self, shape: tuple[int, ...] = ()):
        self.shape = tuple(shape)
        self._count = np.zeros(self.shape)
        self._mean = np.zeros(self.shape)
        self._m2 = np.zeros(self.shape)

    def add(self, x: np.ndarray | float) -> None:
        """Fold one observation (Welford's update, non-finite skipped)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {x.shape}")
        ok = np.isfinite(x)
        self._count = self._count + ok
        # Masked elements contribute a zero delta; the max(count, 1) guard
        # only shields elements that have never seen a finite value.
        safe = np.where(self._count > 0, self._count, 1.0)
        delta = np.where(ok, x - self._mean, 0.0)
        self._mean = self._mean + delta / safe
        delta2 = np.where(ok, x - self._mean, 0.0)
        self._m2 = self._m2 + delta * delta2

    @property
    def count(self) -> np.ndarray:
        """Per-element number of finite observations folded so far."""
        return self._count.copy()

    @property
    def n(self) -> int:
        """Largest per-element count (== observations when none were NaN)."""
        return int(self._count.max()) if self._count.size else 0

    @property
    def mean(self) -> np.ndarray | float:
        """Running mean; NaN where no finite value was ever seen."""
        out = np.where(self._count > 0, self._mean, np.nan)
        return float(out) if self.shape == () else out

    def variance(self, ddof: int = 0) -> np.ndarray | float:
        """Running variance (population by default, like ``np.nanstd``)."""
        denom = self._count - ddof
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(denom > 0, self._m2 / np.where(denom > 0, denom, 1.0), np.nan)
        # Guard against tiny negative round-off.
        out = np.where(np.isfinite(out), np.maximum(out, 0.0), out)
        return float(out) if self.shape == () else out

    def std(self, ddof: int = 0) -> np.ndarray | float:
        """Running standard deviation."""
        v = self.variance(ddof=ddof)
        return float(np.sqrt(v)) if self.shape == () else np.sqrt(v)


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Tracks five markers whose heights approximate the ``q``-quantile of the
    stream with piecewise-parabolic adjustment — O(1) memory, no stored
    samples.  Until five observations have arrived the exact empirical
    quantile of the buffered values is returned.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_n")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._n = 0

    def add(self, x: float) -> None:
        """Fold one observation; non-finite values are rejected loudly."""
        x = float(x)
        if not np.isfinite(x):
            raise ValueError(f"P2Quantile requires finite samples, got {x!r}")
        self._n += 1
        if len(self._heights) < 5:
            self._heights.append(x)
            self._heights.sort()
            return
        h = self._heights
        # Find the marker cell containing x, updating the extremes.
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and x >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            npos, ppos = self._positions[i + 1], self._positions[i - 1]
            if (d >= 1.0 and npos - self._positions[i] > 1.0) or (
                d <= -1.0 and ppos - self._positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, step)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def n(self) -> int:
        """Number of observations folded so far."""
        return self._n

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before the first observation)."""
        if self._n == 0:
            return float("nan")
        if len(self._heights) < 5:
            return float(np.quantile(np.asarray(self._heights), self.q))
        return float(self._heights[2])
