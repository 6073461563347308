"""Grid-sampled random variables with sum and max operators.

The paper evaluates makespan distributions by representing every duration as
a probability density sampled on a small uniform grid (64 points in the
original GSL implementation) and combining them with exactly two operators:

* the **sum** of two independent RVs — the convolution of their PDFs;
* the **maximum** of two independent RVs — the product of their CDFs.

:class:`NumericRV` implements both, together with the statistics needed by
the robustness metrics (mean, variance, differential entropy, CDF queries,
quantiles).  A degenerate *point* (Dirac) variable is represented explicitly
so that deterministic quantities — zero same-processor communications, the
start time of entry tasks — flow through the same code path without numerical
widening.

Grid management
---------------
Supports are finite (all model distributions are scaled Betas).  After every
binary operation the result is refit onto a fresh uniform grid of
``grid_n`` points (default :data:`DEFAULT_GRID_SIZE`); the paper found 64
points "largely sufficient" and we default slightly higher for headroom.
Convolutions are computed with :func:`numpy.convolve` at a common step: at
these sizes the direct O(N²) product is faster than FFT *and* free of ringing
(negative lobes), which matters because PDFs must stay non-negative.
The per-op methods here are exact-only: they are the oracle that the
level-batched engine in :mod:`repro.stochastic.batch` reproduces, and that
engine alone implements the opt-in fast precision policy.

Atom accounting
---------------
``max_of`` with a point-mass operand that cuts a continuous distribution
produces a genuine *atom*: P(max ≤ floor) collapses onto the floor value.
The grid arrays approximate that atom as extra density in the first grid
cell (a representation choice the whole engine stack depends on — changing
the arrays would change every downstream convolution), but the exact mass
is additionally recorded in :attr:`NumericRV.atom` so the *metric layer*
(:meth:`prob_between`, :meth:`mean_above`) can account for it exactly
instead of treating the 2·mass/dx spike as smooth density.  The metadata
survives :meth:`shift`/:meth:`scale` and is deliberately dropped by
operations that smear the atom (sums, further maxima) — those fall back to
the historical in-cell approximation.  See docs/architecture.md.

The module-level array helpers (:func:`_convolve`, :func:`_trim_tails`,
:func:`_conv_grid_plan`, :func:`_trim_window`, :func:`_refit_pdf`,
:func:`_max_cell_guard`) are the single source of truth for the grid
algebra; the per-op methods here and the level-batched engine in
:mod:`repro.stochastic.batch` both call them, which is what makes the
batched walk bit-identical to the per-op walk.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.stochastic.grid import cumulative, normalize_pdf, resample_pdf

__all__ = ["NumericRV", "DEFAULT_GRID_SIZE"]

#: Default number of grid points for freshly built RVs (paper used 64).
DEFAULT_GRID_SIZE = 129

#: Hard cap on intermediate convolution sizes to bound memory/time.
_MAX_CONV_POINTS = 1 << 14

#: Hard cap on the N-way maximum's shared fine grid (``max_of``).
_MAX_FINE_POINTS = 8192

#: Per-side probability mass dropped when trimming numerical tails.  After a
#: long chain of sums the support widens like k while the density's effective
#: width grows like √k; without trimming, the fixed-size grid coarsens and
#: every resample diffuses the density (inflating the variance).  Trimming
#: keeps the grid step proportional to the actual spread.
_TAIL_EPS = 1e-9

#: Largest probability mass a ``max_of`` output may place in the wrong
#: output cell before :func:`_max_cell_guard` rebuilds it from the exact
#: cell masses of the CDF product.  Smooth products stay well below it —
#: at most 4.5e-3 over every join of the fig-6 quick suite, exact and fast
#: policy, so those outputs keep their bytes — while an operand narrower
#: than one output cell inside a wider operand's support can misplace
#: five percent and more.
_MAX_CELL_ERR = 1e-2


class NumericRV:
    """A continuous (or degenerate) random variable on a uniform grid.

    Instances are immutable.  Use the factory classmethods
    (:meth:`from_pdf`, :meth:`point`, :meth:`from_samples`) or the
    distribution helpers in :mod:`repro.stochastic.distributions`.

    Attributes
    ----------
    xs:
        Grid of support points (length ≥ 2), or a single-element array for a
        point mass.
    pdf:
        Density values on ``xs`` (normalized to unit trapezoid mass), or
        ``None`` for a point mass.
    atom:
        Exact probability mass of a Dirac atom sitting at ``xs[0]``.  The
        ``pdf`` array already *approximates* this atom as extra density in
        the first grid cell (``max_of``'s floor representation); the scalar
        here lets the metric layer undo that approximation.  0.0 for purely
        continuous RVs.
    """

    __slots__ = ("xs", "pdf", "atom", "_cdf")

    def __init__(
        self, xs: np.ndarray, pdf: np.ndarray | None, atom: float = 0.0
    ):
        self.xs = xs
        self.pdf = pdf
        self.atom = atom
        self._cdf: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def point(cls, x: float) -> "NumericRV":
        """Dirac mass at ``x``."""
        if not np.isfinite(x):
            raise ValueError(f"point mass requires a finite value, got {x!r}")
        return cls(np.array([float(x)]), None)

    @classmethod
    def from_pdf(
        cls,
        xs: Sequence[float] | np.ndarray,
        pdf: Sequence[float] | np.ndarray,
        grid_n: int | None = None,
    ) -> "NumericRV":
        """Build an RV from density samples on a *uniform* ascending grid.

        Negative density values are clipped to zero and the result is
        renormalized to unit mass.  If ``grid_n`` is given the density is
        resampled onto that many points.
        """
        xs = np.asarray(xs, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if xs.ndim != 1 or xs.shape != pdf.shape:
            raise ValueError("xs and pdf must be 1-D arrays of equal length")
        if len(xs) < 2:
            raise ValueError("need at least two grid points (use point() for Dirac)")
        steps = np.diff(xs)
        if np.any(steps <= 0):
            raise ValueError("xs must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12):
            raise ValueError("xs must be uniformly spaced")
        if not np.all(np.isfinite(pdf)):
            raise ValueError("pdf contains non-finite values")
        pdf = np.clip(pdf, 0.0, None)
        if grid_n is not None and grid_n != len(xs):
            new_xs = np.linspace(xs[0], xs[-1], grid_n)
            pdf = resample_pdf(xs, pdf, new_xs)
            xs = new_xs
        dx = xs[1] - xs[0]
        pdf = normalize_pdf(pdf, dx)
        return cls(xs, pdf)

    @classmethod
    def from_samples(
        cls, samples: Sequence[float] | np.ndarray, grid_n: int = DEFAULT_GRID_SIZE
    ) -> "NumericRV":
        """Kernel-free empirical density (histogram) of ``samples``.

        Used to visualise Monte-Carlo realizations against analytic
        evaluations (paper Figure 2).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.size < 2:
            raise ValueError("need at least two samples")
        lo, hi = float(samples.min()), float(samples.max())
        if hi <= lo:
            return cls.point(lo)
        counts, edges = np.histogram(samples, bins=grid_n - 1, range=(lo, hi), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        # Extend to bin edges so the support matches the sample range.
        xs = np.linspace(lo, hi, grid_n)
        pdf = np.interp(xs, centers, counts, left=counts[0], right=counts[-1])
        return cls.from_pdf(xs, pdf)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def is_point(self) -> bool:
        """True when this RV is a Dirac mass."""
        return self.pdf is None

    @property
    def lo(self) -> float:
        """Lower end of the support."""
        return float(self.xs[0])

    @property
    def hi(self) -> float:
        """Upper end of the support."""
        return float(self.xs[-1])

    @property
    def dx(self) -> float:
        """Grid step (0.0 for a point mass)."""
        if self.is_point:
            return 0.0
        return float(self.xs[1] - self.xs[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_point:
            return f"NumericRV.point({self.lo:.6g})"
        return (
            f"NumericRV(support=[{self.lo:.6g}, {self.hi:.6g}], "
            f"n={len(self.xs)}, mean={self.mean():.6g})"
        )

    def cdf_values(self) -> np.ndarray:
        """CDF sampled on :attr:`xs` (cached)."""
        if self.is_point:
            return np.array([1.0])
        if self._cdf is None:
            cdf = cumulative(self.pdf, self.dx)
            # Guard against accumulation drift: force the terminal value to 1.
            if cdf[-1] > 0:
                cdf = cdf / cdf[-1]
            self._cdf = np.clip(cdf, 0.0, 1.0)
        return self._cdf

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X ≤ x), evaluated by linear interpolation."""
        x = np.asarray(x, dtype=float)
        if self.is_point:
            out = (x >= self.lo).astype(float)
        else:
            out = np.interp(x, self.xs, self.cdf_values(), left=0.0, right=1.0)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def _continuous_cdf(self) -> np.ndarray:
        """Unnormalized CDF of the continuous part (atom spike removed).

        Sampled on :attr:`xs`; the terminal value is ≈ ``1 − atom``.  Only
        meaningful for atom-carrying RVs — the first grid cell's density is
        reduced by the ``2·atom/dx`` trapezoid spike before integrating.
        """
        pdf = self.pdf.copy()
        pdf[0] = max(pdf[0] - 2.0 * self.atom / self.dx, 0.0)
        return np.clip(cumulative(pdf, self.dx), 0.0, None)

    def quantile(self, q: float) -> float:
        """Smallest x with P(X ≤ x) ≥ q (linear interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        if self.is_point:
            return self.lo
        cdf = self.cdf_values()
        # np.interp needs an increasing x-array; the CDF may have flat runs,
        # in which case interp returns the left edge which is what we want.
        return float(np.interp(q, cdf, self.xs))

    def prob_between(self, a: float, b: float) -> float:
        """P(a ≤ X ≤ b), with exact accounting of degenerate mass.

        A Dirac mass at ``a`` (or anywhere inside ``[a, b]``) is counted in
        full — the naive ``cdf(b) − cdf(a)`` drops P(X = a) because the
        left-continuous interpolated CDF already includes it at ``a``.
        Likewise, the floor atom that :meth:`max_of` piles into the first
        grid cell is treated as a point mass at :attr:`lo` rather than as a
        density ramp across the cell.
        """
        if b < a:
            return 0.0
        if self.is_point:
            return 1.0 if a <= self.lo <= b else 0.0
        if self.atom > 0.0:
            cont = self._continuous_cdf
            g = np.interp([a, b], self.xs, cont, left=0.0, right=float(cont[-1]))
            mass = float(g[1]) - float(g[0])
            if a <= self.lo <= b:
                mass += self.atom
            return min(mass, 1.0)
        return float(self.cdf(b)) - float(self.cdf(a))

    # ------------------------------------------------------------------ #
    # moments and entropy
    # ------------------------------------------------------------------ #

    def mean(self) -> float:
        """Expected value E[X]."""
        if self.is_point:
            return self.lo
        return float(np.trapezoid(self.xs * self.pdf, dx=self.dx))

    def var(self) -> float:
        """Variance E[X²] − E[X]² (clipped at 0 against round-off)."""
        if self.is_point:
            return 0.0
        m = self.mean()
        second = float(np.trapezoid((self.xs - m) ** 2 * self.pdf, dx=self.dx))
        return max(second, 0.0)

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.var()))

    def entropy(self) -> float:
        """Differential entropy h(X) = −∫ f ln f (natural log, nats).

        The paper writes the integral without the minus sign but *minimizes*
        it; we use the standard sign so that, like every other metric, a
        robust (narrow) distribution has a *small* value.  A point mass
        returns ``-inf``.
        """
        if self.is_point:
            return float("-inf")
        f = self.pdf
        integrand = np.where(f > 0.0, -f * np.log(np.where(f > 0.0, f, 1.0)), 0.0)
        return float(np.trapezoid(integrand, dx=self.dx))

    def mean_above(self, threshold: float) -> float:
        """E[X | X > threshold] (used by the average-lateness metric).

        Returns ``threshold`` when there is (numerically) no mass above it.

        When the threshold lands inside an atom-carrying first cell (a
        :meth:`max_of` floor), the ``2·atom/dx`` spike must not be
        interpolated as smooth density: the atom sits exactly at
        :attr:`lo` ≤ threshold, so it is excluded and the integration uses
        the continuous density only.
        """
        if self.is_point:
            return max(self.lo, threshold)
        if threshold >= self.hi:
            return threshold
        atom_cell = self.atom > 0.0 and self.lo <= threshold < float(self.xs[1])
        if threshold <= self.lo and not atom_cell:
            return self.mean()
        pdf_eval = self.pdf
        if atom_cell:
            # Remove the atom spike from the interpolation endpoint: the
            # mass it stands for is at lo, strictly below the threshold.
            pdf_eval = self.pdf.copy()
            pdf_eval[0] = max(pdf_eval[0] - 2.0 * self.atom / self.dx, 0.0)
        mask = self.xs > threshold
        xs = np.concatenate(([threshold], self.xs[mask]))
        pdf = np.concatenate(
            ([float(np.interp(threshold, self.xs, pdf_eval))], pdf_eval[mask])
        )
        mass = float(np.trapezoid(pdf, xs))
        if mass <= 1e-12:
            return threshold
        return float(np.trapezoid(xs * pdf, xs) / mass)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def shift(self, c: float) -> "NumericRV":
        """X + c for a constant c."""
        c = float(c)
        if c == 0.0:
            return self
        if self.is_point:
            return NumericRV.point(self.lo + c)
        rv = NumericRV(self.xs + c, self.pdf, atom=self.atom)
        rv._cdf = self._cdf
        return rv

    def scale(self, c: float) -> "NumericRV":
        """c·X for a constant c > 0."""
        c = float(c)
        if c <= 0.0:
            raise ValueError(f"scale factor must be positive, got {c}")
        if c == 1.0:
            return self
        if self.is_point:
            return NumericRV.point(self.lo * c)
        return NumericRV(self.xs * c, self.pdf / c, atom=self.atom)

    def __add__(self, other: "NumericRV | float") -> "NumericRV":
        if isinstance(other, (int, float, np.floating)):
            return self.shift(float(other))
        return self.add(other)

    __radd__ = __add__

    def __mul__(self, c: float) -> "NumericRV":
        return self.scale(float(c))

    __rmul__ = __mul__

    def add(self, other: "NumericRV", grid_n: int | None = None) -> "NumericRV":
        """Distribution of X + Y for independent X, Y.

        The PDFs are brought to a common step and convolved; the result is
        refit to ``grid_n`` points (default: the larger of the two operand
        grids).
        """
        if self.is_point:
            return other.shift(self.lo)
        if other.is_point:
            return self.shift(other.lo)
        if grid_n is None:
            grid_n = max(len(self.xs), len(other.xs))
        xs, pdf = _convolve(self.xs, self.pdf, other.xs, other.pdf)
        xs, pdf = _trim_tails(xs, pdf)
        return NumericRV.from_pdf(xs, pdf, grid_n=grid_n)

    def maximum(
        self, other: "NumericRV", grid_n: int | None = None
    ) -> "NumericRV":
        """Distribution of max(X, Y) for independent X, Y (CDF product)."""
        return NumericRV.max_of([self, other], grid_n=grid_n)

    def sum_iid(self, k: int, grid_n: int | None = None) -> "NumericRV":
        """Distribution of the sum of ``k`` independent copies of X.

        Intermediate convolutions keep full resolution (no downsampling) so
        that the CLT-convergence study of Figure 8 is not polluted by
        resampling smoothing; only the final result is refit.
        """
        if k < 1:
            raise ValueError(f"k must be ≥ 1, got {k}")
        if k == 1:
            return self
        if self.is_point:
            return NumericRV.point(self.lo * k)
        xs, pdf = self.xs, self.pdf
        for _ in range(k - 1):
            xs, pdf = _convolve(xs, pdf, self.xs, self.pdf)
        out = NumericRV.from_pdf(xs, pdf)
        if grid_n is not None:
            out = out.resampled(grid_n)
        return out

    def max_iid(self, k: int) -> "NumericRV":
        """Distribution of the max of ``k`` independent copies of X (CDF^k)."""
        if k < 1:
            raise ValueError(f"k must be ≥ 1, got {k}")
        if k == 1 or self.is_point:
            return self
        f = self.cdf_values() ** k
        pdf = np.gradient(f, self.xs)
        return NumericRV.from_pdf(self.xs, pdf)

    def resampled(self, grid_n: int) -> "NumericRV":
        """Refit onto a fresh uniform grid of ``grid_n`` points."""
        if self.is_point:
            return self
        return NumericRV.from_pdf(self.xs, self.pdf, grid_n=grid_n)

    @staticmethod
    def max_of(
        rvs: "Iterable[NumericRV]", grid_n: int | None = None
    ) -> "NumericRV":
        """Maximum of several independent RVs.

        Computed as a *single* N-way CDF product on a shared fine grid —
        folding pairwise would resample (and thus slightly diffuse) the
        density once per operand, a bias that compounds badly on the
        high-in-degree joins of dense DAGs.

        Point masses contribute a floor constant: mass below the floor
        collapses onto it and is represented as extra density in the first
        grid cell (an approximation documented in DESIGN.md; it only occurs
        when a deterministic ready time cuts a finish distribution).

        A result whose resample onto the output grid misplaces probability
        mass (an operand narrower than one output cell inside a wider one)
        is rebuilt from exact cell masses by :func:`_max_cell_guard`.
        """
        rvs = list(rvs)
        if not rvs:
            raise ValueError("max_of() requires at least one RV")
        floor = -np.inf
        continuous: list[NumericRV] = []
        for rv in rvs:
            if rv.is_point:
                floor = max(floor, rv.lo)
            else:
                continuous.append(rv)
        if not continuous:
            return NumericRV.point(floor)
        if len(continuous) == 1 and floor <= continuous[0].lo:
            return continuous[0]
        if grid_n is None:
            grid_n = max(len(rv.xs) for rv in continuous)
        lo = max(max(rv.lo for rv in continuous), floor)
        hi = max(rv.hi for rv in continuous)
        if hi <= max(floor, lo):
            return NumericRV.point(max(floor, lo))
        # The evaluation grid must resolve the *narrowest* operand, not just
        # the union support — otherwise a tight distribution inside a wide
        # one is stepped over and its CDF contribution mangled.
        min_dx = min(rv.dx for rv in continuous)
        fine = int(
            min(max(4 * grid_n, np.ceil((hi - lo) / min_dx) + 1), _MAX_FINE_POINTS)
        )
        xs = np.linspace(lo, hi, fine)
        f = np.ones(fine)
        for rv in continuous:
            f *= np.asarray(rv.cdf(xs))
        pdf = np.clip(np.gradient(f, xs), 0.0, None)
        atom_mass = float(f[0])
        if atom_mass > 1e-12:
            # P(max ≤ lo) > 0: an atom at the floor.  Normalize the
            # continuous part to carry mass (1 − atom), downsample to the
            # final grid, and only then pile the atom into the first cell
            # (trapezoid weight dx/2) — adding the spike before the final
            # resample would rescale its mass by the grid-step ratio.  The
            # exact mass is recorded as RV metadata so the metric layer can
            # treat it as the point mass it really is.
            xs, pdf = _trim_tails(xs, pdf, left=False)
            out_xs = np.linspace(xs[0], xs[-1], grid_n)
            out_pdf = resample_pdf(xs, pdf, out_xs)
            dx = out_xs[1] - out_xs[0]
            total = float(np.trapezoid(out_pdf, dx=dx))
            if total > 0.0:
                out_pdf *= (1.0 - atom_mass) / total
            out_pdf[0] += 2.0 * atom_mass / dx
            return _max_cell_guard(
                continuous, NumericRV(out_xs, out_pdf, atom=atom_mass)
            )
        xs, pdf = _trim_tails(xs, pdf)
        return _max_cell_guard(
            continuous, NumericRV.from_pdf(xs, pdf, grid_n=grid_n)
        )


def _max_cell_guard(
    continuous: Sequence[NumericRV], out: NumericRV
) -> NumericRV:
    """Rebuild a ``max_of`` result whose resample misplaced probability mass.

    ``max_of`` samples the fine-grid density of the CDF product at the
    output grid points.  That is accurate while the product is smooth on
    the output step, but an operand narrower than one output cell that
    sits inside a wider operand's support puts a spike into the first
    cells, and the output grid sees it at one arbitrary point: its cell's
    probability can come out doubled or lost, and the mean can move by
    several cells.

    Each output point stands for its trapezoid cell (half cells at the
    two ends).  The exact probability of a cell is a difference of the
    CDF product at the cell edges; P(max ≤ xs[0]) — a floor atom or the
    trimmed left tail — belongs to the first point and the trimmed right
    tail to the last.  When some cell's sampled mass is off by more than
    :data:`_MAX_CELL_ERR`, the density is rebuilt as cell mass over cell
    width (its mean is then within half a cell of the exact one);
    otherwise ``out`` is returned unchanged, bytes included.  The batched
    engine applies this to its own ``max_of`` outputs, so the two paths
    stay bit-identical.
    """
    xs, dx = out.xs, out.dx
    edges = np.empty(len(xs) + 1)
    edges[0] = xs[0]
    edges[1:-1] = xs[:-1] + 0.5 * dx
    edges[-1] = xs[-1]
    f = np.ones(len(edges))
    for rv in continuous:
        f *= np.asarray(rv.cdf(edges))
    mass = np.diff(f)
    mass[0] += f[0]
    mass[-1] += 1.0 - f[-1]
    width = np.full(len(xs), dx)
    width[0] = width[-1] = 0.5 * dx
    if np.abs(width * out.pdf - mass).max() <= _MAX_CELL_ERR:
        return out
    pdf = np.clip(mass, 0.0, None) / width
    return NumericRV(xs, normalize_pdf(pdf, dx), atom=out.atom)


def _trim_window(
    cdf: np.ndarray,
    n: int,
    eps: float = _TAIL_EPS,
    left: bool = True,
) -> tuple[int, int]:
    """Trim decision of :func:`_trim_tails` given the cumulative mass.

    Returns the inclusive ``(lo_idx, hi_idx)`` window of the ``n``-point
    grid whose cumulative (un-normalized) integral is ``cdf``.  Split out so
    the batched engine can reproduce the exact decision from row-batched
    cumulative arrays.
    """
    total = cdf[n - 1]
    if n < 3 or total <= 0.0:
        return 0, n - 1
    lo_idx = int(np.searchsorted(cdf[:n], eps * total, side="left")) if left else 1
    hi_idx = int(np.searchsorted(cdf[:n], (1.0 - eps) * total, side="right"))
    lo_idx = max(lo_idx - 1, 0)
    hi_idx = min(hi_idx + 1, n - 1)
    if hi_idx - lo_idx < 2:
        lo_idx = max(min(lo_idx, n - 3), 0)
        hi_idx = min(lo_idx + 2, n - 1)
    return lo_idx, hi_idx


def _trim_tails(
    xs: np.ndarray,
    pdf: np.ndarray,
    eps: float = _TAIL_EPS,
    left: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop leading/trailing grid cells carrying < ``eps`` probability mass."""
    if len(xs) < 3:
        return xs, pdf
    dx = xs[1] - xs[0]
    cdf = cumulative(pdf, dx)
    lo_idx, hi_idx = _trim_window(cdf, len(xs), eps=eps, left=left)
    return xs[lo_idx : hi_idx + 1], pdf[lo_idx : hi_idx + 1]


def _conv_grid_plan(
    dx_a: float,
    width_a: float,
    dx_b: float,
    width_b: float,
    max_points: int = _MAX_CONV_POINTS,
) -> tuple[float, int, int]:
    """Common-step grid plan of :func:`_convolve`: ``(dx, n_a, n_b)``.

    The step is the finer of the two operand steps, coarsened when the
    joint support would exceed ``max_points`` — :data:`_MAX_CONV_POINTS`
    in exact mode, a smaller budget under the batched engine's fast
    precision policy.  Split out so the batched engine plans with the
    identical arithmetic.
    """
    dx = min(dx_a, dx_b)
    n_out = (width_a + width_b) / dx
    if n_out > max_points:
        dx = (width_a + width_b) / max_points
    n_a = max(int(np.ceil(width_a / dx)) + 1, 2)
    n_b = max(int(np.ceil(width_b / dx)) + 1, 2)
    return dx, n_a, n_b


def _rescue_lost_operand(
    xs: np.ndarray, pdf: np.ndarray, grid: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Mass-preserving fallback when a conv grid undersamples an operand.

    A coarsened common step (the fast policy's budget, or the exact plan
    past :data:`_MAX_CONV_POINTS`) can exceed a narrow operand's entire
    support; ``resample_pdf`` then sees the density only at (or beyond)
    its support endpoints, where Beta-family pdfs vanish, and the
    operand's mass is lost entirely — a fatal zero-mass convolution.  At
    that resolution the operand *is* a point mass, so represent it as the
    lever-rule split of unit mass over the two grid points bracketing its
    mean: mass and mean are preserved, and the error is bounded by the
    cell width.  Any ``y`` with mass is returned untouched.
    """
    if y.any():
        return y
    dx = grid[1] - grid[0]
    mean = float(np.trapezoid(xs * pdf, x=xs) / np.trapezoid(pdf, x=xs))
    j = int(np.clip(np.searchsorted(grid, mean) - 1, 0, len(grid) - 2))
    t = float(np.clip((mean - grid[j]) / dx, 0.0, 1.0))
    out = np.zeros_like(y)
    out[j] = (1.0 - t) / dx
    out[j + 1] = t / dx
    return out


def _convolve(
    xs_a: np.ndarray,
    pdf_a: np.ndarray,
    xs_b: np.ndarray,
    pdf_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolve two uniformly sampled PDFs, returning (xs, pdf) samples.

    Both inputs are resampled to a common step (the finer of the two, coarsened
    if the joint support would exceed :data:`_MAX_CONV_POINTS`).
    """
    dx_a = xs_a[1] - xs_a[0]
    dx_b = xs_b[1] - xs_b[0]
    width_a = xs_a[-1] - xs_a[0]
    width_b = xs_b[-1] - xs_b[0]
    dx, n_a, n_b = _conv_grid_plan(dx_a, width_a, dx_b, width_b)
    # Both grids must share the *exact* same step for the convolution axis to
    # be consistent, so build them with arange (the last point may overshoot
    # the support slightly; the density is zero there).
    grid_a = xs_a[0] + dx * np.arange(n_a)
    grid_b = xs_b[0] + dx * np.arange(n_b)
    ya = _rescue_lost_operand(xs_a, pdf_a, grid_a, resample_pdf(xs_a, pdf_a, grid_a))
    yb = _rescue_lost_operand(xs_b, pdf_b, grid_b, resample_pdf(xs_b, pdf_b, grid_b))
    conv = np.convolve(ya, yb) * dx
    out_xs = (xs_a[0] + xs_b[0]) + dx * np.arange(len(conv))
    return out_xs, conv
