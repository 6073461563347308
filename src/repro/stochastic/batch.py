"""Level-synchronous batched grid-RV engine (bit-identical to the per-op walk).

The classical and Dodin engines evaluate a schedule by walking its DAG and
combining :class:`~repro.stochastic.rv.NumericRV` grids with exactly two
operations — sums (convolutions at a common step) and maxima (N-way CDF
products on a shared fine grid).  After PR 3 vectorized every other engine,
this per-op walk dominates the fig-6 campaign wall-clock: each tiny grid
operation costs a dozen numpy calls plus object/validation overhead.

:class:`BatchedGridEngine` evaluates one DAG *level* at a time:

* every convolution of the level runs through one planned pipeline — the
  per-pair common-step grids of :func:`rv._conv_grid_plan` and one
  ``np.convolve`` per unique pair (the only reduction whose float grouping
  depends on operand length, so it is never padded), then batched trims
  and ``linspace``/resample/trapezoid refits: rows of at least
  :data:`_LONG_ROW` points are trimmed one by one from an in-place
  cumulative and refit together by :func:`interp_lattice`, which reads the
  conv grid ``c0 + dx·k`` only at the indices it gathers; shorter rows are
  trimmed in length-bucketed padded 2-D blocks (cumulative mass + window
  decisions);
* every N-way maximum of the level is grouped by fine-grid size and
  evaluated as one vectorized CDF product per group — per-operand C
  interpolations folded with one running product, one row-batched
  gradient, and batched trim/refit/atom accounting.  A join is planned
  from all its operands (lower bound ``lo``, upper bound, finest step,
  fine-grid size) but its product and cell guard read only the *live*
  ones.  An operand whose support ends at or below ``lo`` is skipped, and
  that is exact: every fine point and guard edge lies at or above ``lo``,
  where its CDF reads exactly 1.0 (``np.interp``'s ``right=1.0`` fill past
  its end, ``cdf_values()[-1] = x/x`` at it), so its factor would be
  ``f *= 1.0``, which changes no bit.  Its CDF is never built;
* ``model.rv(duration)`` results are **interned** per engine (durations
  repeat heavily across tasks and edges); the common-step operand
  resample of an interned RV at its own step — the one kind that recurs —
  is memoized, and every other resample is computed and dropped; sum/max
  results are memoized by operand *value*: every operand is first mapped
  to a content-keyed value id (support endpoints, length, atom and the
  raw density bytes), so two distinct objects holding equal arrays — e.g.
  the same sub-expression reached through two schedules of a
  shared-engine case panel — hit the same memo entry.  The id→vid
  mapping is cached per object (with the operands kept alive so ids stay
  valid), making the common case a single dict hit.

The classical walk feeds the engine a whole panel of schedules at once
(:func:`repro.analysis.classical.classical_makespans`): one engine call
per step carries that level of every schedule, which is what fills the
batched blocks — a single schedule's level rarely reaches
:data:`_MIN_BATCH` unique jobs.

Precision policy
----------------
The common-step planner (:func:`rv._conv_grid_plan`) resolves the *finer*
of the two operand steps, so a narrow communication RV imposes its fine
step on every wide partner and the intermediate grids of a dense-graph
walk grow to ~16k points (the "convolution wall").  ``model.fast_conv``
selects the policy, and this engine is the only implementation of both —
every grid walk, Dodin's series/parallel reduction included, computes its
sums and maxima here:

* **exact** (the default, and the oracle): the historical plan,
  bit-identical to the per-op :class:`~repro.stochastic.rv.NumericRV`
  methods (see *Bit-identity* below);
* **fast**: convolution plans cap at ``_FAST_CONV_FACTOR·grid_n`` points
  and N-way maximum fine grids at ``_FAST_MAX_FACTOR·grid_n``, and
  convolutions whose operands are both large dispatch to an FFT kernel
  (:func:`_fft_convolve`; the ~1e-13 ringing is clipped at zero).

The fast policy's error is *measured* against the exact oracle
(``tests/analysis/test_fast_conv.py``; docs/performance.md has the bounds,
~5e-3 pdf sup-error and ≤ 3 % relative on the §IV metrics at fig-6
shapes), and tier-1 pins its bytes by digest, since no second
implementation reproduces them.  :attr:`BatchedGridEngine.stats` reports
how often the caps bound (``conv_capped``/``max_capped``/``fft_convs``);
when none did, fast output equals exact output bit-for-bit.

Bit-identity
------------
Floating-point reductions (``np.convolve``, row sums, cumulative sums) are
order-sensitive, so the engine only batches operations that are provably
order-preserving: elementwise arithmetic, per-row cumulative sums (padding
only ever *follows* the true data, which cumulative prefixes never read),
per-row pairwise reductions over equal-length rows, and an exact
vectorized replica of ``np.interp`` (:func:`interp_uniform`, and
:func:`interp_lattice` for lattice sources — gathers and elementwise
formulas, no reductions) plus one of ``np.gradient``
(:func:`gradient_rows`).  Every decision (common steps, trim windows,
fine-grid sizes, atom thresholds) runs the same arithmetic as the per-op
methods in :mod:`repro.stochastic.rv`.  The frozen per-op walks in
:mod:`repro.analysis._reference` are the oracles; the equivalence suite
asserts exact array equality, and the fig-1/2/6 artifact hashes are
unchanged (a pre-change campaign cache loads warm).

A panel walk split across forked walkers
(:func:`repro.analysis.classical.classical_makespans`) runs each share on
its own copy-on-write copy of one engine.  The memos are content-pure, so
no walker depends on what another computed; the walkers' work counters
(:data:`WORK_COUNTERS`) come back to the parent's engine as deltas.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.stochastic.grid import cumulative, resample_pdf
from repro.stochastic.model import StochasticModel
from repro.stochastic.rv import (
    NumericRV,
    _MAX_CONV_POINTS,
    _MAX_FINE_POINTS,
    _TAIL_EPS,
    _conv_grid_plan,
    _max_cell_guard,
    _rescue_lost_operand,
    _trim_window,
)

__all__ = [
    "BatchedGridEngine",
    "engine_for",
    "interp_uniform",
    "interp_lattice",
    "gradient_rows",
]

#: Length-bucket growth bound for padded trim blocks: rows are sorted by
#: length and split whenever padding a row to the bucket maximum would waste
#: more than this factor (small buckets accept more padding — fixed
#: per-bucket cost beats bounded elementwise waste).  Purely a speed knob —
#: padding is bit-neutral.
_BUCKET_RATIO = 1.5

#: Below this many unique jobs a level step runs the streamlined per-op
#: scalar path instead of the padded batch pipeline (same primitives, same
#: results; the batch stages only amortize past a few rows).
_MIN_BATCH = 6

#: Convolution rows of at least this many points skip the padded 2-D block:
#: each is trimmed from an in-place cumulative and the batch refits through
#: :func:`interp_lattice` (:meth:`BatchedGridEngine._refit_long`).  Measured
#: on 12-row buckets (2-vCPU x86 host, numpy 2.4): the block costs 19-27 µs
#: per row up to ~1,200 points, then 55-400 µs from 1,600 to 15,000; the
#: in-place path 26-29 µs up to ~1,200 and 92 µs at 15,000.  On the exact
#: dense-random walks (rows of median ~5,000 and p90 ~16,000 points)
#: thresholds of 1,024 and 2,048 both halve the refit time of the four
#: `dense` benchmark cases (4.4 s → 2.2 s); 1,024 keeps the fast policy's
#: ~520-point rows on the block.  Purely a speed knob — both paths are
#: bit-identical.
_LONG_ROW = 1024

#: Fast-policy resolution budget, in multiples of the output grid size:
#: convolution plans cap at ``_FAST_CONV_FACTOR·grid_n`` points and maximum
#: fine grids at ``_FAST_MAX_FACTOR·grid_n``.  Chosen by measurement (see
#: docs/performance.md): 8×/16× keeps the §IV metric deltas ≤ ~3 % relative
#: (makespan mean ≤ ~3e-4) at the fig-6 shapes while removing the ~16k-point
#: intermediate grids that dominate dense-random walks.
_FAST_CONV_FACTOR = 8
_FAST_MAX_FACTOR = 16

#: FFT dispatch threshold (fast policy only): the rfft round trip beats the
#: direct O(N²) product once *both* operands reach this many points
#: (measured crossover ≈ (512, 512) on the bench machine; direct wins at
#: every asymmetric shape like (16384, 65) because the product is small).
_FFT_MIN_OPERAND = 512

#: The :attr:`BatchedGridEngine.stats` keys that count work done.  A forked
#: walker sends its deltas of these back and its parent adds them
#: (:meth:`BatchedGridEngine.add_work`); the other keys size pools that
#: stay the parent's own.
WORK_COUNTERS = (
    "resample_memo", "conv_macs", "conv_capped", "max_capped", "fft_convs"
)


def _fast_conv_points(grid_n: int) -> int:
    """Fast-policy convolution plan cap for an output grid of ``grid_n``."""
    return min(_FAST_CONV_FACTOR * grid_n, _MAX_CONV_POINTS)


def _fast_max_points(grid_n: int) -> int:
    """Fast-policy ``max_of`` fine-grid cap for an output grid of ``grid_n``."""
    return min(_FAST_MAX_FACTOR * grid_n, _MAX_FINE_POINTS)


def _fft_convolve(ya: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """Full linear convolution of two sample vectors via real FFTs.

    Equivalent to ``np.convolve(ya, yb)`` up to ~1e-13 ringing, which is
    clipped at zero so densities stay non-negative.  Fast policy only —
    the dispatch in :func:`_conv_kernel` keeps the exact path on the
    direct product.  :mod:`scipy.fft` is imported here, on first use, so a
    run in which the FFT never fires never loads it.
    """
    try:  # SciPy's pocketfft plans composite sizes.
        from scipy.fft import irfft, next_fast_len, rfft
    except ImportError:  # pragma: no cover - exercised on SciPy-less installs
        rfft, irfft, next_fast_len = np.fft.rfft, np.fft.irfft, _next_pow2
    n_out = len(ya) + len(yb) - 1
    nfft = next_fast_len(n_out)
    conv = irfft(rfft(ya, nfft) * rfft(yb, nfft), nfft)[:n_out]
    return np.maximum(conv, 0.0)


def _next_pow2(n: int) -> int:
    """Next power of two ≥ n (numpy fallback for scipy's planner)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _conv_kernel(ya: np.ndarray, yb: np.ndarray, fast: bool = False) -> np.ndarray:
    """Convolution kernel dispatch: direct product, or FFT under ``fast``.

    The FFT only wins when *both* operands are large (the planner's capped
    grids make the typical fast-policy product small, where the direct C
    kernel stays ahead), so the fast policy dispatches on
    :data:`_FFT_MIN_OPERAND`.
    """
    if fast and min(len(ya), len(yb)) >= _FFT_MIN_OPERAND:
        return _fft_convolve(ya, yb)
    return np.convolve(ya, yb)


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """Bit-exact ``np.linspace(start, stop, num)`` without wrapper overhead.

    Numpy's own arithmetic — ``arange(num) * (delta/div) += start`` with the
    endpoint pinned — verified bit-identical by the equivalence tests.
    """
    y = np.arange(num) * ((stop - start) / (num - 1))
    y += start
    y[-1] = stop
    return y


def _trapz(y: np.ndarray, dx: float) -> float:
    """Bit-exact ``np.trapezoid(y, dx=dx)`` without wrapper overhead."""
    return float((dx * (y[1:] + y[:-1]) / 2.0).sum())


def _linspace_rows(
    start: np.ndarray, stop: np.ndarray, num: int
) -> np.ndarray:
    """Bit-exact ``np.linspace(start, stop, num, axis=-1)`` for 1-D endpoints."""
    y = np.arange(num) * ((stop - start) / (num - 1))[:, None]
    y += start[:, None]
    y[:, -1] = stop
    return y


def interp_uniform(
    xq: np.ndarray,
    seg: np.ndarray,
    xp2: np.ndarray,
    fp2: np.ndarray,
    left: float,
    right: float,
) -> np.ndarray:
    """Bit-exact vectorized ``np.interp`` against rows of a 2-D source.

    ``xq`` are flattened queries, ``seg[i]`` the row of ``xp2``/``fp2``
    serving query ``i``; ``left``/``right`` are the shared out-of-range
    fill values.  Source rows must be strictly increasing and
    *near*-uniform (linspace/arange built): the interval index is seeded by
    step arithmetic and corrected with exact comparisons, so the result
    matches ``np.interp``'s binary search bit-for-bit (the interpolation
    formula ``slope·(x − xp[j]) + fp[j]`` is numpy's own).
    """
    n = xp2.shape[1]
    xp_flat = xp2.reshape(-1)
    fp_flat = fp2.reshape(-1)
    off = seg * n
    x0 = xp_flat[off]
    xlast = xp_flat[off + n - 1]
    step = (xlast - x0) / (n - 1)
    j = ((xq - x0) / step).astype(np.intp)
    np.clip(j, 0, n - 2, out=j)
    # Correct the seeded interval with exact comparisons.  The arithmetic
    # seed is off by at most one index on these near-uniform grids (the
    # division error is orders of magnitude below one step), so one
    # downward and one upward pass land exactly where binary search does.
    j -= (xp_flat[off + j] > xq) & (j > 0)
    j += (j < n - 2) & (xp_flat[off + j + 1] <= xq)
    ej = off + j
    xpj = xp_flat[ej]
    fpj = fp_flat[ej]
    slope = (fp_flat[ej + 1] - fpj) / (xp_flat[ej + 1] - xpj)
    res = slope * (xq - xpj) + fpj
    res = np.where(xq == xlast, fp_flat[off + n - 1], res)
    res = np.where(xq < x0, left, res)
    res = np.where(xq > xlast, right, res)
    return res


def interp_lattice(
    xq: np.ndarray,
    c0: np.ndarray,
    dx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fps: Sequence[np.ndarray],
    left: float,
    right: float,
) -> np.ndarray:
    """Bit-exact row-wise ``np.interp`` against lattice windows.

    Row ``p`` of the 2-D queries ``xq`` is interpolated exactly like
    ``np.interp(xq[p], c0[p] + dx[p] * np.arange(lo[p], hi[p] + 1),
    fps[p][lo[p] : hi[p] + 1], left=left, right=right)`` — but no source
    grid is built: the coordinates ``c0 + dx·k`` are evaluated only at the
    indices ``k`` the search visits, and densities are gathered from
    ``fps``.  The search is :func:`interp_uniform`'s (an arithmetic seed
    corrected by exact comparisons), which lands where binary search does.
    """
    c = c0[:, None]
    d = dx[:, None]
    k_lo = lo[:, None]
    k_last = (hi - 1)[:, None]
    x0 = c + d * k_lo
    xlast = c + d * hi[:, None]
    j = ((xq - c) / d).astype(np.intp)
    np.clip(j, k_lo, k_last, out=j)
    j -= ((c + d * j) > xq) & (j > k_lo)
    j += (j < k_last) & ((c + d * (j + 1)) <= xq)
    xpj = c + d * j
    fpj = np.empty_like(xq)
    fpj1 = np.empty_like(xq)
    flast = np.empty(len(xq))
    for p, fp in enumerate(fps):
        fpj[p] = fp[j[p]]
        fpj1[p] = fp[j[p] + 1]
        flast[p] = fp[hi[p]]
    slope = (fpj1 - fpj) / ((c + d * (j + 1)) - xpj)
    res = slope * (xq - xpj) + fpj
    res = np.where(xq == xlast, flast[:, None], res)
    res = np.where(xq < x0, left, res)
    res = np.where(xq > xlast, right, res)
    return res


def gradient_rows(f: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise ``np.gradient(f[i], xs[i])`` for 2-D inputs, bit-exact.

    Replicates numpy's second-order interior / first-order edge formulas,
    including its uniform-spacing fast path (taken per row exactly when
    ``np.diff(xs[i])`` is bit-constant, as numpy itself decides).
    """
    d = np.diff(xs, axis=-1)
    out = np.empty_like(f)
    dx1 = d[:, :-1]
    dx2 = d[:, 1:]
    a = -dx2 / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    out[:, 1:-1] = a * f[:, :-2] + b * f[:, 1:-1] + c * f[:, 2:]
    uniform = (d == d[:, :1]).all(axis=-1)
    if uniform.any():
        u = np.flatnonzero(uniform)
        du = d[u, :1]
        out[u, 1:-1] = (f[u, 2:] - f[u, :-2]) / (2.0 * du)
    out[:, 0] = (f[:, 1] - f[:, 0]) / d[:, 0]
    out[:, -1] = (f[:, -1] - f[:, -2]) / d[:, -1]
    return out


def _long_row_window(conv: np.ndarray, c0: float, dx: float) -> tuple:
    """:func:`rv._trim_window` of one conv row from an in-place cumulative.

    The arithmetic of :func:`~repro.stochastic.grid.cumulative` at the
    grid step ``(c0 + dx) − c0``, as :meth:`BatchedGridEngine._refit_single`
    reads it.
    """
    n = len(conv)
    cdf = np.empty(n)
    cdf[0] = 0.0
    tail = cdf[1:]
    np.add(conv[1:], conv[:-1], out=tail)
    tail *= 0.5 * ((c0 + dx) - c0)
    np.cumsum(tail, out=tail)
    return _trim_window(cdf, n)


def _rows_cumulative(pdf: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Row-batched :func:`repro.stochastic.grid.cumulative` (padding-safe).

    ``dx`` is one step per row.  Rows may be zero-padded past their true
    length — cumulative prefixes never read past their own index.
    """
    out = np.empty_like(pdf)
    out[:, 0] = 0.0
    np.cumsum(
        (pdf[:, 1:] + pdf[:, :-1]) * (0.5 * dx)[:, None], axis=-1, out=out[:, 1:]
    )
    return out


def _rows_trim_window(
    cdf: np.ndarray, lengths: np.ndarray, left: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Row-batched :func:`repro.stochastic.rv._trim_window` decisions.

    ``cdf`` rows are cumulative masses, possibly padded past ``lengths``;
    the searchsorted calls of the scalar helper become exact boolean
    ``argmax`` scans (first index satisfying the same comparison).
    """
    rows = np.arange(len(cdf))
    total = cdf[rows, lengths - 1]
    eps = _TAIL_EPS
    if left:
        lo = np.argmax(cdf >= (eps * total)[:, None], axis=-1)
    else:
        lo = np.ones(len(cdf), dtype=np.intp)
    hi = np.argmax(cdf > ((1.0 - eps) * total)[:, None], axis=-1)
    lo = np.maximum(lo - 1, 0)
    hi = np.minimum(hi + 1, lengths - 1)
    narrow = hi - lo < 2
    lo_fix = np.maximum(np.minimum(lo, lengths - 3), 0)
    hi_fix = np.minimum(lo_fix + 2, lengths - 1)
    lo = np.where(narrow, lo_fix, lo)
    hi = np.where(narrow, hi_fix, hi)
    # Degenerate rows (< 3 points or no mass) keep the full window.
    keep = (lengths < 3) | (total <= 0.0)
    lo = np.where(keep, 0, lo)
    hi = np.where(keep, lengths - 1, hi)
    return lo, hi


def _block_rows(
    xs2: np.ndarray, pdf2: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple:
    """``_finish_refit`` sources over (possibly padded) 2-D op rows.

    The interpolation sources are the rows themselves, which is exact
    because in-window queries never reach the padding.
    """
    rows = np.arange(len(xs2))

    def resample(g: np.ndarray, out_xs: np.ndarray) -> np.ndarray:
        gn = out_xs.shape[1]
        return interp_uniform(
            out_xs.reshape(-1), np.repeat(g, gn), xs2, pdf2, 0.0, 0.0
        ).reshape(len(g), gn)

    def window(p: int) -> tuple[np.ndarray, np.ndarray]:
        return xs2[p, lo[p] : hi[p] + 1].copy(), pdf2[p, lo[p] : hi[p] + 1]

    return xs2[rows, lo], xs2[rows, hi], resample, window


class BatchedGridEngine:
    """Batched, interned, memoized grid-RV algebra for one model.

    One engine instance serves one (schedule-walk, model) evaluation — or
    several walks over the same model, sharing the duration-RV intern pool
    and the operation memos (the walks check that it was built for their
    model through :func:`engine_for`).  All results are bit-identical to
    the per-op :class:`NumericRV` methods (see the module docstring).
    """

    def __init__(self, model: StochasticModel):
        self.model = model
        #: Whether the fast precision policy is active (``model.fast_conv``).
        self.fast_conv = model.fast_conv
        self._rv_pool: dict[float, NumericRV] = {}
        self._interned: set[int] = set()  # id() of the _rv_pool members
        self._point_pool: dict[float, NumericRV] = {}
        self._add_memo: dict[tuple[int, int], tuple] = {}
        self._max_memo: dict[tuple[int, ...], tuple] = {}
        # Operand resamples keyed on (value id, dx, n), kept only for an
        # interned duration RV at its own step: the one kind that recurs.
        # Every other resample (a finish-time grid at a partner's fine
        # step, often ~16k points) missed in 32,139 of 32,139 lookups on
        # the dense random_n100 panels and 6,637 of 6,687 on two Cholesky
        # 35 panels, so it is computed and dropped.
        self._resample_memo: dict[tuple[int, float, int], np.ndarray] = {}
        # The work counters, by stats key (see WORK_COUNTERS).
        self._work = dict.fromkeys(WORK_COUNTERS, 0)
        # Value interning: content signature → value id, with a per-object
        # id cache (operands are kept alive so ids stay valid).
        self._value_ids: dict[int, int] = {}
        self._value_keys: dict[tuple, int] = {}
        self._value_keep: list[NumericRV] = []

    def _vid(self, rv: NumericRV) -> int:
        """Content-keyed value id of ``rv`` (the memo-key currency).

        Two RVs with equal support, density bytes and atom metadata map to
        the same id, so memo hits no longer require object identity.  Safe
        for bit-identity: every memoized operation is a pure function of
        exactly the signed content.
        """
        vid = self._value_ids.get(id(rv))
        if vid is None:
            if rv.is_point:
                sig = (True, float(rv.xs[0]), rv.atom)
            else:
                sig = (
                    False,
                    float(rv.xs[0]),
                    float(rv.xs[-1]),
                    len(rv.xs),
                    rv.atom,
                    rv.pdf.tobytes(),
                )
            vid = self._value_keys.setdefault(sig, len(self._value_keys))
            self._value_ids[id(rv)] = vid
            self._value_keep.append(rv)
        return vid

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #

    def rv(self, min_value: float) -> NumericRV:
        """Interned ``model.rv(min_value)`` — one object per duration value.

        Durations repeat heavily across tasks and edges; sharing the object
        shares its lazily cached CDF *and* makes the identity-keyed
        operation memos effective.
        """
        w = float(min_value)
        rv = self._rv_pool.get(w)
        if rv is None:
            rv = self.model.rv(w)
            self._rv_pool[w] = rv
            self._interned.add(id(rv))
        return rv

    def point(self, x: float) -> NumericRV:
        """Interned :meth:`NumericRV.point`."""
        x = float(x)
        rv = self._point_pool.get(x)
        if rv is None:
            rv = NumericRV.point(x)
            self._point_pool[x] = rv
        return rv

    # ------------------------------------------------------------------ #
    # batched sums
    # ------------------------------------------------------------------ #

    def add_pairs(
        self, pairs: Sequence[tuple[NumericRV, NumericRV]]
    ) -> list[NumericRV]:
        """Distribution of X + Y for every pair — one batched level step.

        Point operands shift exactly as :meth:`NumericRV.add`; repeated
        *value* pairs (equal-content operands, same or distinct objects)
        are computed once per engine.
        """
        results: list[NumericRV | None] = [None] * len(pairs)
        jobs: list[tuple[int, tuple[int, int], NumericRV, NumericRV]] = []
        pending: dict[tuple[int, int], int] = {}
        dups: list[tuple[int, tuple[int, int]]] = []
        for i, (a, b) in enumerate(pairs):
            if a.is_point:
                results[i] = b.shift(a.lo)
                continue
            if b.is_point:
                results[i] = a.shift(b.lo)
                continue
            key = (self._vid(a), self._vid(b))
            memo = self._add_memo.get(key)
            if memo is not None:
                results[i] = memo[2]
                continue
            if key in pending:
                dups.append((i, key))
                continue
            pending[key] = i
            jobs.append((i, key, a, b))
        if jobs:
            self._add_batch(jobs, results)
        for i, key in dups:
            results[i] = self._add_memo[key][2]
        return results  # type: ignore[return-value]

    def _operand_grid(self, rv: NumericRV, dx: float, n: int) -> np.ndarray:
        """Operand density resampled onto its ``arange`` conv grid.

        The common-step grid depends only on (operand, dx, n).  Narrow
        duration/communication RVs impose their own fine step on every
        partner, so an interned RV at its own step recurs across tasks and
        schedules and is memoized; no other resample is kept (see
        ``_resample_memo``).
        """
        own = id(rv) in self._interned and dx == rv.xs[1] - rv.xs[0]
        if own:
            key = (self._vid(rv), dx, n)
            hit = self._resample_memo.get(key)
            if hit is not None:
                return hit
        # rv.xs[0] + dx·k, built in place (no int arange, no product temp).
        grid = np.arange(n, dtype=float)
        grid *= dx
        grid += rv.xs[0]
        y = _rescue_lost_operand(
            rv.xs, rv.pdf, grid, resample_pdf(rv.xs, rv.pdf, grid)
        )
        self._work["resample_memo"] += 1
        if own:
            self._resample_memo[key] = y
        return y

    def _conv_job(self, job: tuple) -> tuple:
        """Plan + convolve one unique sum job (per-op primitives).

        Exact mode plans at :data:`rv._MAX_CONV_POINTS` and always uses the
        direct ``np.convolve`` product — the arithmetic of
        ``NumericRV.add``.  Fast mode caps the plan at the
        :func:`_fast_conv_points` budget of the output grid and lets
        :func:`_conv_kernel` dispatch large balanced products to the FFT.
        """
        a, b = job[2], job[3]
        xs_a, xs_b = a.xs, b.xs
        grid_n = max(len(xs_a), len(xs_b))
        dx_a = xs_a[1] - xs_a[0]
        dx_b = xs_b[1] - xs_b[0]
        width_a = xs_a[-1] - xs_a[0]
        width_b = xs_b[-1] - xs_b[0]
        cap = _fast_conv_points(grid_n) if self.fast_conv else _MAX_CONV_POINTS
        if self.fast_conv and (width_a + width_b) / min(dx_a, dx_b) > cap:
            self._work["conv_capped"] += 1
        dx, n_a, n_b = _conv_grid_plan(
            dx_a, width_a, dx_b, width_b, max_points=cap
        )
        if self.fast_conv and min(n_a, n_b) >= _FFT_MIN_OPERAND:
            self._work["fft_convs"] += 1
        self._work["conv_macs"] += n_a * n_b
        ya = self._operand_grid(a, dx, n_a)
        yb = self._operand_grid(b, dx, n_b)
        # The one reduction whose float grouping depends on operand
        # length: never padded, always the per-op kernel.
        conv = _conv_kernel(ya, yb, fast=self.fast_conv)
        conv *= dx  # in place: both kernels return a fresh array
        return (job, conv, xs_a[0] + xs_b[0], dx, grid_n)

    def _add_batch(self, jobs: list, results: list) -> None:
        """Convolve every unique sum job, then refit the results.

        Rows of at least :data:`_LONG_ROW` points refit in place; the
        shorter ones in length buckets of padded 2-D blocks.
        """
        items = [self._conv_job(job) for job in jobs]
        if len(items) < _MIN_BATCH:
            for item in items:
                self._refit_single(item, results)
            return
        long_rows = [it for it in items if len(it[1]) >= _LONG_ROW]
        if long_rows:
            self._refit_long(long_rows, results)
            items = [it for it in items if len(it[1]) < _LONG_ROW]
        # Bucket by convolution length so padded trim blocks waste a
        # bounded factor even when supports vary wildly within a level;
        # small buckets keep absorbing longer rows (fixed per-bucket cost
        # beats bounded padding waste).
        items.sort(key=lambda it: len(it[1]))
        start = 0
        while start < len(items):
            l0 = len(items[start][1])
            end = start + 1
            while end < len(items) and (
                end - start < _MIN_BATCH
                or len(items[end][1]) <= int(l0 * _BUCKET_RATIO)
            ):
                end += 1
            if end - start < _MIN_BATCH:
                for item in items[start:end]:
                    self._refit_single(item, results)
            else:
                self._refit_bucket(items[start:end], results)
            start = end

    def _refit_single(self, item: tuple, results: list) -> None:
        """Scalar trim + refit of one convolution (streamlined per-op path).

        The same calls as ``NumericRV.add``'s tail — ``cumulative``,
        ``_trim_window``, clip/linspace/resample/trapezoid — minus the
        ``from_pdf`` re-validation of a grid this engine just built.
        """
        job, conv, c0, dx, grid_n = item
        # Only the trimmed window of the conv grid is ever materialized:
        # c0 + dx·arange(lo, hi+1) carries the exact per-element products
        # of the full-grid construction, and the cumulative trim needs the
        # grid *step* only — (c0 + dx) − c0, read off the first cell.
        dx_grid = (c0 + dx) - c0
        cdf = cumulative(conv, dx_grid)
        lo, hi = _trim_window(cdf, len(conv))
        xs = dx * np.arange(lo, hi + 1)
        xs += c0
        pdf = np.maximum(conv[lo : hi + 1], 0.0)
        if grid_n != len(xs):
            new_xs = _linspace(xs[0], xs[-1], grid_n)
            pdf = resample_pdf(xs, pdf, new_xs)
            xs = new_xs
        step = xs[1] - xs[0]
        total = _trapz(pdf, step)
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError(f"cannot normalize PDF with total mass {total!r}")
        rv = NumericRV(xs, pdf / total)
        self._store(job[1], job, rv)
        results[job[0]] = rv

    def _refit_long(self, items: list, results: list) -> None:
        """Trim and refit long convolution rows without a padded block.

        Each row's trim window comes from an in-place cumulative
        (:func:`_long_row_window`); the batch then refits through one
        :func:`interp_lattice` call on the conv grids ``c0 + dx·k``.
        """
        convs = [it[1] for it in items]
        c0 = np.array([it[2] for it in items])
        dxs = np.array([it[3] for it in items])
        grid_ns = np.array([it[4] for it in items], dtype=np.intp)
        windows = [_long_row_window(*it[1:4]) for it in items]
        lo = np.array([w[0] for w in windows], dtype=np.intp)
        hi = np.array([w[1] for w in windows], dtype=np.intp)

        def resample(g: np.ndarray, out_xs: np.ndarray) -> np.ndarray:
            return interp_lattice(
                out_xs, c0[g], dxs[g], lo[g], hi[g], [convs[p] for p in g],
                0.0, 0.0,
            )

        def window(p: int) -> tuple[np.ndarray, np.ndarray]:
            xs = dxs[p] * np.arange(lo[p], hi[p] + 1)
            xs += c0[p]
            return xs, convs[p][lo[p] : hi[p] + 1]

        self._finish_refit(
            [it[0] for it in items], results, lo, hi, grid_ns,
            c0 + dxs * lo, c0 + dxs * hi, resample, window,
        )

    def _refit_bucket(self, items: list, results: list) -> None:
        """Pad one conv-length bucket, trim it, and refit every row."""
        P = len(items)
        L = max(len(it[1]) for it in items)
        pdf2 = np.zeros((P, L))
        lens = np.empty(P, dtype=np.intp)
        c0 = np.empty(P)
        dxs = np.empty(P)
        grid_ns = np.empty(P, dtype=np.intp)
        for p, (_, conv, c, dx, gn) in enumerate(items):
            pdf2[p, : len(conv)] = conv
            lens[p] = len(conv)
            c0[p] = c
            dxs[p] = dx
            grid_ns[p] = gn
        # out_xs[k] = c0 + dx·k, exactly as the per-op _convolve builds it.
        xs2 = c0[:, None] + dxs[:, None] * np.arange(L)
        # The trim step uses the *grid* step xs[1]−xs[0] exactly as
        # _trim_tails reads it (it can differ from the planned dx by
        # rounding).
        dx_grid = xs2[:, 1] - xs2[:, 0]
        cdf2 = _rows_cumulative(pdf2, dx_grid)
        lo, hi = _rows_trim_window(cdf2, lens, left=True)
        self._finish_refit(
            [it[0] for it in items], results, lo, hi, grid_ns,
            *_block_rows(xs2, pdf2, lo, hi),
        )

    def _finish_refit(
        self,
        jobs: list,
        results: list,
        lo: np.ndarray,
        hi: np.ndarray,
        grid_ns: np.ndarray,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        resample: Callable[[np.ndarray, np.ndarray], np.ndarray],
        window: Callable[[int], tuple[np.ndarray, np.ndarray]],
        atoms: np.ndarray | None = None,
        maxima: bool = False,
    ) -> None:
        """Shared trim→linspace→resample→normalize tail of sums and maxima.

        Replicates ``NumericRV.from_pdf(xs[lo:hi+1], pdf[lo:hi+1], grid_n)``
        — including its no-resample shortcut when the window already has
        ``grid_n`` points — or the atom branch of ``max_of`` when ``atoms``
        is given; with ``maxima`` (max jobs) every row then passes
        ``max_of``'s ``_max_cell_guard``.  The op rows are read through the
        caller's sources: ``x_lo``/``x_hi`` are the window end coordinates,
        ``resample(g, out_xs)`` interpolates rows ``g`` onto the 2-D
        ``out_xs``, and ``window(p)`` returns row ``p``'s trimmed
        ``(xs, pdf)`` (:func:`_block_rows` for padded blocks, the lattice
        of :meth:`_refit_long` for long sum rows).
        """
        rows = np.arange(len(jobs))
        win_len = hi - lo + 1
        gn0 = int(grid_ns[0])
        uniform_gn = bool((grid_ns == gn0).all())
        for gn in ((gn0,) if uniform_gn else np.unique(grid_ns)):
            gn = int(gn)
            g = rows if uniform_gn else np.flatnonzero(grid_ns == gn)
            atom_g = None if atoms is None else atoms[g]
            # from_pdf shortcut: a window already at grid_n points is
            # normalized in place, never resampled (the atom branch of
            # max_of always resamples — match both).
            direct = (
                (win_len[g] == gn)
                if atoms is None
                else np.zeros(len(g), dtype=bool)
            )
            out_xs = _linspace_rows(x_lo[g], x_hi[g], gn)
            out_pdf = resample(g, out_xs)
            # Batched unit-mass normalization (trapezoid over equal-length
            # rows is numpy's own pairwise reduction, row for row).
            out_dx = out_xs[:, 1] - out_xs[:, 0]
            totals = (
                out_dx[:, None] * (out_pdf[:, 1:] + out_pdf[:, :-1]) / 2.0
            ).sum(axis=-1)
            for k, p in enumerate(g):
                if direct[k]:
                    xs_row, pdf_row = window(p)
                    pdf_row = np.maximum(pdf_row, 0.0)
                    dx = xs_row[1] - xs_row[0]
                    total = _trapz(pdf_row, dx)
                else:
                    xs_row = out_xs[k].copy()
                    pdf_row = out_pdf[k]
                    dx = float(out_dx[k])
                    total = float(totals[k])
                if atom_g is not None:
                    atom = float(atom_g[k])
                    if total > 0.0:
                        pdf_row = pdf_row * ((1.0 - atom) / total)
                    pdf_row[0] += 2.0 * atom / dx
                    rv = NumericRV(xs_row, pdf_row, atom=atom)
                else:
                    if not np.isfinite(total) or total <= 0.0:
                        raise ValueError(
                            f"cannot normalize PDF with total mass {total!r}"
                        )
                    rv = NumericRV(xs_row, pdf_row / total)
                if maxima:
                    rv = _max_cell_guard(jobs[p][4], rv)
                i, key = jobs[p][0], jobs[p][1]
                self._store(key, jobs[p], rv)
                results[i] = rv

    def _store(self, key: tuple, job: tuple, rv: NumericRV) -> None:
        """Memoize a result, keeping the operands alive so ids stay valid."""
        if len(job) == 4:  # sum job: (i, key, a, b)
            self._add_memo[key] = (job[2], job[3], rv)
        else:  # max job: (i, key, operands, …plan)
            self._max_memo[key] = (job[2], rv)

    # ------------------------------------------------------------------ #
    # batched maxima
    # ------------------------------------------------------------------ #

    def max_groups(
        self, groups: Sequence[Sequence[NumericRV]]
    ) -> list[NumericRV]:
        """``NumericRV.max_of`` for every operand group — one batched step.

        Groups are planned with the exact scalar decisions of ``max_of``
        (floors, degenerate shortcuts, fine-grid sizes), then evaluated as
        vectorized CDF products grouped by fine-grid length.
        """
        results: list[NumericRV | None] = [None] * len(groups)
        # job: (i, key, operands, floor, live, lo, hi, grid_n, fine)
        jobs: list[tuple] = []
        pending: dict[tuple[int, ...], int] = {}
        dups: list[tuple[int, tuple[int, ...]]] = []
        for i, rvs in enumerate(groups):
            rvs = list(rvs)
            if not rvs:
                raise ValueError("max_of() requires at least one RV")
            key = tuple(self._vid(rv) for rv in rvs)
            memo = self._max_memo.get(key)
            if memo is not None:
                results[i] = memo[1]
                continue
            if key in pending:
                dups.append((i, key))
                continue
            plan = self._max_plan(rvs)
            if isinstance(plan, NumericRV):
                results[i] = plan
                self._max_memo[key] = (tuple(rvs), plan)
                continue
            pending[key] = i
            jobs.append((i, key, tuple(rvs)) + plan)
        if len(jobs) < _MIN_BATCH:
            for job in jobs:
                self._max_single(job, results)
        elif jobs:
            fines = [job[8] for job in jobs]
            for fine in sorted(set(fines)):
                sel = [job for job, f in zip(jobs, fines) if f == fine]
                if len(sel) < _MIN_BATCH:
                    for job in sel:
                        self._max_single(job, results)
                else:
                    self._max_fine_group(sel, int(fine), results)
        for i, key in dups:
            results[i] = self._max_memo[key][1]
        return results  # type: ignore[return-value]

    def _max_single(self, job: tuple, results: list) -> None:
        """Scalar N-way CDF product (streamlined ``max_of`` path).

        Numpy's own interp/gradient primitives on one fine grid — the
        exact ``max_of`` pipeline minus ``from_pdf`` re-validation.
        """
        _, _, _, _, live, lo, hi, grid_n, fine = job
        xs = _linspace(lo, hi, fine)
        f = np.ones(fine)
        for rv in live:
            f *= np.interp(xs, rv.xs, rv.cdf_values(), left=0.0, right=1.0)
        pdf = np.maximum(gradient_rows(f[None], xs[None])[0], 0.0)
        atom_mass = float(f[0])
        dx_grid = xs[1] - xs[0]
        cdf = cumulative(pdf, dx_grid)
        if atom_mass > 1e-12:
            lo_i, hi_i = _trim_window(cdf, fine, left=False)
            xs_t = xs[lo_i : hi_i + 1]
            out_xs = _linspace(xs_t[0], xs_t[-1], grid_n)
            out_pdf = resample_pdf(xs_t, pdf[lo_i : hi_i + 1], out_xs)
            dx = out_xs[1] - out_xs[0]
            total = _trapz(out_pdf, dx)
            if total > 0.0:
                out_pdf *= (1.0 - atom_mass) / total
            out_pdf[0] += 2.0 * atom_mass / dx
            rv = NumericRV(out_xs, out_pdf, atom=atom_mass)
        else:
            lo_i, hi_i = _trim_window(cdf, fine, left=True)
            xs_t = xs[lo_i : hi_i + 1]
            pdf_t = np.maximum(pdf[lo_i : hi_i + 1], 0.0)
            if grid_n != len(xs_t):
                new_xs = _linspace(xs_t[0], xs_t[-1], grid_n)
                pdf_t = resample_pdf(xs_t, pdf_t, new_xs)
                xs_t = new_xs
            step = xs_t[1] - xs_t[0]
            total = _trapz(pdf_t, step)
            if not np.isfinite(total) or total <= 0.0:
                raise ValueError(
                    f"cannot normalize PDF with total mass {total!r}"
                )
            rv = NumericRV(xs_t, pdf_t / total)
        rv = _max_cell_guard(live, rv)
        self._store(job[1], job, rv)
        results[job[0]] = rv

    def _max_plan(self, rvs: list[NumericRV]):
        """Scalar planning of ``max_of``: shortcut RV or the grid plan.

        The plan carries only the *live* continuous operands, those whose
        support ends above the join's lower bound ``lo``.
        """
        floor = -np.inf
        continuous: list[NumericRV] = []
        for rv in rvs:
            if rv.is_point:
                floor = max(floor, rv.lo)
            else:
                continuous.append(rv)
        if not continuous:
            return self.point(floor)
        if len(continuous) == 1 and floor <= continuous[0].lo:
            return continuous[0]
        grid_n = max(len(rv.xs) for rv in continuous)
        lo = max(max(rv.lo for rv in continuous), floor)
        hi = max(rv.hi for rv in continuous)
        if hi <= max(floor, lo):
            return self.point(max(floor, lo))
        min_dx = min(rv.dx for rv in continuous)
        cap = _fast_max_points(grid_n) if self.fast_conv else _MAX_FINE_POINTS
        want = max(4 * grid_n, np.ceil((hi - lo) / min_dx) + 1)
        if self.fast_conv and want > cap:
            self._work["max_capped"] += 1
        fine = int(min(want, cap))
        # The plan above reads every operand; the product only the live
        # ones (exact: a skipped factor is 1.0, see the module docstring).
        # The operand with the largest ``hi`` (> lo here) is always live.
        live = [rv for rv in continuous if rv.hi > lo]
        return (floor, live, lo, hi, grid_n, fine)

    def _max_fine_group(self, jobs: list, fine: int, results: list) -> None:
        """One fine-grid-length group: shared-grid CDF product → refit."""
        G = len(jobs)
        lo = np.array([job[5] for job in jobs])
        hi = np.array([job[6] for job in jobs])
        grid_ns = np.array([job[7] for job in jobs], dtype=np.intp)
        xs2 = _linspace_rows(lo, hi, fine)

        # Multiply operand CDFs in operand order, exactly like max_of's
        # running product; rows with fewer operands simply stop early.
        # The per-operand interpolation is numpy's own C kernel (already
        # vectorized over the fine grid); only the fold is batched.
        counts = np.array([len(job[4]) for job in jobs], dtype=np.intp)
        f = np.ones((G, fine))
        vals = np.empty((G, fine))
        for k in range(int(counts.max())):
            active = np.flatnonzero(counts > k)
            for g in active:
                rv = jobs[g][4][k]
                vals[g] = np.interp(
                    xs2[g], rv.xs, rv.cdf_values(), left=0.0, right=1.0
                )
            if len(active) == G:
                f *= vals
            else:
                f[active] *= vals[active]

        pdf2 = np.maximum(gradient_rows(f, xs2), 0.0)
        atom_mass = f[:, 0]
        dxs = xs2[:, 1] - xs2[:, 0]
        cdf2 = _rows_cumulative(pdf2, dxs)
        lengths = np.full(G, fine, dtype=np.intp)

        has_atom = atom_mass > 1e-12
        for mask, left, atoms in (
            (~has_atom, True, None),
            (has_atom, False, atom_mass),
        ):
            g = np.flatnonzero(mask)
            if not len(g):
                continue
            lo_w, hi_w = _rows_trim_window(cdf2[g], lengths[g], left=left)
            self._finish_refit(
                [jobs[p] for p in g],
                results,
                lo_w,
                hi_w,
                grid_ns[g],
                *_block_rows(xs2[g], pdf2[g], lo_w, hi_w),
                atoms=None if atoms is None else atoms[g],
                maxima=True,
            )

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> dict[str, int]:
        """Intern/memo pool sizes and work counters (diagnostics/tests).

        The pool sizes describe this engine's own memos: ``rv_pool`` and
        ``value_pool`` count the distinct duration RVs and operand *values*
        it has seen, ``add_memo``/``max_memo`` the results it keeps.  A
        forked walker's memos die with it, so they never count here.

        The work counters (:data:`WORK_COUNTERS`) count what every walker
        of this engine computed, its forked walkers included:
        ``resample_memo`` the operand resamples computed (monotone: a
        resample that is not memoized counts each time it is computed);
        ``conv_macs`` the planned multiply-adds (n_a·n_b) of every
        convolution computed; ``conv_capped``/``max_capped`` how often the
        fast-policy budgets actually bound a plan (always 0 in exact mode),
        and ``fft_convs`` how many convolutions dispatched to the FFT
        kernel.
        """
        return {
            "rv_pool": len(self._rv_pool),
            "add_memo": len(self._add_memo),
            "max_memo": len(self._max_memo),
            "value_pool": len(self._value_keys),
            **self._work,
        }

    def add_work(self, counts: Mapping[str, int]) -> None:
        """Add another walker's work counter deltas to this engine's."""
        for name, n in counts.items():
            self._work[name] += n


def engine_for(
    model: StochasticModel, engine: BatchedGridEngine | None = None
) -> BatchedGridEngine:
    """``engine`` once checked against ``model``, or a fresh engine for it.

    A walk reads every duration through ``engine.rv``, i.e. through the
    engine's own model, so a shared engine built for another model would
    silently evaluate that model instead.  Raises ``ValueError`` unless
    ``engine.model == model``.
    """
    if engine is None:
        return BatchedGridEngine(model)
    if engine.model != model:
        if replace(engine.model, fast_conv=model.fast_conv) == model:
            raise ValueError(
                "shared engine was built for a different precision policy "
                f"(engine.fast_conv={engine.fast_conv!r}, "
                f"model.fast_conv={model.fast_conv!r})"
            )
        raise ValueError(
            "shared engine was built for a different model "
            f"(engine.model={engine.model!r}, model={model!r})"
        )
    return engine
