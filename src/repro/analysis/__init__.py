"""Makespan-distribution evaluation engines.

Computing the exact makespan distribution of a scheduled stochastic DAG is
#P-complete in general (Hagstrom), so the paper — like the PERT literature it
builds on — relies on approximations, all of which are implemented here:

* :func:`classical_makespan` — the *independence assumption*: propagate grid
  RVs in topological order over the disjunctive graph, treating joining
  finish-time distributions as independent.  This is the method the paper
  actually used for its panels.
* :func:`spelde_makespan` — Spelde's CLT bound: every duration collapses to
  (mean, variance), sums add moments, maxima use Clark's equations.  No
  convolution: the fastest method by far.
* :func:`dodin_makespan` — Dodin-style series-parallel reduction: exact (up
  to grid resolution) on series-parallel structures because shared history is
  factored out before maxima are taken; irreducible joins fall back to the
  independence assumption.
* :func:`sample_makespans` — vectorized Monte-Carlo ground truth.
* :func:`ks_distance` / :func:`cm_distance` — the paper's two CDF error
  measures (Kolmogorov–Smirnov and an area variant of Cramér–von Mises).
"""

from repro.analysis.classical import classical_makespan
from repro.analysis.spelde import spelde_makespan
from repro.analysis.dodin import dodin_makespan
from repro.analysis.montecarlo import (
    empirical_cdf,
    sample_makespans,
    sample_makespans_batch,
)
from repro.analysis.distance import cm_distance, ks_distance
from repro.analysis.streaming import MomentAccumulator, P2Quantile

__all__ = [
    "classical_makespan",
    "spelde_makespan",
    "dodin_makespan",
    "sample_makespans",
    "sample_makespans_batch",
    "empirical_cdf",
    "ks_distance",
    "cm_distance",
    "MomentAccumulator",
    "P2Quantile",
]
