"""Experiment harness reproducing every figure of the paper.

Each ``figN_*`` module exposes a ``run(scale)`` function returning a result
object with the figure's underlying data series and a ``render()`` method
producing the figure's monospace text report.  The
:class:`~repro.experiments.scale.Scale` object controls population sizes so
the whole harness runs in minutes at ``quick`` scale and reproduces the
paper's counts at ``paper`` scale (env var ``REPRO_SCALE``).
"""

from repro.experiments.scale import PAPER, QUICK, DEFAULT, Scale, get_scale
from repro.experiments.cases import CaseSpec, build_workload, default_suite

__all__ = [
    "Scale",
    "QUICK",
    "DEFAULT",
    "PAPER",
    "get_scale",
    "CaseSpec",
    "build_workload",
    "default_suite",
]
