"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform import (
    Platform,
    Workload,
    cholesky_workload,
    random_workload,
)
from repro.dag import TaskGraph
from repro.stochastic import StochasticModel


def pytest_configure(config: pytest.Config) -> None:
    """Register the ``fleet`` marker: ``pytest -m "not fleet"`` is the core pass."""
    config.addinivalue_line(
        "markers",
        "fleet: starts OS processes (process pools, queue-worker fleets, "
        "CLI subprocesses)",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def model() -> StochasticModel:
    """The paper's default uncertainty model (UL=1.1, Beta(2,5))."""
    return StochasticModel(ul=1.1, grid_n=65)


@pytest.fixture
def small_workload() -> Workload:
    """Cholesky b=3 (10 tasks) on 3 machines — the paper's Fig. 3 shape."""
    return cholesky_workload(3, 3, rng=42)


@pytest.fixture
def medium_workload() -> Workload:
    """Random 30-task graph on 8 machines — the paper's Fig. 4 shape."""
    return random_workload(30, 8, rng=43)


@pytest.fixture
def diamond_workload() -> Workload:
    """A 4-task diamond (fork-join of 2) with unit communication volumes."""
    g = TaskGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], name="diamond")
    comp = np.array(
        [[10.0, 12.0], [8.0, 9.0], [11.0, 7.0], [10.0, 10.0]]
    )
    return Workload(g, Platform.uniform(2, tau=1.0), comp)


@pytest.fixture
def topcuoglu_workload() -> Workload:
    """The canonical 10-task HEFT example (Topcuoglu et al.).

    With insertion-based HEFT the expected makespan is exactly 80.
    """
    comp = np.array(
        [
            [14, 16, 9],
            [13, 19, 18],
            [11, 13, 19],
            [13, 8, 17],
            [12, 13, 10],
            [13, 16, 9],
            [7, 15, 11],
            [5, 11, 14],
            [18, 12, 20],
            [21, 7, 16],
        ],
        dtype=float,
    )
    edges = [
        (0, 1, 18), (0, 2, 12), (0, 3, 9), (0, 4, 11), (0, 5, 14),
        (1, 7, 19), (1, 8, 16), (2, 6, 23), (3, 7, 27), (3, 8, 23),
        (4, 8, 13), (5, 7, 15), (6, 9, 17), (7, 9, 11), (8, 9, 13),
    ]
    g = TaskGraph(10, edges, name="topcuoglu99")
    return Workload(g, Platform.uniform(3, tau=1.0), comp)
