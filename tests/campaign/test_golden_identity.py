"""Golden identity: recomputed artifacts match the committed manifest bytes.

``perfbench/golden.json`` pins the sha256 of every artifact the benchmark
workloads produce at the suite seed.  These tests recompute the twelve
fixed-structure quick cases (Cholesky and Gaussian elimination, the serve
warm set) and the four fast-policy ``dense-approx`` cases, store each
through :class:`ArtifactCache` and compare the file's sha256 with the
manifest — so a change that moves a single byte of either precision
policy fails tier-1, not only the benchmark.  The tests only read the
manifest; regenerating it is ``python3 perfbench/golden.py``.

The fixed-structure cases send thousands of long convolution rows through
the engine's in-place refit, so they also guard that path's bytes.  The
``dense-approx`` cases are the fast policy's byte oracle: the batched
engine is its only implementation, so nothing else reproduces them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from perfbench.workloads import SUITE_SEED, dense_approx_expr, serve_warm_expr
from repro.campaign.cache import ArtifactCache
from repro.caseset import parse
from repro.stochastic.batch import BatchedGridEngine

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"

#: The manifest's bytes were computed with the numpy / scipy releases of
#: the shared ``pinned_libs`` fixture (its perfbench provenance).
pytestmark = pytest.mark.usefixtures("pinned_libs")


def mismatched_artifacts(cases, tmp_path) -> list[str]:
    """Names of the ``cases`` whose stored artifact's sha256 is not golden."""
    golden = json.loads(GOLDEN.read_text())["artifacts"]
    cache = ArtifactCache(tmp_path)
    mismatched = []
    for case in cases:
        path = cache.store(case, case.run())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != golden[case.artifact_name]:
            mismatched.append(case.artifact_name)
    return mismatched


def test_fixed_structure_quick_cases_match_golden_sha256(tmp_path, monkeypatch):
    cases = list(parse(serve_warm_expr()).cases())
    assert len(cases) == 12

    long_rows = 0
    refit_long = BatchedGridEngine._refit_long

    def counting(self, items, results):
        nonlocal long_rows
        long_rows += len(items)
        refit_long(self, items, results)

    monkeypatch.setattr(BatchedGridEngine, "_refit_long", counting)

    assert mismatched_artifacts(cases, tmp_path) == []
    assert long_rows > 1000


def test_fast_policy_dense_cases_match_golden_sha256(tmp_path):
    cases = list(parse(dense_approx_expr(SUITE_SEED)).cases())
    assert len(cases) == 4
    assert all(case.fast_conv for case in cases)
    assert mismatched_artifacts(cases, tmp_path) == []
