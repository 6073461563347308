"""Golden identity: recomputed artifacts match the committed manifest bytes.

``perfbench/golden.json`` pins the sha256 of every artifact the benchmark
workloads produce at the suite seed.  This test recomputes the twelve
fixed-structure quick cases (Cholesky and Gaussian elimination, the serve
warm set), stores each through :class:`ArtifactCache` and compares the
file's sha256 with the manifest — so an exact-mode change that moves a
single byte fails tier-1, not only the benchmark.  The test only reads the
manifest; regenerating it is ``python3 perfbench/golden.py``.

Those cases send thousands of long convolution rows through the engine's
in-place refit, so the test also guards that path's bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from perfbench.workloads import serve_warm_expr
from repro.campaign.cache import ArtifactCache
from repro.caseset import parse
from repro.stochastic.batch import BatchedGridEngine

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"

#: The library versions the manifest's bytes were computed with (its
#: perfbench provenance).  Other releases may round differently — Beta
#: density kernels, interpolation, convolution — so the test skips up
#: front rather than report their drift as a regression.
PINNED = ("2.4.6", "1.17.1")
INSTALLED = (np.__version__, scipy.__version__)

pytestmark = pytest.mark.skipif(
    INSTALLED != PINNED,
    reason=(
        "golden bytes are pinned for numpy {} / scipy {}; installed are "
        "numpy {} / scipy {}".format(*PINNED, *INSTALLED)
    ),
)


def test_fixed_structure_quick_cases_match_golden_sha256(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())["artifacts"]
    cases = list(parse(serve_warm_expr()).cases())
    assert len(cases) == 12

    long_rows = 0
    refit_long = BatchedGridEngine._refit_long

    def counting(self, items, results):
        nonlocal long_rows
        long_rows += len(items)
        refit_long(self, items, results)

    monkeypatch.setattr(BatchedGridEngine, "_refit_long", counting)

    cache = ArtifactCache(tmp_path)
    mismatched = []
    for case in cases:
        path = cache.store(case, case.run())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != golden[case.artifact_name]:
            mismatched.append(case.artifact_name)
    assert mismatched == []
    assert long_rows > 1000
