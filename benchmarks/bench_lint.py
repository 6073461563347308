"""Micro-benchmark: reprolint over the full source tree.

One row for ``BENCH_core.json``: ``reprolint_full_tree`` — wall time of
a complete ``lint_paths(["src"])`` pass (parse every module, run every
rule, filter the pragmas).  The linter gates CI, so it must stay
cheap: the row asserts the full tree lints in **< 5 s**, keeping the
``static-analysis`` job's cost negligible next to the test jobs it
fronts.
"""

import pathlib
import time

from benchmarks.conftest import run_once
from repro.devtools.lint import lint_paths

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_full_tree_lint(benchmark, record_bench, report):
    t0 = time.monotonic()
    result = run_once(benchmark, lambda: lint_paths([ROOT / "src"]))
    elapsed = time.monotonic() - t0
    assert result.files > 50, "src tree went missing?"
    assert elapsed < 5.0, (
        f"reprolint took {elapsed:.2f}s over {result.files} files; "
        "it must stay cheap enough to gate CI (< 5s)"
    )
    record_bench(
        op="reprolint_full_tree",
        shape=f"files={result.files}",
        ns_per_op=elapsed * 1e9,
        findings=len(result.findings),
    )
    report(
        f"reprolint full tree: {result.files} files, "
        f"{len(result.findings)} finding(s) in {elapsed * 1e3:.0f} ms"
    )
