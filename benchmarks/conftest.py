"""Benchmark harness configuration.

Each figure benchmark reproduces one figure/table of the paper: it times
the experiment (one round — these are minutes-long experiments, not
micro-benchmarks) and prints the figure's text report.  Scale with
``REPRO_SCALE`` (quick/default/paper).

Machine-readable results
------------------------
Benchmarks can record ``(op, shape, ns/op[, baseline/ratio])`` rows via
the :func:`record_bench` fixture; at session end every recorded row is
written to ``BENCH_core.json`` (path overridable with the
``BENCH_CORE_JSON`` env var), so the performance trajectory of the
numerical core is trackable across PRs — see ``docs/performance.md``.

``--bench-quick`` shrinks the kernel benches to CI-smoke sizes (the CI
``bench-smoke`` job runs ``bench_kernel.py`` + ``bench_perf_core.py``
with it and asserts the JSON was produced).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import pytest


def pytest_addoption(parser):
    """Register the CI-smoke switch for the kernel benches."""
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help="run the kernel benches at CI-smoke sizes",
    )


def pytest_configure(config):
    """Attach the shared record list for BENCH_core.json rows."""
    config._bench_records = []


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_core.json when any benchmark recorded rows."""
    records = getattr(session.config, "_bench_records", None)
    if not records:
        return
    path = pathlib.Path(os.environ.get("BENCH_CORE_JSON", "BENCH_core.json"))
    payload = {
        "schema": "repro-bench-core/1",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": bool(session.config.getoption("--bench-quick")),
        "results": records,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[wrote {path} with {len(records)} benchmark rows]")


@pytest.fixture
def bench_quick(request) -> bool:
    """Whether the benches run at CI-smoke sizes."""
    return bool(request.config.getoption("--bench-quick"))


@pytest.fixture
def record_bench(request):
    """Append one machine-readable benchmark row.

    ``record_bench(op=..., shape=..., ns_per_op=..., **extra)`` — extra
    keys (e.g. ``baseline_ns_per_op``, ``ratio``) are stored verbatim.
    """

    def _record(op: str, shape: str, ns_per_op: float, **extra) -> None:
        row = {"op": op, "shape": shape, "ns_per_op": float(ns_per_op)}
        row.update(extra)
        request.config._bench_records.append(row)

    return _record


@pytest.fixture
def report(capsys):
    """Print an experiment report outside of pytest's capture."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (experiments, not microbenchmarks)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
