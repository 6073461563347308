"""Rebuild the golden identity manifest ``perfbench/golden.json``.

Run from the repository root::

    python3 perfbench/golden.py

It computes every campaign workload and the serve warm set at the suite
seed through the CLI, plus the exact-policy twins of the ``dense-approx``
cases, and records

* the sha256 of every artifact (``artifacts``, by artifact file name),
* each workload's canonical aggregate JSON (``aggregates``), and
* the exact Pearson matrices of the twins (``pearson``), which
  ``accuracy.pearson_err`` compares the fast policy against.

The manifest pins the program's output bytes: changing it is a
deliberate cache-schema event, never a side effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import lib  # noqa: E402
from perfbench.run import GOLDEN, Ctx  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CAMPAIGN_EXPRS,
    SUITE_SEED,
    exact_twin_expr,
    serve_warm_expr,
)


def build(ctx: Ctx) -> dict:
    from repro.campaign.cache import ArtifactCache
    from repro.caseset import parse

    golden: dict = {"seed": SUITE_SEED, "artifacts": {}, "aggregates": {}, "pearson": {}}
    exprs = {**CAMPAIGN_EXPRS, "serve-warm": lambda _: serve_warm_expr(),
             "exact-twin": exact_twin_expr}
    for workload, expr_of in exprs.items():
        expr = expr_of(SUITE_SEED)
        cache_dir, out = ctx.run_dir / workload, ctx.run_dir / f"{workload}.json"
        proc = ctx.spawn([ctx.python, "-m", "repro.experiments.cli", "campaign", "sweep",
                          expr, "--cache-dir", str(cache_dir), "--json", str(out)])
        proc.stdout.read()
        if ctx.wait(proc)[1] != 0:
            raise SystemExit(f"sweep {expr!r} failed; see {ctx.errlog}")
        cache = ArtifactCache(cache_dir)
        for case in parse(expr).cases():
            golden["artifacts"][case.artifact_name] = lib.sha256_file(cache.path_for(case))
            if workload == "exact-twin":
                golden["pearson"][case.artifact_name] = cache.load(case).pearson.tolist()
        golden["aggregates"][workload] = out.read_text()
        print(f"[golden] {workload}: {expr}", flush=True)
    return golden


def main() -> int:
    args = argparse.Namespace(workload="golden", seed=SUITE_SEED, seconds=0, trace=0)
    ctx = Ctx(Path.cwd(), args)
    ctx.deadline += 3600.0
    try:
        golden = build(ctx)
    finally:
        ctx.close()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"[golden] wrote {GOLDEN}: {len(golden['artifacts'])} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
