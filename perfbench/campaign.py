"""Campaign workloads: ``dense`` and ``dense-approx``.

End to end, each pass runs ``repro.experiments.cli campaign sweep EXPR
--cache-dir C --json A`` in a fresh process against a fresh cache.  A
two-line bootstrap imports the CLI module, prints a ready stamp and calls
its ``main``, so the pass splits into set-up (spawn → CLI imported) and
wall time (ready → aggregate file written).  The wall time splits into
segments: each case's gap since the previous artifact write, and the
final fold from the last artifact to the aggregate file.

A run makes at least three passes over the same cases.  ``wall_s`` is
the sum over segments of each segment's fastest pass: contention on a
shared host only ever adds time, and it comes in bursts of a fraction of
a second to tens of seconds, so the per-segment minimum over passes made
at different moments recovers the sweep's uncontended wall time.

The traced run repeats one pass in-process, calling each layer's public
function in the order ``CampaignCase.run()`` → ``evaluate_case`` calls
them, with a span around every call; its artifacts must match the
untraced pass byte for byte.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import lib
from perfbench.workloads import CAMPAIGN_EXPRS, exact_twin_expr

#: Imports the CLI, stamps readiness, then runs the CLI's own ``main``.
BOOT = (
    "import sys, time\n"
    "from repro.experiments import cli\n"
    "print('PERFBENCH_READY', repr(time.time()), flush=True)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

#: Set-up samples per run (passes count; probes fill the rest).
SETUP_SAMPLES = 3

#: Passes per untraced run, however short ``--seconds`` is.
MIN_PASSES = 3

#: Segment name of the fold from the last artifact to the aggregate file.
FOLD = "aggregate"

#: Cases recomputed in-process per untraced run at a seed without a golden.
SPOT_CHECKS = {"dense": 1, "dense-approx": 0}


class BenchError(RuntimeError):
    """The program failed in a way that leaves nothing to measure."""


@dataclass
class Pass:
    """One end-to-end campaign process."""

    setup_s: float
    wall_s: float
    segments: dict[str, float]  # artifact name (or FOLD) → seconds
    rss_mb: float
    cache_dir: Path
    aggregate: Path
    shas: dict[str, str] = field(default_factory=dict)


def _ready_stamp(ctx, proc: subprocess.Popen) -> float:
    line = proc.stdout.readline()
    if not line.startswith("PERFBENCH_READY "):
        proc.stdout.read()
        ctx.wait(proc)
        raise BenchError(f"CLI did not start (first line {line!r}); see {ctx.errlog}")
    return float(line.split()[1])


def cli_pass(ctx, expr: str, cases: list, tag: str) -> Pass:
    """Run the workload's sweep once through the CLI and time it."""
    run_dir = ctx.run_dir / tag
    cache_dir, out = run_dir / "cache", run_dir / "aggregate.json"
    cmd = [ctx.python, "-c", BOOT, "campaign", "sweep", expr,
           "--cache-dir", str(cache_dir), "--json", str(out)]
    spawned = time.time()
    proc = ctx.spawn(cmd)
    ready = _ready_stamp(ctx, proc)
    proc.stdout.read()
    rusage, code = ctx.wait(proc)
    if code != 0 or not out.is_file():
        raise BenchError(f"campaign sweep exited {code}; see {ctx.errlog}")
    stamps = []
    for case in cases:
        path = cache_dir / case.artifact_name
        if path.is_file():
            stamps.append((path.stat().st_mtime_ns / 1e9, case.artifact_name))
    done = out.stat().st_mtime_ns / 1e9
    segments, prev = {}, ready
    for stamp, name in sorted(stamps) + [(done, FOLD)]:
        segments[name] = max(0.0, stamp - prev)
        prev = stamp
    return Pass(
        setup_s=ready - spawned,
        wall_s=done - ready,
        segments=segments,
        rss_mb=rusage.ru_maxrss / 1024.0,
        cache_dir=cache_dir,
        aggregate=out,
    )


def best_segments(passes: list[Pass]) -> dict[str, float]:
    """Each segment's fastest time over the passes that recorded it."""
    best: dict[str, float] = {}
    for p in passes:
        for name, seconds in p.segments.items():
            best[name] = min(seconds, best.get(name, seconds))
    return best


def setup_probe(ctx, expr: str) -> float:
    """Spawn → CLI ready, for a process that only folds the expression."""
    spawned = time.time()
    proc = ctx.spawn([ctx.python, "-c", BOOT, "campaign", "sweep", expr, "--fold"])
    ready = _ready_stamp(ctx, proc)
    proc.stdout.read()
    _, code = ctx.wait(proc)
    if code != 0:
        raise BenchError(f"campaign sweep --fold exited {code}; see {ctx.errlog}")
    return ready - spawned


def aggregate_text(cases: list, cache_dir: Path) -> str:
    """``aggregate_from_cache`` over ``cases``, as the CLI's --json bytes."""
    from repro.campaign.aggregate import suite_aggregate_to_payload
    from repro.campaign.cache import ArtifactCache
    from repro.experiments.fig6_aggregate import aggregate_from_cache
    from repro.io.json_io import canonical_json

    result = aggregate_from_cache(cases=cases, cache=ArtifactCache(cache_dir))
    return canonical_json(suite_aggregate_to_payload(result.suite_aggregate())) + "\n"


def check_pass(ctx, workload: str, p: Pass, cases: list) -> dict[str, str]:
    """Failed cases of a pass (artifact name → reason); fills ``p.shas``."""
    from repro.campaign.cache import ArtifactCache

    cache = ArtifactCache(p.cache_dir)
    bad: dict[str, str] = {}
    for case in cases:
        if cache.load(case) is None:
            bad[case.artifact_name] = "artifact missing or corrupt"
        else:
            p.shas[case.artifact_name] = lib.sha256_file(cache.path_for(case))
    try:
        expected = aggregate_text(cases, p.cache_dir)
    except ValueError:  # not one valid artifact left to fold
        expected = None
    if p.aggregate.read_text() != expected:
        for case in cases:
            bad.setdefault(case.artifact_name, "CLI aggregate differs from aggregate_from_cache")
    if ctx.golden is not None:
        paths = {c.artifact_name: cache.path_for(c) for c in cases}
        for name, why in lib.artifact_mismatches(ctx.golden["artifacts"], paths).items():
            bad.setdefault(name, why)
        if p.aggregate.read_text() != ctx.golden["aggregates"][workload]:
            for case in cases:
                bad.setdefault(case.artifact_name, "aggregate differs from the golden")
    return bad


def spot_check(ctx, workload: str, p: Pass, cases: list) -> dict[str, str]:
    """Recompute a seeded sample of cases in-process; compare artifact bytes."""
    from repro.campaign.cache import ArtifactCache

    rng = random.Random(f"{workload}/{ctx.seed}")
    scratch = ArtifactCache(ctx.run_dir / "spot")
    bad = {}
    for case in rng.sample(cases, min(SPOT_CHECKS[workload], len(cases))):
        path = scratch.store(case, case.run())
        if p.shas.get(case.artifact_name) != lib.sha256_file(path):
            bad[case.artifact_name] = "differs from an in-process recomputation"
    return bad


# ---------------------------------------------------------------------- #
# the traced pass
# ---------------------------------------------------------------------- #


@dataclass
class Traced:
    """What the in-process traced pass measured."""

    wall_s: float
    cache_dir: Path
    aggregate: str
    walk_ms: list[float]
    makespan_points: list[int]
    engine: Counter
    store_bytes: int


def traced_pass(ctx, cases: list) -> Traced:
    """Evaluate ``cases`` layer by layer with a span around each call."""
    from repro.analysis.classical import classical_makespan
    from repro.campaign.aggregate import (
        SuiteAggregator,
        case_contribution,
        suite_aggregate_to_payload,
    )
    from repro.campaign.cache import ArtifactCache
    from repro.core.metrics import metrics_from_rv
    from repro.core.panel import MetricPanel
    from repro.core.study import CaseResult
    from repro.experiments.cases import build_workload
    from repro.io.json_io import canonical_json
    from repro.schedule import ALL_HEURISTICS
    from repro.schedule.random_schedule import random_schedules
    from repro.stochastic.batch import BatchedGridEngine
    from repro.stochastic.model import StochasticModel
    from repro.util.rng import as_generator

    tr = ctx.tracer
    cache = ArtifactCache(ctx.run_dir / "traced" / "cache")
    aggregator = SuiteAggregator(ordered=False)
    walk_ms: list[float] = []
    points: list[int] = []
    engine_totals: Counter = Counter()
    store_bytes = 0
    t0 = time.perf_counter()
    for index, case in enumerate(cases):
        if case.method != "classical" or case.mc_batch:
            raise BenchError(f"traced pass covers the classical engine only: {case.name}")
        with tr.span("case", case=case.key):
            with tr.span("platform.workload.build"):
                workload = build_workload(case.spec, base_seed=case.base_seed)
            model = StochasticModel(ul=case.spec.ul, grid_n=case.grid_n)
            if case.fast_conv:
                model = model.with_fast_conv()
            engine = BatchedGridEngine(model)
            gen = as_generator(case.rng_seed)
            metrics: list = []
            labels: list[str] = []

            def evaluate(schedule):
                with tr.span("analysis.classical.walk") as walk:
                    rv = classical_makespan(schedule, model, engine=engine)
                walk_ms.append((walk.end - walk.start) * 1e3)
                points.append(len(rv.xs))
                with tr.span("core.metrics"):
                    m = metrics_from_rv(
                        rv, schedule, model, delta=case.delta, gamma=case.gamma
                    )
                metrics.append(m)
                labels.append(schedule.label)
                return m

            schedules = iter(random_schedules(workload, case.n_random, gen))
            while True:
                start = time.perf_counter()
                schedule = next(schedules, None)
                tr.record("schedule.random_schedule", start, time.perf_counter())
                if schedule is None:
                    break
                evaluate(schedule)
            with tr.span("core.panel"):
                pearson = MetricPanel.from_metrics(metrics, labels).pearson()
            heuristic_metrics = {}
            for hname in case.heuristics:
                with tr.span(f"schedule.{hname}"):
                    schedule = ALL_HEURISTICS[hname](workload)
                heuristic_metrics[hname] = evaluate(schedule)
            with tr.span("core.panel"):
                panel = MetricPanel.from_metrics(metrics, labels)
            result = CaseResult(
                name=case.spec.name,
                panel=panel,
                pearson=pearson,
                heuristic_metrics=heuristic_metrics,
            )
            with tr.span("campaign.cache.store"):
                path = cache.store(case, result)
            store_bytes += path.stat().st_size
            with tr.span("campaign.aggregate.fold"):
                aggregator.add(case_contribution(index, case, result))
        engine_totals.update(engine.stats)
        del engine, workload, result, panel, metrics
        gc.collect()
    with tr.span("campaign.aggregate.fold"):
        final = aggregator.finalize()
    wall = time.perf_counter() - t0
    return Traced(
        wall_s=wall,
        cache_dir=cache.root,
        aggregate=canonical_json(suite_aggregate_to_payload(final)) + "\n",
        walk_ms=walk_ms,
        makespan_points=points,
        engine=engine_totals,
        store_bytes=store_bytes,
    )


def pearson_err(ctx, cases: list, cache_dir: Path, compute: bool) -> float | None:
    """Largest |fast − exact| Pearson entry over the fast-policy cases.

    The exact matrices come from the golden at the suite seed; elsewhere
    from exact twins kept in a shared cache under the work directory,
    computed through the CLI (outside any timing) only when ``compute``.
    ``None`` when the oracle is not at hand.
    """
    import numpy as np
    from repro.campaign.cache import ArtifactCache

    fast = ArtifactCache(cache_dir)
    twins = [dataclasses.replace(c, fast_conv=False) for c in cases]
    if ctx.golden is not None:
        exact = {t.artifact_name: np.array(ctx.golden["pearson"][t.artifact_name])
                 for t in twins}
    else:
        twin_cache = ArtifactCache(ctx.state_dir / "exact-twins")
        if not all(twin_cache.has(t) for t in twins):
            if not compute:
                return None
            proc = ctx.spawn([ctx.python, "-m", "repro.experiments.cli", "campaign", "sweep",
                              exact_twin_expr(ctx.seed), "--cache-dir", str(twin_cache.root)])
            proc.stdout.read()
            if ctx.wait(proc)[1] != 0:
                raise BenchError(f"exact-twin sweep failed; see {ctx.errlog}")
        exact = {t.artifact_name: twin_cache.load(t).pearson for t in twins}
    err = 0.0
    for case, twin in zip(cases, twins):
        diff = np.abs(fast.load(case).pearson - exact[twin.artifact_name])
        if np.isfinite(diff).any():
            err = max(err, float(np.nanmax(diff)))
    return err


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #


def run(ctx, workload: str) -> dict:
    """Measure one campaign workload; returns the outcome record."""
    from repro.caseset import parse

    expr = CAMPAIGN_EXPRS[workload](ctx.seed)
    cases = parse(expr).cases()
    ctx.note(f"workload {workload}: {len(cases)} case(s) — {expr}")

    passes: list[Pass] = []
    measured = 0.0
    while True:
        p = cli_pass(ctx, expr, cases, f"pass{len(passes)}")
        passes.append(p)
        measured += p.wall_s
        if ctx.trace or (len(passes) >= MIN_PASSES and measured + p.wall_s > ctx.seconds):
            break
    setups = [p.setup_s for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(ctx, expr))

    failed: dict[str, str] = {}
    for i, p in enumerate(passes):
        for name, why in check_pass(ctx, workload, p, cases).items():
            failed[f"pass{i}/{name}"] = why
        if i and p.shas != passes[0].shas:
            for case in cases:
                failed.setdefault(f"pass{i}/{case.artifact_name}", "differs from pass 0")
    attempted = len(cases) * len(passes)

    out = {"attempted": attempted, "failed": failed, "metrics": {}, "extra": {}, "notes": []}
    best = best_segments(passes)
    case_s = [s for name, s in best.items() if name != FOLD]
    walls = [p.wall_s for p in passes]
    out["samples"] = {"setup_s": len(setups), "wall_s": len(walls)}
    out["metrics"].update(
        setup_s=statistics.median(setups),
        wall_s=sum(best.values()),
    )
    out["extra"]["pass_p50_s"] = (statistics.median(walls), "s", len(walls))
    out["notes"].append("pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    out["notes"].append("best segments of the first k passes (s): " + " ".join(
        f"{sum(best_segments(passes[:k]).values()):.3f}" for k in range(1, len(passes) + 1)))
    out["extra"]["case_p50_s"] = (statistics.median(case_s), "s", len(case_s))
    out["extra"]["peak_rss_mb"] = (max(p.rss_mb for p in passes), "MB", len(passes))
    if workload == "dense-approx":
        err = pearson_err(ctx, cases, passes[0].cache_dir, compute=ctx.trace)
        if err is None:
            out["notes"].append("pearson_err: the exact oracle at this seed is computed by --trace 1")
        else:
            out["extra"]["pearson_err"] = (err, "1", len(cases))

    if not ctx.trace:
        if ctx.golden is None:
            for name, why in spot_check(ctx, workload, passes[0], cases).items():
                failed.setdefault(f"pass0/{name}", why)
        return out

    # -- traced: one in-process pass over the same cases ----------------- #
    traced = traced_pass(ctx, cases)
    out["attempted"] += len(cases)
    for case in cases:
        path = traced.cache_dir / case.artifact_name
        if lib.sha256_file(path) != passes[0].shas.get(case.artifact_name):
            failed[f"traced/{case.artifact_name}"] = "traced artifact differs from the untraced one"
    if traced.aggregate != passes[0].aggregate.read_text():
        for case in cases:
            failed.setdefault(f"traced/{case.artifact_name}", "traced aggregate differs")
    totals = lib.layer_self_times(ctx.tracer.spans)
    walk_total = totals.get("analysis.classical.walk", 0.0)
    eng = traced.engine
    layer = {
        "platform.workload.build_s": totals.get("platform.workload.build", 0.0),
        "schedule.random_schedule.s": totals.get("schedule.random_schedule", 0.0),
        "schedule.heft.s": totals.get("schedule.heft", 0.0),
        "schedule.bil.s": totals.get("schedule.bil", 0.0),
        "schedule.bmct.s": totals.get("schedule.bmct", 0.0),
        "analysis.classical.walk_s": walk_total,
        "analysis.classical.walk_ms_p50": lib.percentile(traced.walk_ms, 50),
        "analysis.classical.walk_ms_p95": lib.percentile(traced.walk_ms, 95),
        "stochastic.batch.add_ops": eng["add_memo"],
        "stochastic.batch.max_ops": eng["max_memo"],
        "stochastic.batch.resample_ops": eng["resample_memo"],
        "stochastic.batch.value_pool": eng["value_pool"],
        "stochastic.batch.rv_pool": eng["rv_pool"],
        "stochastic.batch.conv_capped": eng["conv_capped"],
        "stochastic.batch.max_capped": eng["max_capped"],
        "stochastic.batch.fft_convs": eng["fft_convs"],
        "stochastic.batch.ms_per_add_op": (
            walk_total * 1e3 / eng["add_memo"] if eng["add_memo"] else 0.0
        ),
        "stochastic.rv.makespan_points": statistics.fmean(traced.makespan_points),
        "core.metrics.s": totals.get("core.metrics", 0.0),
        "core.panel.s": totals.get("core.panel", 0.0),
        "campaign.cache.store_s": totals.get("campaign.cache.store", 0.0),
        "campaign.cache.store_bytes": traced.store_bytes,
        "campaign.aggregate.fold_s": totals.get("campaign.aggregate.fold", 0.0),
        "case.self_s": totals.get("case", 0.0),
        "trace.overhead_s": traced.wall_s - passes[0].wall_s,
    }
    if workload == "dense-approx":
        layer["accuracy.pearson_err"] = out["extra"]["pearson_err"][0]
    out["layer"] = layer
    out["extra"]["traced_wall_s"] = (traced.wall_s, "s", 1)
    return out
