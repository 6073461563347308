"""Command-line entry point: ``repro-experiments <figure> [--scale …]``.

Runs any figure of the paper (or the whole set) and prints the text report.
Example::

    repro-experiments fig6 --scale default
    REPRO_SCALE=paper repro-experiments all

Running campaigns
-----------------
The case-suite figures (fig3/fig4/fig5/fig6) execute through the
:mod:`repro.campaign` layer, which fans independent cases out across
worker processes and persists every finished case as a content-addressed
JSON artifact.  (fig9 is not case-based: it honours ``--jobs`` — each
quadrant's Monte-Carlo sampling can run in its own process — but has no
artifacts to cache, so ``--cache-dir``/``--resume``/``--force`` do not
apply to it.)

``--jobs N``
    Evaluate up to ``N`` cases concurrently in worker processes.  Each
    case derives its RNG stream from its own spec, so the report is
    **bit-identical** for any ``N`` (and to the historical serial path).

``--cache-dir DIR``
    Persist/reuse per-case artifacts in ``DIR``.  A re-run of the same
    figure, scale and seed loads every completed case from disk instead of
    recomputing it; corrupt or truncated artifacts are detected by content
    hash and recomputed transparently.

``--resume``
    Shorthand for caching in the default directory ``.repro-cache`` —
    re-running after an interruption (Ctrl-C, OOM, crash) picks up where
    the previous run stopped, skipping all completed cases.

``--force``
    Recompute every case even when a valid artifact exists, overwriting
    the artifacts.

Example — a paper-scale sweep that survives interruptions::

    repro-experiments fig6 --scale paper --jobs 8 --resume

Summarizing without recomputation
---------------------------------
``aggregate`` is a pseudo-figure that re-derives the Figure 6 report
purely from an existing artifact cache::

    repro-experiments aggregate --scale paper --cache-dir .repro-cache

It streams the cached artifacts through the same aggregation as ``fig6``
(bit-identical on a complete cache), skips cases whose artifacts are
missing (the partial aggregate of an interrupted sweep is exact for the
completed cases), and never computes anything.

Execution backends
------------------
``--backend {serial,process,queue}`` selects where campaign cases run
(default: serial for ``--jobs 1``, a local process pool otherwise).  The
``queue`` backend runs the elastic pull-worker fleet over ``--shards N``
shard tasks (see below).

Sharding a sweep across machines is driven by the ``campaign`` command
group, where each step can run on a different host against a shared (or
per-host, later-merged) cache directory::

    repro-experiments campaign queue-init work/queue --scale paper --shards 4
    repro-experiments campaign worker work/queue/tasks/shard-000-of-004.json \\
        --cache-dir cache/ --partial work/queue/partials/partial-000-of-004.json
    ... (one worker invocation per shard, anywhere — no shared filesystem
    needed: copy the shard file in and the partial back)
    repro-experiments campaign merge work/queue/partials/partial-*.json

``campaign verify-cache --cache-dir DIR`` audits a cache directory for
corrupt, orphaned or half-written artifacts without recomputing anything.

The elastic queue fleet
-----------------------
Where ``campaign worker`` executes one *fixed* manifest, the queue path
lets any number of workers **pull** shards from a shared queue directory —
workers may join late, crash, or be replaced, and the suite still
completes with byte-identical results::

    repro-experiments campaign queue-init work/queue --scale paper --shards 8
    repro-experiments campaign queue-worker work/queue --cache-dir cache/   # × N hosts
    repro-experiments campaign queue-status work/queue
    repro-experiments campaign merge work/queue/partials/partial-*.json

Workers claim shards atomically (``O_EXCL`` claim files), heartbeat while
running, and emit the same partials as ``campaign worker``; stale claims
are requeued with bounded retries (then poisoned and reported).  The
one-shot form ``fig6 --backend queue --jobs N --queue-dir DIR`` drives
the whole fleet from one coordinator process (``--queue-lease`` /
``--queue-max-attempts`` tune the reaper).

SIGTERM/SIGINT ask a ``queue-worker`` to drain gracefully: it finishes —
or, mid-shard, releases — its current claim and exits with code 3 when
the queue is still incomplete; a second signal force-aborts (code 4).
``--forever`` keeps a worker polling after the queue drains (the service
fleet mode, where new single-case tasks arrive at any time).

The query service
-----------------
``serve`` runs the robustness-as-a-service HTTP layer over a cache and a
queue directory (see :mod:`repro.service`)::

    repro-experiments serve --cache-dir cache/ --workers 2 --port 8080
    curl 'http://127.0.0.1:8080/case?kind=cholesky&param=7&ul=1.1'

Cache hits answer in O(1) from the case's artifact path; misses are
enqueued as single-case tasks and computed by the worker fleet within a
per-request deadline.  Overload sheds with 429 + ``Retry-After``;
``/healthz`` and ``/stats`` expose liveness and counters.

Case-set sweeps
---------------
``campaign sweep`` selects a whole suite with one case-set expression
(see :mod:`repro.caseset`) and aggregates it through the fig-6 runner
— computing only what the cache does not already hold::

    repro-experiments campaign sweep \\
        'graph[chol84,ge90] x ul[1.1-1.6/0.1] x seed[0-9]' \\
        --cache-dir cache/ --jobs 4 --json sweep.json

``--fold`` prints the canonical compact form, ``--expand`` lists the
expanded cases, and ``--from-cache`` replays the same report from what
is already cached (exit 1 + the *missing subset folded back to an
expression* when incomplete, the whole expression and no report when
nothing has landed — paste it into the next sweep).  The same resolver
backs ``GET /sweep?expr=...`` on the service, which streams incremental
aggregate updates (SSE or NDJSON) while the fleet computes the cold
subset; ``campaign queue-status --json`` exposes machine-readable queue
state for scripts and CI.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from dataclasses import replace
from typing import Callable

from repro.campaign import (
    ArtifactCache,
    BACKEND_NAMES,
    ShardManifest,
    ShardPartial,
    expand_suite,
    get_backend,
    merge_partials,
    partition_cases,
    run_shard,
    suite_aggregate_to_payload,
)
from repro.experiments import fig1_precision, fig2_visual, fig6_aggregate, fig78_clt
from repro.experiments import fig345_panels, fig9_slack_quadrants
from repro.experiments.cases import default_suite
from repro.experiments.scale import get_scale
from repro.io.atomic import write_atomic
from repro.io.json_io import canonical_json

__all__ = ["main", "DEFAULT_CACHE_DIR"]

#: Cache directory used by ``--resume`` when ``--cache-dir`` is not given.
DEFAULT_CACHE_DIR = pathlib.Path(".repro-cache")

#: Figures whose cases run through the campaign layer (cache + fan-out).
_CAMPAIGN_FIGURES = ("fig3", "fig4", "fig5", "fig6")


def _write_aggregate_json(path: pathlib.Path, aggregate) -> None:
    """Dump a suite aggregate as canonical JSON (one trailing newline).

    The single writer behind every ``--json`` site (figure run,
    ``campaign merge`` and ``campaign sweep``): the files are
    byte-compared by CI and users, so the encoding must never diverge.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(suite_aggregate_to_payload(aggregate)) + "\n")
    print(f"[wrote {path}]")


def _runners() -> dict[str, Callable[..., object]]:
    return {
        "fig1": fig1_precision.run,
        "fig2": fig2_visual.run,
        "fig3": fig345_panels.run_fig3,
        "fig4": fig345_panels.run_fig4,
        "fig5": fig345_panels.run_fig5,
        "fig6": fig6_aggregate.run,
        "fig7": fig78_clt.run_fig7,
        "fig8": fig78_clt.run_fig8,
        "fig9": fig9_slack_quadrants.run,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:  # pragma: no cover - interactive invocation
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    runners = _runners()
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the figures of Canon & Jeannot (2007).",
    )
    parser.add_argument(
        "figure",
        choices=[*runners.keys(), "aggregate", "all"],
        help="figure to reproduce, 'aggregate' (summarize a cache), or "
        "'all'; see also the 'campaign' command group "
        "(queue-init/worker/merge/verify-cache/...) and 'serve' (the HTTP "
        "query service)",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["quick", "default", "paper"],
        help="population scale (default: env REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for campaign figures (default: 1, serial)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="execution backend for campaign figures (default: serial for "
        "--jobs 1, a process pool otherwise)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count for --backend queue (default: --jobs, min 2)",
    )
    parser.add_argument(
        "--queue-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="--backend queue: persistent work-queue directory (external "
        "`campaign queue-worker` processes may join the fleet; shard-level "
        "resume re-dispatches only shards with missing partials)",
    )
    parser.add_argument(
        "--queue-lease",
        type=float,
        default=None,
        metavar="SEC",
        help="--backend queue: heartbeat lease — shards whose worker goes "
        "silent this long are requeued (default: 60)",
    )
    parser.add_argument(
        "--queue-max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="--backend queue: execution attempts per shard before it is "
        "poisoned (default: 3)",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="fig6/aggregate: also dump the suite aggregate as canonical "
        "JSON (the cross-backend bit-identity comparison format)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="persist/reuse per-case artifacts here (campaign figures)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"cache in {DEFAULT_CACHE_DIR}/ so interrupted runs resume",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute cases even when a valid cached artifact exists",
    )
    parser.add_argument(
        "--fast-conv",
        action="store_true",
        help="campaign figures: opt the grid engines into the fast "
        "precision policy (capped conv/max grids + FFT dispatch; see "
        "docs/performance.md — measured error bounds, distinct cache keys)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="also append the rendered reports to this file",
    )
    parser.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        default=None,
        help="dump metric-panel CSVs here (panel figures: fig3/fig4/fig5)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be ≥ 1")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be ≥ 1")
    if args.shards is not None and args.backend != "queue":
        parser.error("--shards only applies to --backend queue")
    queue_knobs = (args.queue_dir, args.queue_lease, args.queue_max_attempts)
    if any(k is not None for k in queue_knobs) and args.backend != "queue":
        parser.error("--queue-* options only apply to --backend queue")
    scale = get_scale(args.scale)
    queue_config = None
    if args.queue_lease is not None or args.queue_max_attempts is not None:
        from repro.campaign import QueueConfig

        defaults = QueueConfig()
        queue_config = QueueConfig(
            lease_seconds=args.queue_lease
            if args.queue_lease is not None
            else defaults.lease_seconds,
            max_attempts=args.queue_max_attempts
            if args.queue_max_attempts is not None
            else defaults.max_attempts,
        )
    backend = (
        get_backend(
            args.backend,
            jobs=args.jobs,
            shards=args.shards,
            queue_dir=args.queue_dir,
            queue_config=queue_config,
        )
        if args.backend is not None
        else None
    )

    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None

    if args.figure == "aggregate" and cache is None:
        parser.error("aggregate requires --cache-dir or --resume")

    chunks: list[str] = []
    names = list(runners) if args.figure == "all" else [args.figure]
    for name in names:
        t0 = time.perf_counter()
        if name == "aggregate":
            try:
                result = fig6_aggregate.aggregate_from_cache(
                    scale, cache=cache, fast_conv=args.fast_conv
                )
            except ValueError as exc:
                # Empty/typo'd cache dir, or artifacts of another scale/seed.
                parser.error(str(exc))
        elif name in _CAMPAIGN_FIGURES:
            # Snapshot the shared cache counters so the line printed after
            # this figure shows its own hits/stores, not the running total.
            before = replace(cache.stats) if cache is not None else None
            result = runners[name](
                scale,
                jobs=args.jobs,
                cache=cache,
                force=args.force,
                backend=backend,
                fast_conv=args.fast_conv,
            )
        elif name == "fig9":
            result = runners[name](scale, jobs=args.jobs, backend=backend)
        else:
            result = runners[name](scale)
        elapsed = time.perf_counter() - t0
        text = result.render()
        print(text)
        print(f"[{name} done in {elapsed:.1f}s at scale={scale.name}]")
        if name == "aggregate":
            print(
                f"[aggregate {cache_dir}: {result.aggregate.n_cases}/"
                f"{result.suite_size} "
                "cases summarized, nothing recomputed]"
            )
        if cache is not None and name in _CAMPAIGN_FIGURES:
            s, b = cache.stats, before
            corrupt = s.corrupt - b.corrupt
            print(
                f"[cache {cache_dir}: {s.hits - b.hits} hits, "
                f"{s.stores - b.stores} stored"
                + (f", {corrupt} corrupt recomputed" if corrupt else "")
                + "]"
            )
        print()
        chunks.append(text + "\n")
        if args.json is not None and name in ("fig6", "aggregate"):
            _write_aggregate_json(args.json, result.suite_aggregate())
        if args.csv_dir is not None and hasattr(result, "case"):
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            path = args.csv_dir / f"{name}_panel.csv"
            path.write_text(result.case.panel.to_csv())
            print(f"[wrote {path}]")
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        with args.output.open("a") as fh:
            fh.write("\n".join(chunks))
    return 0


# ---------------------------------------------------------------------- #
# the `campaign` command group: the queue fleet (queue-init / queue-worker
# / queue-status), one-shard workers, merge, verify-cache and sweep
# ---------------------------------------------------------------------- #


def _campaign_main(argv: list[str]) -> int:
    """The ``campaign`` command group: queue fleet, worker/merge, sweeps."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Shard a campaign across workers/machines and merge "
        "the partial aggregates (bit-identical to a single-process run).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_worker = sub.add_parser(
        "worker", help="execute one shard file against a cache directory"
    )
    p_worker.add_argument("manifest", type=pathlib.Path)
    p_worker.add_argument(
        "--cache-dir", type=pathlib.Path, required=True, metavar="DIR"
    )
    p_worker.add_argument("--jobs", type=int, default=1, metavar="N")
    p_worker.add_argument("--force", action="store_true")
    p_worker.add_argument(
        "--partial",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="partial output path (default: alongside the manifest)",
    )

    p_merge = sub.add_parser(
        "merge", help="fold shard partials into the suite aggregate"
    )
    p_merge.add_argument("partials", type=pathlib.Path, nargs="+")
    p_merge.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="also dump the merged aggregate as canonical JSON",
    )

    p_qinit = sub.add_parser(
        "queue-init",
        help="partition the fig6 suite onto a work-queue directory",
    )
    p_qinit.add_argument("queue_dir", type=pathlib.Path)
    p_qinit.add_argument(
        "--scale", default=None, choices=["quick", "default", "paper"]
    )
    p_qinit.add_argument("--seed", type=int, default=20070913)
    p_qinit.add_argument("--shards", type=int, default=2, metavar="N")
    p_qinit.add_argument(
        "--fast-conv",
        action="store_true",
        help="enqueue the fast-precision-policy variant of the suite",
    )

    p_qworker = sub.add_parser(
        "queue-worker",
        help="pull and execute shards from a work queue until it completes",
    )
    p_qworker.add_argument("queue_dir", type=pathlib.Path)
    p_qworker.add_argument(
        "--cache-dir", type=pathlib.Path, required=True, metavar="DIR"
    )
    p_qworker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable worker name for claims/logs (default: worker-<pid>)",
    )
    p_qworker.add_argument("--force", action="store_true")
    p_qworker.add_argument(
        "--lease", type=float, default=60.0, metavar="SEC",
        help="heartbeat lease before a claim counts as stale (default: 60)",
    )
    p_qworker.add_argument(
        "--poll", type=float, default=0.5, metavar="SEC",
        help="idle scan interval (default: 0.5)",
    )
    p_qworker.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per shard before poisoning (default: 3)",
    )
    p_qworker.add_argument(
        "--backoff", type=float, default=1.0, metavar="SEC",
        help="base of the exponential requeue backoff (default: 1)",
    )
    p_qworker.add_argument(
        "--no-reap",
        action="store_true",
        help="never requeue stale claims from this worker (a coordinator "
        "owns the reaper)",
    )
    p_qworker.add_argument(
        "--no-wait",
        action="store_true",
        help="exit when nothing is claimable instead of polling until the "
        "queue completes",
    )
    p_qworker.add_argument(
        "--forever",
        action="store_true",
        help="keep polling after the queue drains (service-fleet mode: "
        "new single-case tasks may arrive at any time; exit via SIGTERM)",
    )

    p_qstatus = sub.add_parser(
        "queue-status",
        help="report a work queue's task states and poisoned shards",
    )
    p_qstatus.add_argument("queue_dir", type=pathlib.Path)
    p_qstatus.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable state (counts, per-task attempts, "
        "poison reports) as canonical JSON on stdout",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="select a suite with a case-set expression and aggregate it, "
        "computing only the cases the cache is missing",
    )
    p_sweep.add_argument(
        "expr",
        help="case-set expression, e.g. "
        "'graph[chol84,ge90] x ul[1.1-1.6/0.1] x seed[0-9]'",
    )
    p_sweep.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"artifact cache to aggregate from (default: {DEFAULT_CACHE_DIR})",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N")
    p_sweep.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="OUT",
        help="also dump the sweep aggregate as canonical JSON",
    )
    p_sweep.add_argument(
        "--fold",
        action="store_true",
        help="print the canonical folded form of the expression and exit",
    )
    p_sweep.add_argument(
        "--expand",
        action="store_true",
        help="print the expanded case list and exit",
    )
    p_sweep.add_argument(
        "--from-cache",
        action="store_true",
        help="aggregate only what the cache already holds (never compute); "
        "exit 1 and print the missing subset as a foldable expression "
        "when incomplete",
    )
    p_sweep.add_argument(
        "--force",
        action="store_true",
        help="recompute every case even when a valid artifact exists",
    )

    p_verify = sub.add_parser(
        "verify-cache",
        help="audit a cache directory for corrupt/orphan artifacts",
    )
    p_verify.add_argument(
        "--cache-dir", type=pathlib.Path, required=True, metavar="DIR"
    )
    p_verify.add_argument(
        "--scale",
        default=None,
        choices=["quick", "default", "paper"],
        help="also flag valid artifacts outside the fig6 suite at this "
        "scale/seed as orphans",
    )
    p_verify.add_argument("--seed", type=int, default=20070913)
    p_verify.add_argument(
        "--fast-conv",
        action="store_true",
        help="audit against the fast-precision-policy variant of the suite",
    )

    args = parser.parse_args(argv)

    if args.cmd == "worker":
        try:
            manifest = ShardManifest.read(args.manifest)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot read shard manifest {args.manifest}: {exc}")
        partial = run_shard(
            manifest, args.cache_dir, jobs=args.jobs, force=args.force
        )
        if args.partial is not None:
            path = write_atomic(
                args.partial, canonical_json(partial.to_payload())
            )
        else:
            path = partial.write(args.manifest.parent)
        print(
            f"[shard {manifest.shard_index}/{manifest.n_shards}: "
            f"{len(manifest.cases)} cases, {partial.computed} computed, "
            f"{partial.cached} cached → {path}]"
        )
        return 0

    if args.cmd == "merge":
        try:
            partials = [ShardPartial.read(p) for p in args.partials]
            merged = merge_partials(partials)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(str(exc))
        print(merged.render())
        print(
            f"[merged {len(merged.shards_present)}/{merged.n_shards} shards: "
            f"{merged.aggregate.n_cases}/{merged.suite_size} cases, "
            f"{merged.computed} computed, {merged.cached} cached]"
        )
        if args.json is not None:
            _write_aggregate_json(args.json, merged.aggregate)
        return 0

    if args.cmd == "queue-init":
        if args.shards < 1:
            parser.error("--shards must be ≥ 1")
        from repro.campaign import WorkQueue

        scale = get_scale(args.scale)
        cases = expand_suite(
            default_suite(), scale, base_seed=args.seed,
            fast_conv=args.fast_conv,
        )
        manifests = [
            m
            for m in partition_cases(list(enumerate(cases)), args.shards)
            if m.cases
        ]
        queue = WorkQueue(args.queue_dir)
        try:
            new, done = queue.enqueue(manifests)
        except ValueError as exc:
            parser.error(str(exc))
        print(
            f"[queue {args.queue_dir}: {new} shard(s) enqueued, {done} "
            f"already done — suite {manifests[0].suite_key[:12]}…, "
            f"{len(cases)} cases (scale={scale.name}, seed={args.seed})]"
        )
        print(f"[{queue.status().render()}]")
        return 0

    if args.cmd == "queue-worker":
        import os
        import signal
        import threading

        from repro.campaign import QueueConfig, WorkQueue, queue_worker

        config = QueueConfig(
            lease_seconds=args.lease,
            poll_seconds=args.poll,
            max_attempts=args.max_attempts,
            backoff_seconds=args.backoff,
        )
        queue = WorkQueue(args.queue_dir, config)
        stop = threading.Event()

        def _drain(signum: int, frame: object) -> None:
            # First signal: finish-or-release the current claim, then
            # exit.  Second signal: the operator means it — abort hard.
            if stop.is_set():
                os._exit(4)
            stop.set()

        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except ValueError:  # pragma: no cover - non-main-thread callers
            pass
        # Announced only once the drain handlers are armed: anything that
        # waits for this line may SIGTERM the worker and rely on a
        # graceful finish-or-release instead of a default-action kill.
        print(f"[queue-worker on {args.queue_dir}: ready]", flush=True)
        report = queue_worker(
            queue,
            args.cache_dir,
            worker_id=args.worker_id,
            force=args.force,
            reap=not args.no_reap,
            wait=not args.no_wait,
            forever=args.forever,
            stop=stop,
        )
        print(report.render(), flush=True)
        print(f"[{queue.status().render()}]", flush=True)
        if stop.is_set() and not queue.is_complete():
            return 3  # drained mid-queue: claims released, work remains
        return 0

    if args.cmd == "queue-status":
        from repro.campaign import WorkQueue

        if not args.queue_dir.is_dir():
            parser.error(f"queue directory {args.queue_dir} does not exist")
        queue = WorkQueue(args.queue_dir)
        if args.json:
            payload = queue.status_payload()
            print(canonical_json(payload))
            return 0 if payload["poisoned"] == 0 else 1
        status = queue.status()
        print(f"[{args.queue_dir}: {status.render()}]")
        for task_id, report in queue.poisoned().items():
            print(
                f"  poisoned: {task_id} after {report.get('attempts', '?')} "
                f"attempt(s) — {report.get('reason', 'unknown')}"
            )
        return 0 if status.poisoned == 0 else 1

    if args.cmd == "sweep":
        from repro.caseset import CaseSetError
        from repro.caseset import parse as parse_caseset

        try:
            caseset = parse_caseset(args.expr)
        except CaseSetError as exc:
            parser.error(str(exc))
        if args.fold:
            print(caseset.fold())
            return 0
        cases = caseset.cases()
        if args.expand:
            for case in cases:
                print(case.name)
            print(f"[{len(cases)} case(s) — {caseset.fold()}]")
            return 0
        if not cases:
            parser.error(f"expression selects no cases: {args.expr!r}")
        if args.from_cache and not args.cache_dir.is_dir():
            parser.error(f"cache directory {args.cache_dir} does not exist")
        cache = ArtifactCache(args.cache_dir)
        fold = caseset.fold()
        missing = None
        if args.from_cache:
            try:
                result = fig6_aggregate.aggregate_from_cache(
                    cases=cases, cache=cache
                )
            except ValueError:
                # No artifact of this sweep is readable: all of it is missing.
                print(f"[missing: {fold}]")
                return 1
            # The cases the fold read; a corrupt artifact is missing too.
            missing = caseset - caseset.subset(
                cases[i].key for i in result.aggregate.indices
            )
            tail = f" aggregated from {args.cache_dir}, nothing recomputed"
        else:
            # Cached cases load and missing ones compute, folded in case
            # order exactly as the replay above and the service's streamed
            # sweep fold the same expression.
            result = fig6_aggregate.run(
                cases=cases, jobs=args.jobs, cache=cache, force=args.force
            )
            # The cache object is this sweep's own, so its counters are the
            # sweep's: one store per computed case, one hit per cached one.
            tail = f", {cache.stats.stores} computed, {cache.stats.hits} cached"
        agg = result.aggregate
        print(agg.render(
            f"Sweep {fold} — Pearson coefficients over {agg.n_cases} cases",
            len(cases),
        ))
        print(f"[sweep {fold}: {agg.n_cases}/{len(cases)} case(s){tail}]")
        if args.json is not None:
            _write_aggregate_json(args.json, agg)
        if missing:
            print(f"[missing: {missing.fold()}]")
            return 1
        return 0

    # verify-cache
    if not args.cache_dir.is_dir():
        parser.error(f"cache directory {args.cache_dir} does not exist")
    cache = ArtifactCache(args.cache_dir)
    expected = None
    if args.scale is not None:
        scale = get_scale(args.scale)
        expected = expand_suite(
            default_suite(), scale, base_seed=args.seed,
            fast_conv=args.fast_conv,
        )
    audit = cache.verify(expected)
    print(f"[{args.cache_dir}: {audit.summary()}]")
    for path, reason in audit.corrupt:
        print(f"  corrupt: {path.name} ({reason})")
    for path, reason in audit.orphans:
        print(f"  orphan:  {path.name} ({reason})")
    for path in audit.stale_temp:
        print(f"  stale:   {path.name}")
    return 0 if audit.ok else 1


# ---------------------------------------------------------------------- #
# the `serve` command: the robustness-as-a-service HTTP layer
# ---------------------------------------------------------------------- #


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` command: run the robustness query service."""
    from repro.campaign import QueueConfig
    from repro.service import AdmissionConfig, ServiceConfig, serve

    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve robustness metrics over HTTP from an artifact "
        "cache; misses are enqueued onto the campaign queue fleet.",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, required=True, metavar="DIR",
        help="artifact cache to answer from (and the fleet writes into)",
    )
    parser.add_argument(
        "--queue-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="work-queue directory for miss dispatch "
        "(default: <cache-dir>-queue)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks a free one; the address is printed)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fleet workers to spawn and babysit (0 = rely on external "
        "`campaign queue-worker --forever` processes)",
    )
    parser.add_argument(
        "--deadline", type=float, default=60.0, metavar="SEC",
        help="per-request compute budget for cache misses (default: 60)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.05, metavar="SEC",
        help="artifact poll interval while a miss computes (default: 0.05)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admitted requests in flight before arrivals wait (default: 8)",
    )
    parser.add_argument(
        "--max-waiting", type=int, default=16, metavar="N",
        help="requests allowed to wait for a slot; beyond this they are "
        "shed with 429 (default: 16)",
    )
    parser.add_argument(
        "--admit-wait", type=float, default=0.5, metavar="SEC",
        help="longest a request waits for a slot before shedding "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--lease", type=float, default=60.0, metavar="SEC",
        help="fleet heartbeat lease (default: 60)",
    )
    parser.add_argument(
        "--queue-poll", type=float, default=0.25, metavar="SEC",
        help="fleet worker idle scan interval (default: 0.25)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per task before poisoning (default: 3)",
    )
    parser.add_argument(
        "--backoff", type=float, default=1.0, metavar="SEC",
        help="base of the exponential requeue backoff (default: 1)",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be ≥ 0")
    queue_dir = args.queue_dir
    if queue_dir is None:
        queue_dir = args.cache_dir.with_name(args.cache_dir.name + "-queue")
    config = ServiceConfig(
        cache_dir=args.cache_dir,
        queue_dir=queue_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        deadline_seconds=args.deadline,
        poll_seconds=args.poll,
        admission=AdmissionConfig(
            max_inflight=args.max_inflight,
            max_waiting=args.max_waiting,
            wait_seconds=args.admit_wait,
        ),
        queue=QueueConfig(
            lease_seconds=args.lease,
            poll_seconds=args.queue_poll,
            max_attempts=args.max_attempts,
            backoff_seconds=args.backoff,
        ),
    )
    service = serve(
        config,
        on_bound=lambda svc: print(
            f"[serving http://{args.host}:{svc.port} — cache "
            f"{args.cache_dir}, queue {queue_dir}, "
            f"{args.workers} worker(s); SIGTERM drains gracefully]",
            flush=True,
        ),
    )
    print(f"[serve drained: {service.stats.summary()}]", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
