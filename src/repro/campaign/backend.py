"""Pluggable campaign execution backends (the dispatch layer).

The robustness study is embarrassingly parallel: thousands of independent
``(graph, platform, heuristic, M)`` cases whose evaluations only meet at
aggregation time.  *Where* those cases run is therefore a policy, not a
property of the campaign — this module makes it one.

:class:`ExecutionBackend` is the protocol every execution strategy
implements, and :class:`~repro.campaign.runner.Campaign` reads nothing
else off a backend:

* :meth:`~ExecutionBackend.submit` registers the pending work units as
  ``(suite_index, case)`` pairs (the index is the case's position in the
  full suite — the canonical fold order downstream aggregation relies on)
  together with the campaign's artifact cache and force policy;
* :meth:`~ExecutionBackend.as_completed` yields ``(index, case, result)``
  triples as cases finish, in whatever order the backend completes them;
* ``persists_results`` declares whether those results are already in the
  cache, and ``workers`` how many workers the batch may use.

Because every case derives its RNG stream from its own fields, **any**
backend produces bit-identical :class:`~repro.core.study.CaseResult`
objects and bit-identical cache artifacts; backends differ only in wall
clock and completion order (consumers needing a canonical order reorder by
``index`` — the aggregate layer does).

Implementations here:

* :class:`SerialBackend` — inline execution, case order, zero overhead;
* :class:`ProcessPoolBackend` — the ``ProcessPoolExecutor`` fan-out behind
  ``--jobs N``: workers receive ``CampaignCase.to_dict()`` (plain JSON)
  and ship back the canonical result JSON, so only small payloads cross
  the process boundary.  Each worker splits its panel walks across its
  share of the CPUs (:func:`_pool`).  Its :meth:`~ProcessPoolBackend.map`
  is also the fan-out for work that is not case-shaped (the Figure 9
  samplings).

The one out-of-process dispatch path,
:class:`~repro.campaign.queue.QueueBackend` (an elastic pull-worker fleet
over a filesystem work queue), lives in :mod:`repro.campaign.queue` and
satisfies the same protocol.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.analysis import classical
from repro.campaign.cache import ArtifactCache
from repro.campaign.spec import CampaignCase
from repro.core.study import CaseResult
from repro.io.json_io import case_result_from_json, case_result_to_json

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "get_backend",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: What :meth:`ExecutionBackend.as_completed` yields, one per case.
Completion = tuple[int, CampaignCase, CaseResult]

#: Backend specifiers understood by :func:`get_backend` (and the CLI).
BACKEND_NAMES = ("serial", "process", "queue")


def _pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes that share this process's walkers.

    Each worker splits a panel walk across its share of the CPUs
    (:func:`repro.analysis.classical.share_walkers`), so ``--jobs N`` on N
    CPUs runs N walk processes, not N per worker.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=classical.share_walkers,
        initargs=(workers,),
    )


def _run_case_payload(case_dict: dict[str, Any]) -> str:
    """Worker entry point: evaluate one case, return its canonical JSON.

    Takes/returns plain JSON-compatible values so the pool pickles only
    small payloads.  The parent re-serializes the parsed result when it
    caches it; because the payload layout and float encoding are
    canonical, those bytes equal the worker's exactly (the cross-backend
    artifact byte-identity the test suite and CI assert).
    """
    case = CampaignCase.from_dict(case_dict)
    return case_result_to_json(case.run())


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where and how a campaign's pending cases execute.

    A backend is handed the pending work once per campaign run via
    :meth:`submit` and then drained via :meth:`as_completed`; backends are
    reusable (each ``submit`` starts a fresh batch).  Yielded results must
    be bit-identical to ``case.run()`` in the parent process — the
    campaign determinism guarantee — but may arrive in any order.
    """

    #: True when the yielded results are already stored in the cache
    #: handed to :meth:`submit` (out-of-process workers write artifacts
    #: themselves), so the campaign skips its byte-identical re-store.
    persists_results: bool

    @property
    def workers(self) -> int:
        """Maximum concurrent workers this backend dispatches to."""
        ...  # pragma: no cover - protocol

    def submit(
        self,
        cases: Sequence[tuple[int, CampaignCase]],
        cache: ArtifactCache | None = None,
        force: bool = False,
    ) -> None:
        """Register pending ``(suite_index, case)`` pairs for execution.

        ``cache`` and ``force`` are the campaign's artifact cache and
        recompute policy; a backend whose workers run out of process
        hands them on so the workers store artifacts straight into it.
        """
        ...  # pragma: no cover - protocol

    def as_completed(self) -> Generator[Completion, None, None]:
        """Yield ``(suite_index, case, result)`` as each case finishes.

        Closing the generator early cancels the work still queued.
        """
        ...  # pragma: no cover - protocol


class _InProcessBackend:
    """Shared state of the backends whose results come back to the parent.

    The campaign stores what they yield.
    """

    persists_results = False

    def __init__(self) -> None:
        self._pending: list[tuple[int, CampaignCase]] = []

    def submit(
        self,
        cases: Sequence[tuple[int, CampaignCase]],
        cache: ArtifactCache | None = None,
        force: bool = False,
    ) -> None:
        """Register pending ``(suite_index, case)`` pairs.

        ``cache`` and ``force`` are not needed: the campaign does every
        cache load and store itself.
        """
        self._pending = list(cases)


class SerialBackend(_InProcessBackend):
    """Inline execution in the calling process, in case order.

    The zero-overhead reference backend: no pickling, no subprocesses —
    every other backend must reproduce its results bit-for-bit.
    """

    workers = 1

    def as_completed(self) -> Generator[Completion, None, None]:
        """Run each case inline and yield it immediately."""
        pending, self._pending = self._pending, []
        for index, case in pending:
            yield index, case, case.run()


class ProcessPoolBackend(_InProcessBackend):
    """``ProcessPoolExecutor`` fan-out (the ``jobs=N`` default).

    Cases cross the process boundary as ``CampaignCase.to_dict()`` JSON
    payloads and come back as canonical result JSON — the same wire format
    the artifact cache stores, so a pooled run's artifacts are
    byte-identical to a serial run's.  Single-case batches run inline (no
    pool spin-up for one unit of work).  Load balances per case, so one
    slow case never holds up a whole shard.

    On a worker failure the batch's already-finished successes are yielded
    *before* the failure propagates, so a caching consumer persists them
    and a ``--resume`` re-run does not redo them.  An abandoned iterator
    (``GeneratorExit``) or Ctrl-C cancels the queued futures instead of
    draining them; everything already yielded stays yielded.
    """

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        super().__init__()
        self.jobs = int(jobs)

    @property
    def workers(self) -> int:
        """Worker process count."""
        return self.jobs

    def as_completed(self) -> Generator[Completion, None, None]:
        """Yield results in completion order across the pool."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        if self.jobs <= 1 or len(pending) <= 1:
            for index, case in pending:
                yield index, case, case.run()
            return

        pool = _pool(min(self.jobs, len(pending)))
        futures = {
            pool.submit(_run_case_payload, case.to_dict()): (index, case)
            for index, case in pending
        }
        try:
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                failure: BaseException | None = None
                for fut in done:
                    error = fut.exception()
                    if error is not None:
                        failure = failure or error
                        continue
                    index, case = futures[fut]
                    yield index, case, case_result_from_json(fut.result())
                if failure is not None:
                    raise failure
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Order-preserving map, inline or across a process pool.

        The fan-out for work that is not case-shaped.  ``fn`` must be
        picklable (module top-level) when ``jobs > 1``.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with _pool(min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))


def get_backend(
    spec: "str | ExecutionBackend | None",
    jobs: int = 1,
    shards: int | None = None,
    queue_dir: "Any | None" = None,
    queue_config: "Any | None" = None,
) -> "ExecutionBackend":
    """Resolve a backend specifier into an :class:`ExecutionBackend`.

    ``spec`` may be an already-constructed backend (returned as-is), one
    of :data:`BACKEND_NAMES`, or ``None`` — the default policy: serial
    for ``jobs <= 1``, a process pool otherwise.

    ``shards`` sizes the queue backend's partition (default: ``jobs``
    when > 1, else 2).  ``queue_dir`` (a path) and ``queue_config`` (a
    :class:`repro.campaign.queue.QueueConfig`) apply only to the queue
    backend: a persistent queue directory enables shard-level resume and
    external workers joining the fleet.
    """
    if spec is None:
        return SerialBackend() if jobs <= 1 else ProcessPoolBackend(jobs)
    if not isinstance(spec, str):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        # An explicit jobs value is respected, including jobs=1 (a pool
        # of one runs its batch inline — same results, no pickling).
        return ProcessPoolBackend(jobs)
    if spec == "queue":
        # Imported lazily: queue.py builds on this module.
        from repro.campaign.queue import QueueBackend

        return QueueBackend(
            n_shards=shards or max(jobs, 2),
            jobs=jobs,
            queue_dir=queue_dir,
            config=queue_config,
        )
    raise ValueError(
        f"unknown backend {spec!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
