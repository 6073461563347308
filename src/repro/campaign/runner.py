"""The campaign execution engine: cache policy + backend dispatch.

A :class:`Campaign` is a list of independent :class:`CampaignCase` work
units plus an execution policy: an artifact cache (skip completed cases,
persist finished ones) and an :class:`ExecutionBackend` deciding *where*
the pending cases run — inline, across a local process pool, or through
the queue-backed worker fleet.  The campaign reads only what the
protocol declares.  Because every case derives its RNG stream from its
*own* fields (not from execution order), results are bit-identical across

* ``SerialBackend`` (inline, no pool),
* ``ProcessPoolBackend`` (``ProcessPoolExecutor`` fan-out, any completion
  order),
* ``QueueBackend`` (pull workers over a work queue + merge), and
* a cache-warm re-run (artifacts only, nothing recomputed),

which the determinism test suite asserts panel-for-panel.  Every computed
case is persisted to the cache the moment it is yielded, so an
interrupted campaign re-run with ``--resume`` skips every completed case
regardless of backend.  The campaign keeps no counters of its own: the
cache's :class:`~repro.campaign.cache.CacheStats` records what a run
loaded and stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.campaign.backend import ExecutionBackend, get_backend
from repro.campaign.cache import ArtifactCache
from repro.campaign.spec import CampaignCase
from repro.core.study import CaseResult

__all__ = ["Campaign"]


@dataclass
class Campaign:
    """A set of independent cases plus an execution policy.

    Attributes
    ----------
    cases:
        The work units, in result order.
    jobs:
        Worker count for the *default* backend policy: ``1`` resolves to
        :class:`SerialBackend`, ``N > 1`` to ``ProcessPoolBackend(N)`` —
        the historical behaviour, kept so every existing ``jobs=`` call
        site works unchanged.  Ignored when ``backend`` is given.
    cache:
        Optional artifact cache; finished cases are persisted there and
        re-used on later runs (corrupt artifacts are recomputed).
    force:
        Recompute every case even when a valid artifact exists (the
        artifact is overwritten with the fresh result).
    backend:
        Explicit :class:`~repro.campaign.backend.ExecutionBackend`; where
        the pending (non-cached) cases execute.
    """

    cases: Sequence[CampaignCase]
    jobs: int = 1
    cache: ArtifactCache | None = None
    force: bool = False
    backend: ExecutionBackend | None = None

    def _resolve_backend(self) -> ExecutionBackend:
        """The explicit backend, or :func:`get_backend`'s ``jobs`` policy."""
        return get_backend(self.backend, jobs=self.jobs)

    def run(self) -> list[CaseResult]:
        """Execute all cases; returns results in case order.

        Cached cases are loaded (never recomputed) unless ``force``;
        pending cases run on the resolved backend.  Each result is
        persisted to the cache as soon as it is available.
        """
        results = {i: result for i, _, result in self.iter_results()}
        return [results[i] for i in range(len(self.cases))]

    def iter_results(self) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Yield ``(index, case, result)`` as each case completes.

        The streaming core of :meth:`run` — consumers that only *reduce*
        over results (the Figure 6 aggregation, any
        :class:`~repro.campaign.aggregate.SuiteAggregator`) never hold more
        than one :class:`CaseResult` at a time.  Cached cases are yielded
        first, in case order; computed cases follow in the backend's
        completion order (consumers needing a canonical fold order should
        reorder by ``index`` — the aggregate layer does).  Each computed
        result is persisted to the cache *before* it is yielded, so an
        interrupted consumer leaves a resumable cache behind.
        """
        backend = self._resolve_backend()
        pending: list[tuple[int, CampaignCase]] = []
        for i, case in enumerate(self.cases):
            cached = None
            if self.cache is not None and not self.force:
                cached = self.cache.load(case)
            if cached is None:
                pending.append((i, case))
            else:
                yield i, case, cached

        if not pending:
            return
        backend.submit(pending, cache=self.cache, force=self.force)
        # Backends whose workers write artifacts straight into the cache
        # declare it, so the byte-identical re-store is skipped.
        store = self.cache is not None and not backend.persists_results
        completed = backend.as_completed()
        try:
            for i, case, result in completed:
                if store:
                    self.cache.store(case, result)
                yield i, case, result
        finally:
            # An abandoned consumer (GeneratorExit) must reach the backend
            # so it can cancel queued work; everything already persisted
            # stays persisted and a --resume re-run picks up from there.
            completed.close()
