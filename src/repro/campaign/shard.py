"""The file-based shard/worker/merge protocol for multi-machine sweeps.

A paper-scale campaign is thousands of independent cases; this module
splits one into ``N`` self-contained **shard files** that can be executed
on different machines (or just different processes) against a shared or
per-machine artifact cache, and folds the per-shard partial aggregates
back into the exact suite aggregate a single-process run produces:

1. **shard** — :func:`partition_cases` assigns every case to a shard by
   its artifact hash (:meth:`CampaignCase.shard`): a pure function of the
   case fields, so every worker and the merge step agree on the partition
   without coordination.  Each :class:`ShardManifest` is a plain JSON file
   embedding its cases as ``CampaignCase.to_dict()`` payloads — the same
   wire format the process pool ships to workers.
2. **worker** — :func:`run_shard` executes one manifest against a cache
   directory (any :mod:`repro.campaign.backend` backend inside), reduces
   every finished case to its :class:`CaseContribution`, and emits a
   :class:`ShardPartial` file.
3. **merge** — :func:`merge_partials` validates that the partials belong
   to the same suite and cover **disjoint** case sets (duplicate case
   keys across shards are a loud error, not silent double-counting), then
   folds all contributions **in suite-index order** through one
   :class:`SuiteAggregator`.

Why partials carry contributions, not accumulator state
-------------------------------------------------------
A Chan-style merge of per-shard moment accumulators is deterministic but
is a *different floating-point summation order* than the single-process
fold — equal only to ~1e-12.  The repo's campaign guarantee is stronger:
bit-identity across every execution mode.  Contributions are O(1)-sized
(an 8×8 matrix plus a few scalars), they round-trip JSON exactly, and
re-folding them in suite order reproduces the single-process fold
*operation for operation* — so ``shard → worker × N → merge`` is
bit-identical to ``Campaign.run()`` on one machine, which CI asserts.

The queue protocol (:mod:`repro.campaign.queue`) is built from the same
pieces: ``campaign queue-init`` writes these manifests as task records,
and its pull workers run :func:`run_shard` and land these partials.
``campaign worker`` runs one manifest by hand — the transport that needs
no shared filesystem.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.campaign.aggregate import (
    CaseContribution,
    SuiteAggregate,
    SuiteAggregator,
    case_contribution,
    contribution_from_payload,
    contribution_to_payload,
)
from repro.campaign.cache import ArtifactCache
from repro.campaign.spec import CampaignCase
from repro.io.atomic import write_atomic
from repro.io.json_io import canonical_json, payload_digest

__all__ = [
    "MergeResult",
    "PartialOverlapError",
    "ShardAbort",
    "ShardManifest",
    "ShardPartial",
    "merge_partials",
    "partition_cases",
    "run_shard",
    "suite_key",
]


class ShardAbort(RuntimeError):
    """A shard worker must abandon its manifest mid-run.

    Raised inside :func:`run_shard` when the ``progress`` callback returns
    ``False`` — in the queue protocol, when the worker's lease heartbeat
    fails because a reaper already requeued the shard.  Everything the
    worker computed so far is persisted in the artifact cache, so the next
    attempt resumes warm; the abort only means *this* worker stops
    claiming the shard's completion.
    """


class PartialOverlapError(ValueError):
    """Two shard partials claim the same suite contribution.

    Raised by :func:`merge_partials` when partials with a matching
    ``suite_key`` cover overlapping contribution indices or duplicate case
    key (possible after a requeue race leaves partials from two different
    — e.g. stale vs. repartitioned — runs in one directory).  Folding both
    would double-count cases; the error names the colliding shards and
    indices so the operator can delete the stale partial and re-merge.
    """

_MANIFEST_FORMAT = "repro-shard-manifest-v1"
_PARTIAL_FORMAT = "repro-shard-partial-v1"

def suite_key(indexed_cases: Sequence[tuple[int, CampaignCase]]) -> str:
    """Content hash identifying a suite partition.

    Digest over the ``(suite_index, case_key)`` pairs, so shards of
    different suites — or of the same suite at a different scale/seed —
    can never be merged together silently.
    """
    return payload_digest([[index, case.key] for index, case in indexed_cases])


@dataclass(frozen=True)
class ShardManifest:
    """One shard's work list: a self-contained JSON-serializable unit.

    ``cases`` holds ``(suite_index, case)`` pairs — the suite index is the
    canonical fold position that makes the merged aggregate independent of
    how the suite was partitioned.
    """

    shard_index: int
    n_shards: int
    suite_key: str
    suite_size: int
    cases: tuple[tuple[int, CampaignCase], ...]

    @property
    def filename(self) -> str:
        """Canonical manifest file name."""
        return f"shard-{self.shard_index:03d}-of-{self.n_shards:03d}.json"

    def to_payload(self) -> dict:
        """JSON-compatible dict (inverse of :meth:`from_payload`)."""
        return {
            "format": _MANIFEST_FORMAT,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "suite_key": self.suite_key,
            "suite_size": self.suite_size,
            "cases": [
                {"index": index, "case": case.to_dict()}
                for index, case in self.cases
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardManifest":
        """Rebuild a manifest, validating the format marker."""
        if payload.get("format") != _MANIFEST_FORMAT:
            raise ValueError("not a shard manifest")
        return cls(
            shard_index=int(payload["shard_index"]),
            n_shards=int(payload["n_shards"]),
            suite_key=str(payload["suite_key"]),
            suite_size=int(payload["suite_size"]),
            cases=tuple(
                (int(entry["index"]), CampaignCase.from_dict(entry["case"]))
                for entry in payload["cases"]
            ),
        )

    def write(self, directory: pathlib.Path | str) -> pathlib.Path:
        """Write this manifest under its canonical name; returns the path.

        Atomic (temp file + ``os.replace``, like the artifact cache): a
        killed writer never leaves a truncated file under the final name.
        """
        directory = pathlib.Path(directory)
        return write_atomic(
            directory / self.filename, canonical_json(self.to_payload())
        )

    @classmethod
    def read(cls, path: pathlib.Path | str) -> "ShardManifest":
        """Load a manifest file."""
        return cls.from_payload(json.loads(pathlib.Path(path).read_text()))


def partition_cases(
    indexed_cases: Sequence[tuple[int, CampaignCase]], n_shards: int
) -> list[ShardManifest]:
    """Partition a suite into ``n_shards`` manifests by artifact hash.

    Deterministic and coordination-free: case *i* lands on shard
    ``case.shard(n_shards)`` regardless of suite order or which machine
    computes the partition.  Every shard manifest is produced even when
    empty, so ``shard k of n`` always exists and the merge step can tell a
    deliberately empty shard from a missing one.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    key = suite_key(indexed_cases)
    buckets: list[list[tuple[int, CampaignCase]]] = [[] for _ in range(n_shards)]
    for index, case in indexed_cases:
        buckets[case.shard(n_shards)].append((index, case))
    return [
        ShardManifest(
            shard_index=k,
            n_shards=n_shards,
            suite_key=key,
            suite_size=len(indexed_cases),
            cases=tuple(sorted(bucket)),
        )
        for k, bucket in enumerate(buckets)
    ]


@dataclass(frozen=True)
class ShardPartial:
    """One worker's output: per-case contributions plus execution counts.

    The serialized partial aggregate of a shard — everything the merge
    step needs, with the raw panels long dropped.  ``case_keys`` (aligned
    with ``contributions``) lets the merge detect overlapping shards by
    content, not just by index.
    """

    shard_index: int
    n_shards: int
    suite_key: str
    suite_size: int
    contributions: tuple[CaseContribution, ...]
    case_keys: tuple[str, ...]
    computed: int = 0
    cached: int = 0

    @property
    def filename(self) -> str:
        """Canonical partial file name."""
        return f"partial-{self.shard_index:03d}-of-{self.n_shards:03d}.json"

    def to_payload(self) -> dict:
        """JSON-compatible dict (inverse of :meth:`from_payload`)."""
        return {
            "format": _PARTIAL_FORMAT,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "suite_key": self.suite_key,
            "suite_size": self.suite_size,
            "contributions": [
                contribution_to_payload(c) for c in self.contributions
            ],
            "case_keys": list(self.case_keys),
            "computed": self.computed,
            "cached": self.cached,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardPartial":
        """Rebuild a partial, validating the format marker."""
        if payload.get("format") != _PARTIAL_FORMAT:
            raise ValueError("not a shard partial")
        return cls(
            shard_index=int(payload["shard_index"]),
            n_shards=int(payload["n_shards"]),
            suite_key=str(payload["suite_key"]),
            suite_size=int(payload["suite_size"]),
            contributions=tuple(
                contribution_from_payload(c) for c in payload["contributions"]
            ),
            case_keys=tuple(str(k) for k in payload["case_keys"]),
            computed=int(payload.get("computed", 0)),
            cached=int(payload.get("cached", 0)),
        )

    def write(self, directory: pathlib.Path | str) -> pathlib.Path:
        """Write this partial under its canonical name; returns the path.

        Atomic (temp file + ``os.replace``): an interrupted shard worker
        never leaves a truncated partial for ``merge`` to trip over.
        """
        directory = pathlib.Path(directory)
        return write_atomic(
            directory / self.filename, canonical_json(self.to_payload())
        )

    @classmethod
    def read(cls, path: pathlib.Path | str) -> "ShardPartial":
        """Load a partial file."""
        return cls.from_payload(json.loads(pathlib.Path(path).read_text()))


def run_shard(
    manifest: ShardManifest,
    cache: ArtifactCache | pathlib.Path | str,
    jobs: int = 1,
    force: bool = False,
    progress: Callable[[CampaignCase], bool] | None = None,
) -> ShardPartial:
    """Execute one shard against a cache directory (the worker step).

    Runs the shard's cases through a regular :class:`Campaign` (serial, or
    a local process pool with ``jobs > 1``) with artifacts persisted to
    ``cache`` — so an interrupted worker resumes exactly like an
    interrupted campaign — and reduces each finished case to its
    suite-indexed :class:`CaseContribution`.

    ``progress``, when given, is called after every finished case (the
    queue protocol's heartbeat seam).  Returning ``False`` aborts the
    shard with :class:`ShardAbort` — used by queue workers whose lease was
    requeued out from under them; the artifacts already computed stay in
    the cache for the next attempt.
    """
    from repro.campaign.runner import Campaign  # runner builds on backend

    if not isinstance(cache, ArtifactCache):
        cache = ArtifactCache(pathlib.Path(cache))
    indices = [index for index, _ in manifest.cases]
    cases = [case for _, case in manifest.cases]
    campaign = Campaign(
        cases,
        jobs=jobs,
        cache=cache,
        force=force,
    )
    contributions: dict[int, CaseContribution] = {}
    for local_index, case, result in campaign.iter_results():
        suite_index = indices[local_index]
        contributions[suite_index] = case_contribution(suite_index, case, result)
        if progress is not None and not progress(case):
            raise ShardAbort(
                f"shard {manifest.shard_index} abandoned after "
                f"{len(contributions)} case(s): progress callback reported "
                "a lost lease"
            )
    return ShardPartial(
        shard_index=manifest.shard_index,
        n_shards=manifest.n_shards,
        suite_key=manifest.suite_key,
        suite_size=manifest.suite_size,
        contributions=tuple(
            contributions[i] for i in sorted(contributions)
        ),
        case_keys=tuple(
            case.key for _, case in sorted(manifest.cases)
        ),
        computed=campaign.stats.computed,
        cached=campaign.stats.cached,
    )


@dataclass(frozen=True)
class MergeResult:
    """The merged suite aggregate plus shard bookkeeping."""

    aggregate: SuiteAggregate
    suite_size: int
    n_shards: int
    shards_present: tuple[int, ...]
    computed: int
    cached: int

    def render(self) -> str:
        """Fig. 6-style report of the merged aggregate."""
        return self.aggregate.render(
            f"Merged aggregate — {self.aggregate.n_cases} cases from "
            f"{len(self.shards_present)}/{self.n_shards} shards",
            self.suite_size,
        )


def merge_partials(partials: Sequence[ShardPartial]) -> MergeResult:
    """Fold per-shard partials into the single-process suite aggregate.

    Validates that every partial belongs to the same suite partition
    (``suite_key``/``n_shards``/``suite_size``), that no shard appears
    twice, and that the shards' contribution sets are disjoint — a
    duplicate case key *or* an overlapping contribution index across
    shards raises :class:`PartialOverlapError` naming the colliding
    shards rather than double-counting (the index check catches stale
    partials from a requeue race even when their case keys differ).
    Contributions are then folded in suite-index order through one
    :class:`SuiteAggregator`, which reproduces the single-process fold
    bit-for-bit (see the module docstring).

    A subset of shards merges fine (the aggregate is exact for the cases
    covered); :attr:`MergeResult.shards_present` reports the coverage.
    """
    if not partials:
        raise ValueError("no shard partials to merge")
    head = partials[0]
    seen_shards: set[int] = set()
    key_owner: dict[str, int] = {}
    index_owner: dict[int, int] = {}
    for p in partials:
        if (p.suite_key, p.n_shards, p.suite_size) != (
            head.suite_key,
            head.n_shards,
            head.suite_size,
        ):
            raise ValueError(
                f"shard partial {p.shard_index} belongs to a different suite "
                f"(suite_key {p.suite_key[:12]}… != {head.suite_key[:12]}…)"
            )
        if p.shard_index in seen_shards:
            raise ValueError(f"shard {p.shard_index} appears twice")
        seen_shards.add(p.shard_index)
        if len(p.case_keys) != len(p.contributions):
            raise ValueError(
                f"shard partial {p.shard_index} is malformed: "
                f"{len(p.case_keys)} case keys for "
                f"{len(p.contributions)} contributions"
            )
        for case_key, contribution in zip(p.case_keys, p.contributions):
            if case_key in key_owner:
                raise PartialOverlapError(
                    f"duplicate case key {case_key[:12]}… "
                    f"({contribution.name}) in shards "
                    f"{key_owner[case_key]} and {p.shard_index}"
                )
            key_owner[case_key] = p.shard_index
            if contribution.index in index_owner:
                raise PartialOverlapError(
                    f"contribution index {contribution.index} "
                    f"({contribution.name}) claimed by both shard "
                    f"{index_owner[contribution.index]} and shard "
                    f"{p.shard_index} — likely a stale partial from a "
                    "requeued or repartitioned run; delete the stale "
                    "partial file and re-merge"
                )
            index_owner[contribution.index] = p.shard_index

    # Single ordered fold over all contributions — identical operation
    # sequence to a single-process run (ordered=False folds immediately;
    # the sort supplies the canonical order, tolerating missing shards).
    aggregator = SuiteAggregator(ordered=False)
    contributions = sorted(
        (c for p in partials for c in p.contributions), key=lambda c: c.index
    )
    for contribution in contributions:
        aggregator.add(contribution)
    return MergeResult(
        aggregate=aggregator.finalize(),
        suite_size=head.suite_size,
        n_shards=head.n_shards,
        shards_present=tuple(sorted(seen_shards)),
        computed=sum(p.computed for p in partials),
        cached=sum(p.cached for p in partials),
    )
