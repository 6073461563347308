"""Content-addressed artifact cache for finished campaign cases.

Each finished :class:`~repro.core.study.CaseResult` is persisted as one
JSON file named after the case name plus a prefix of the case's content
hash (:attr:`CampaignCase.key`), wrapped in an envelope that embeds

* the full case dict (so an artifact is self-describing), and
* a SHA-256 digest of the canonical result body.

:meth:`ArtifactCache.load` treats *any* defect — missing file, truncated
or non-JSON content, wrong format/kind, digest mismatch after a partial
write or bit rot — as a cache miss and returns ``None``, so a campaign
recomputes the case instead of crashing.  Writes go through a temp file +
:func:`os.replace` so a killed run never leaves a half-written artifact
under the final name (and ``--resume`` after an interruption only ever
sees complete artifacts).

The cache index
---------------
``cache.index`` (one JSON file in the cache root, maintained with the
same atomic tmp + ``os.replace`` discipline) maps every case key to its
artifact file name plus result digest, stamped with a monotonically
increasing **generation** so readers can detect staleness cheaply (one
``stat`` call).  The index is strictly *advisory*: point lookups resolve
in O(1) either way (the artifact path is a pure function of the case),
so a missing entry, a lost concurrent update, or a corrupt index file
degrades to a direct path probe — :meth:`ArtifactCache.lookup` repairs
the entry, and :meth:`rebuild_index` reconstructs the whole file from a
directory scan.  What the index buys is *scan-free* existence snapshots
and enumeration for long-lived readers (the robustness-as-a-service
query layer), asserted by the :attr:`CacheStats.scans` counter: a warm
service hit path performs zero directory scans.

Invariants:

* the index never makes a lookup *wrong* — every lookup reads the
  artifact itself, and bytes not equal to bytes that already passed the
  full check (format, case key, result digest) for that key are checked
  in full (see :class:`LRUMemo`);
* a torn or concurrent index write is impossible to observe: writers
  replace atomically, and a reader that opened the old inode reads the
  complete old snapshot;
* generations only grow (rebuilds fold in the previous generation), so
  a reader can order snapshots without trusting timestamps.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Sequence

from repro.campaign.spec import CampaignCase
from repro.core.study import CaseResult
from repro.io.atomic import write_atomic
from repro.io.json_io import (
    canonical_json,
    case_result_from_payload,
    case_result_to_payload,
    payload_digest,
)

__all__ = ["ArtifactCache", "CacheAudit", "CacheIndex", "CacheStats", "LRUMemo"]

_ENVELOPE_FORMAT = "repro-campaign-v1"
_INDEX_FORMAT = "repro-cache-index-v1"

#: File name of the persistent cache index (``.index`` suffix keeps it
#: invisible to the ``*.json`` artifact scans and the ``verify`` audit).
INDEX_FILENAME = "cache.index"

#: Byte bound of an :class:`ArtifactCache`'s :class:`LRUMemo`.  A
#: paper-scale artifact (10,003 panel rows) is 1.76 MB of text that
#: decodes to ~1.24 MB, so the 24 artifacts of a paper-scale fig-6 suite
#: come to ~62 MB: 64 MiB keeps a whole repeated paper-scale sweep in
#: memory, while the query service's quick warm sets need well under 1 MB.
MEMO_BYTES = 64 * 2**20

# The result digest is the repo-wide canonical payload digest.
_result_digest = payload_digest


def _parse_envelope(text: str) -> tuple[CampaignCase, CaseResult, str]:
    """Decode and fully validate one artifact envelope.

    The single definition of "valid artifact", shared by :meth:`load` and
    :meth:`iter_results`: envelope format, embedded case dict consistent
    with the recorded content hash, and result digest intact.  Returns
    ``(case, result, result digest)``; raises
    :class:`ValueError`/:class:`KeyError`/:class:`TypeError` on any defect
    (callers count those as corrupt).
    """
    envelope = json.loads(text)
    if not isinstance(envelope, dict) or envelope.get("format") != _ENVELOPE_FORMAT:
        raise ValueError("not a campaign artifact envelope")
    case = CampaignCase.from_dict(envelope["case"])
    if envelope.get("case_key") != case.key:
        raise ValueError("embedded case does not match its recorded key")
    if _result_digest(envelope["result"]) != envelope["sha256"]:
        raise ValueError("result digest mismatch")
    return case, case_result_from_payload(envelope["result"]), envelope["sha256"]


class LRUMemo:
    """A byte-bounded least-recently-used map, safe across threads.

    :meth:`ArtifactCache.lookup` keeps, per case key, the artifact bytes
    it last validated in full, the read-only result decoded from them
    and their result digest; the query service keeps its rendered hit
    bodies in the same memo, so one bound covers all of them.  Each
    :meth:`put` states the bytes its value holds; the least recently used
    entries go until :attr:`nbytes` is back within :attr:`max_bytes` (a
    value larger than the bound is not kept).  One lock guards every
    operation, because the service runs each request on its own thread.
    """

    def __init__(self, max_bytes: int = MEMO_BYTES) -> None:
        self.max_bytes = max_bytes
        #: Bytes held by the entries now remembered.
        self.nbytes = 0
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The value remembered under ``key`` (now most recent), or ``None``."""
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                return None
            self._entries.move_to_end(key)
            return held[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Remember ``value`` under ``key``, evicting the least recent."""
        with self._lock:
            self._drop(key)
            if nbytes > self.max_bytes:
                return
            self._entries[key] = (value, nbytes)
            self.nbytes += nbytes
            while self.nbytes > self.max_bytes:
                self._drop(next(iter(self._entries)))

    def forget(self, key: Hashable) -> None:
        """Drop whatever is remembered under ``key``."""
        with self._lock:
            self._drop(key)

    def _drop(self, key: Hashable) -> None:
        held = self._entries.pop(key, None)
        if held is not None:
            self.nbytes -= held[1]


@dataclass
class CacheStats:
    """Counters of one cache's lifetime (hits / misses / corrupt files).

    ``scans`` counts full directory scans (``iter_results`` over the
    directory, ``verify``, ``rebuild_index``) — the robustness service
    asserts its warm hit path keeps this at zero.  ``index_hits`` /
    ``index_fallbacks`` split :meth:`ArtifactCache.lookup` calls into
    index-resolved versus direct-probe lookups, and ``index_corrupt``
    counts unreadable index files (each one degrades to a probe, never
    an error).
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    scans: int = 0
    index_hits: int = 0
    index_fallbacks: int = 0
    index_corrupt: int = 0
    index_rebuilds: int = 0


@dataclass(frozen=True)
class CacheIndex:
    """One parsed snapshot of the persistent ``cache.index`` file.

    ``entries`` maps case key → ``{"file": artifact name, "sha256":
    result digest}``; ``generation`` is the snapshot's monotonic stamp.
    Snapshots are immutable — writers build a new one and replace the
    file atomically.
    """

    generation: int
    entries: dict[str, dict]

    def to_payload(self) -> dict:
        """JSON-compatible dict (inverse of :meth:`from_payload`)."""
        return {
            "format": _INDEX_FORMAT,
            "generation": self.generation,
            "entries": self.entries,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CacheIndex":
        """Rebuild a snapshot, validating the format marker."""
        if not isinstance(payload, dict) or payload.get("format") != _INDEX_FORMAT:
            raise ValueError("not a cache index")
        entries = payload["entries"]
        if not isinstance(entries, dict) or not all(
            isinstance(v, dict) and "file" in v for v in entries.values()
        ):
            raise ValueError("malformed cache index entries")
        return cls(generation=int(payload["generation"]), entries=dict(entries))


@dataclass
class CacheAudit:
    """What :meth:`ArtifactCache.verify` found in a cache directory.

    * ``valid`` — artifacts that parse, match their recorded case key and
      pass the result digest check;
    * ``corrupt`` — ``(path, reason)`` pairs for anything that fails the
      envelope validation (truncated writes, bit rot, foreign JSON);
    * ``orphans`` — ``(path, reason)`` pairs for *valid* artifacts that no
      case references: misnamed files a lookup would never find, or (when
      an expected suite is given) artifacts of some other suite/scale/seed;
    * ``stale_temp`` — leftover ``.tmp.<pid>`` files from killed writers
      (harmless, never loaded, safe to delete);
    * ``index_stale`` — ``(case_key, reason)`` pairs for index entries
      whose artifact is missing, misnamed, or digest-divergent (lookups
      fall back to a probe, so these degrade performance, not
      correctness);
    * ``unindexed`` — valid artifacts absent from the index (a cache
      populated before the index existed, or entries lost to a
      concurrent-writer race; ``rebuild_index`` repairs them).

    ``index_generation`` is the audited snapshot's stamp (``None`` when
    no readable index file exists — not itself a defect).
    """

    valid: list[pathlib.Path] = field(default_factory=list)
    corrupt: list[tuple[pathlib.Path, str]] = field(default_factory=list)
    orphans: list[tuple[pathlib.Path, str]] = field(default_factory=list)
    stale_temp: list[pathlib.Path] = field(default_factory=list)
    index_stale: list[tuple[str, str]] = field(default_factory=list)
    unindexed: list[pathlib.Path] = field(default_factory=list)
    index_generation: int | None = None

    @property
    def ok(self) -> bool:
        """True when nothing corrupt was found."""
        return not self.corrupt

    @property
    def index_consistent(self) -> bool:
        """True when a readable index exactly covers the valid artifacts."""
        return (
            self.index_generation is not None
            and not self.index_stale
            and not self.unindexed
        )

    def summary(self) -> str:
        """One-line human summary for logs and the CLI."""
        line = (
            f"{len(self.valid)} valid, {len(self.corrupt)} corrupt, "
            f"{len(self.orphans)} orphan, {len(self.stale_temp)} stale temp "
            "files"
        )
        if self.index_generation is None:
            line += "; no index"
        else:
            line += (
                f"; index gen {self.index_generation}: "
                f"{len(self.index_stale)} stale, "
                f"{len(self.unindexed)} unindexed"
            )
        return line


@dataclass
class ArtifactCache:
    """Directory of per-case result artifacts, keyed by content hash."""

    root: pathlib.Path
    stats: CacheStats = field(default_factory=CacheStats)
    #: What :meth:`lookup` remembers of the artifacts it validated (the
    #: query service keeps its rendered hit bodies here too, under the
    #: same byte bound).
    memo: LRUMemo = field(
        default_factory=LRUMemo, init=False, repr=False, compare=False
    )
    _index_snapshot: "CacheIndex | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _index_sig: "tuple | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    def path_for(self, case: CampaignCase) -> pathlib.Path:
        """Artifact path of ``case`` (exists only once stored)."""
        return self.root / case.artifact_name

    @property
    def index_path(self) -> pathlib.Path:
        """Path of the persistent cache index file."""
        return self.root / INDEX_FILENAME

    # ------------------------------------------------------------------ #
    # the persistent index
    # ------------------------------------------------------------------ #

    def read_index(self) -> CacheIndex | None:
        """Parse the index file; ``None`` when missing or corrupt.

        A corrupt index (truncated by bit rot — atomic writes make torn
        files impossible, but disks lie) counts in
        :attr:`CacheStats.index_corrupt` and degrades to ``None``: every
        caller falls back to direct path probes, never an error.
        """
        try:
            text = self.index_path.read_text()
        except OSError:
            return None
        try:
            return CacheIndex.from_payload(json.loads(text))
        except (ValueError, KeyError, TypeError):
            self.stats.index_corrupt += 1
            return None

    def write_index(self, index: CacheIndex) -> pathlib.Path:
        """Persist an index snapshot atomically (tmp + ``os.replace``)."""
        return write_atomic(self.index_path, canonical_json(index.to_payload()))

    def current_index(self) -> CacheIndex | None:
        """The latest index snapshot, re-read only when the file changed.

        One ``stat`` per call on the warm path; the parsed snapshot is
        cached against the file's ``(mtime_ns, size, ino)`` signature, so
        a long-lived reader (the query service) pays the JSON parse only
        when a writer actually replaced the index.  Concurrent callers
        may duplicate a parse — never corrupt each other (snapshots are
        immutable).
        """
        try:
            st = os.stat(self.index_path)
            sig = (st.st_mtime_ns, st.st_size, st.st_ino)
        except OSError:
            self._index_snapshot = None
            self._index_sig = None
            return None
        if sig == self._index_sig:
            return self._index_snapshot
        snapshot = self.read_index()
        self._index_snapshot = snapshot
        self._index_sig = sig
        return snapshot

    def rebuild_index(self) -> CacheIndex:
        """Reconstruct the index from a full directory scan and persist it.

        The recovery path for a corrupt, lost, or racy-writer-degraded
        index: every valid, canonically named artifact becomes an entry;
        corrupt files and orphans are left out (exactly what
        :meth:`verify` would report).  The new generation folds in the
        previous one (``max + 1``), so generations stay monotonic even
        across a rebuild racing a store.
        """
        self.stats.scans += 1
        self.stats.index_rebuilds += 1
        previous = self.read_index()
        entries: dict[str, dict] = {}
        try:
            paths = sorted(self.root.iterdir())
        except OSError:
            paths = []
        for path in paths:
            if path.suffix != ".json" or ".tmp." in path.name:
                continue
            try:
                case, _, digest = _parse_envelope(path.read_text())
            except FileNotFoundError:
                continue  # vanished mid-scan: a concurrent actor owns it
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if path.name == case.artifact_name:
                entries[case.key] = {"file": case.artifact_name, "sha256": digest}
        index = CacheIndex(
            generation=(previous.generation if previous is not None else 0) + 1,
            entries=entries,
        )
        self.write_index(index)
        return index

    def _index_record(self, case: CampaignCase, digest: str) -> None:
        """Fold one stored artifact into the index (advisory, best effort).

        Read-modify-write with an atomic replace: two concurrent writers
        can lose one another's entry (last write wins), which only costs
        a later lookup its index shortcut — the direct probe in
        :meth:`lookup` answers correctly and repairs the entry.  An
        index I/O failure must never fail the store that triggered it.
        """
        try:
            previous = self.read_index()
            entries = dict(previous.entries) if previous is not None else {}
            entries[case.key] = {"file": case.artifact_name, "sha256": digest}
            self.write_index(
                CacheIndex(
                    generation=(
                        previous.generation if previous is not None else 0
                    )
                    + 1,
                    entries=entries,
                )
            )
        except OSError:  # pragma: no cover - disk-full style degradation
            pass

    # ------------------------------------------------------------------ #
    # load / store
    # ------------------------------------------------------------------ #

    def load(self, case: CampaignCase) -> CaseResult | None:
        """Return the cached result of ``case``, or ``None`` on any defect.

        Corrupt or truncated artifacts (unparseable JSON, wrong envelope,
        digest mismatch) count in :attr:`CacheStats.corrupt` and are
        treated as misses — the campaign recomputes and overwrites them.
        """
        path = self.path_for(case)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            stored_case, result, _ = _parse_envelope(text)
            if stored_case.key != case.key:
                raise ValueError("artifact belongs to a different case")
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def lookup(self, case: CampaignCase) -> CaseResult | None:
        """Index-first O(1) lookup (the service hit path).

        Consults the current index snapshot, then reads the artifact.
        Bytes equal to the bytes this cache last validated for the case
        return the result decoded from them (kept in :attr:`memo`, its
        arrays read-only); any other bytes get the full check of
        :meth:`load` and replace what is remembered.  The full check is a
        pure function of (bytes, case key), so byte-equal content gets
        the same verdict, and a stale or lying index, a re-store, bit rot
        or truncation can never produce a wrong answer.  A failed read or
        check forgets the key.  A key the index does not hold falls back
        to the direct path probe (still O(1), no directory scan) and,
        when the artifact exists after all, repairs the index entry so
        the next lookup is index-resolved.  Counters:
        :attr:`CacheStats.index_hits` vs :attr:`CacheStats.index_fallbacks`.
        """
        key = case.key
        index = self.current_index()
        try:
            data = self.path_for(case).read_bytes()
        except OSError:
            self.memo.forget(key)
            self.stats.misses += 1
            return None
        held = self.memo.get(key)
        if held is None or held[0] != data:
            try:  # undecodable bytes raise UnicodeDecodeError, a ValueError
                stored_case, result, digest = _parse_envelope(data.decode())
                if stored_case.key != key:
                    raise ValueError("artifact belongs to a different case")
            except (ValueError, KeyError, TypeError):
                self.memo.forget(key)
                self.stats.corrupt += 1
                self.stats.misses += 1
                return None
            # Every later hit on these bytes shares this result.
            result.panel.values.flags.writeable = False
            result.pearson.flags.writeable = False
            held = (data, result, digest)
            labels = sum(map(sys.getsizeof, result.panel.labels))
            arrays = result.panel.values.nbytes + result.pearson.nbytes
            self.memo.put(key, held, len(data) + arrays + labels)
        self.stats.hits += 1
        if index is not None and key in index.entries:
            self.stats.index_hits += 1
        else:
            self.stats.index_fallbacks += 1
            self._index_record(case, held[2])
        return held[1]

    def has(self, case: CampaignCase) -> bool:
        """O(1) presence probe: is an artifact for ``case`` on disk?

        Consults the current index snapshot, else stats the artifact
        path directly — never reads content, never scans the directory.
        This is the sweep engine's warm/cold splitter, so it must stay
        cheap at thousands of cases; content validity is still enforced
        by :meth:`lookup` when the artifact is actually read.
        """
        index = self.current_index()
        if index is not None and case.key in index.entries:
            return True
        return self.path_for(case).exists()

    # ------------------------------------------------------------------ #
    # streaming iteration
    # ------------------------------------------------------------------ #

    def iter_results(
        self, cases: "list[CampaignCase] | tuple[CampaignCase, ...] | None" = None
    ) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Yield ``(index, case, result)`` one artifact at a time.

        With ``cases`` given, the artifacts are visited in *case order* and
        missing/corrupt ones are silently skipped — the streaming source
        for summarizing a (possibly partial) campaign cache without
        recomputing anything.  Without ``cases``, every valid artifact in
        the directory is yielded in sorted-filename order (deterministic),
        with ``index`` numbering the yielded artifacts; invalid files count
        as corrupt and are skipped.

        Only one :class:`CaseResult` is materialized at a time, so
        aggregating through this iterator is O(1) memory in the number of
        artifacts.
        """
        if cases is not None:
            for i, case in enumerate(cases):
                result = self.load(case)
                if result is not None:
                    yield i, case, result
            return
        self.stats.scans += 1
        try:
            paths = sorted(p for p in self.root.iterdir() if p.suffix == ".json")
        except OSError:
            return
        index = 0
        for path in paths:
            try:
                case, result, _ = _parse_envelope(path.read_text())
            except FileNotFoundError:
                continue  # vanished between listdir and open: not a defect
            except (OSError, ValueError, KeyError, TypeError):
                self.stats.corrupt += 1
                continue
            self.stats.hits += 1
            yield index, case, result
            index += 1

    # ------------------------------------------------------------------ #
    # auditing
    # ------------------------------------------------------------------ #

    def verify(
        self, expected: Sequence[CampaignCase] | None = None
    ) -> CacheAudit:
        """Scan the cache directory and classify every file.

        Reuses the same envelope validation as :meth:`load` (format, case
        key, result digest), so anything a campaign would silently
        recompute is reported here as corrupt.  With ``expected`` given,
        valid artifacts whose case key is not in the suite are reported as
        orphans — e.g. leftovers of an older scale/seed sharing the
        directory.  Valid artifacts stored under a name
        :meth:`load` would never look up are orphans too.

        The audit also cross-checks the persistent index against the
        directory (both directions): index entries whose artifact is
        missing, renamed, or digest-divergent are ``index_stale``; valid
        artifacts the index does not cover are ``unindexed``.  Files
        vanishing mid-scan (a concurrent writer's ``os.replace``, a
        cleanup) are skipped, not misreported as corrupt.
        """
        audit = CacheAudit()
        self.stats.scans += 1
        try:
            paths = sorted(self.root.iterdir())
        except OSError:
            return audit
        expected_keys = (
            {case.key for case in expected} if expected is not None else None
        )
        valid_entries: dict[str, tuple[str, str]] = {}  # key -> (name, digest)
        for path in paths:
            if ".tmp." in path.name:
                audit.stale_temp.append(path)
                continue
            if path.suffix != ".json":
                continue
            try:
                case, _, digest = _parse_envelope(path.read_text())
            except FileNotFoundError:
                continue  # vanished between listdir and open: not a defect
            except (OSError, ValueError, KeyError, TypeError) as exc:
                audit.corrupt.append((path, str(exc)))
                continue
            if path.name != case.artifact_name:
                audit.orphans.append(
                    (path, f"misnamed: lookups expect {case.artifact_name}")
                )
            elif expected_keys is not None and case.key not in expected_keys:
                audit.orphans.append((path, "not part of the expected suite"))
                valid_entries[case.key] = (path.name, digest)
            else:
                audit.valid.append(path)
                valid_entries[case.key] = (path.name, digest)
        index = self.read_index()
        if index is not None:
            audit.index_generation = index.generation
            for key, entry in sorted(index.entries.items()):
                known = valid_entries.get(key)
                if known is None:
                    audit.index_stale.append(
                        (key, f"entry points to missing artifact {entry.get('file')}")
                    )
                elif known[0] != entry.get("file"):
                    audit.index_stale.append(
                        (key, f"entry names {entry.get('file')}, found {known[0]}")
                    )
                elif known[1] != entry.get("sha256"):
                    audit.index_stale.append((key, "result digest diverged"))
            key_by_name = {
                name: key for key, (name, _) in valid_entries.items()
            }
            audit.unindexed = [
                p
                for p in audit.valid
                if key_by_name.get(p.name) not in index.entries
            ]
        return audit

    def store(self, case: CampaignCase, result: CaseResult) -> pathlib.Path:
        """Persist ``result`` atomically; returns the artifact path.

        Serialization is canonical (shortest-repr floats over a fixed
        payload layout), so storing a result that crossed a worker wire
        as JSON writes the same bytes as storing it in the computing
        process — which is what makes artifacts byte-identical across
        execution backends.
        """
        return self._store(case, case_result_to_payload(result))

    def _store(self, case: CampaignCase, result_payload: dict) -> pathlib.Path:
        digest = _result_digest(result_payload)
        envelope = {
            "format": _ENVELOPE_FORMAT,
            "case_key": case.key,
            "case": case.to_dict(),
            "sha256": digest,
            "result": result_payload,
        }
        # Plain ``json.dumps`` is the frozen v1 envelope byte format —
        # converting it to ``canonical_json`` would change every artifact
        # hash on disk, so the linter finding is baselined, not fixed.
        path = write_atomic(self.path_for(case), json.dumps(envelope))
        self.stats.stores += 1
        self._index_record(case, digest)
        return path
