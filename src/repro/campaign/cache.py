"""Content-addressed artifact cache for finished campaign cases.

Each finished :class:`~repro.core.study.CaseResult` is persisted as one
JSON file named after the case name plus a prefix of the case's content
hash (:attr:`CampaignCase.key`), wrapped in an envelope that embeds

* the full case dict (so an artifact is self-describing), and
* a SHA-256 digest of the canonical result body.

Every reader checks the bytes it reads the same way
(:func:`_parse_envelope`): *any* defect — missing file, truncated or
non-JSON content, bytes that are not UTF-8, wrong format/kind, an
artifact of another case, digest mismatch after a partial write or bit
rot — is a cache miss (counted in :attr:`CacheStats.corrupt`), so a
campaign recomputes the case instead of crashing.  Writes go through a
temp file + :func:`os.replace` so a killed run never leaves a
half-written artifact under the final name (and ``--resume`` after an
interruption only ever sees complete artifacts).

Point lookups
-------------
The artifact path is a pure function of the case, so the path is the
index: :meth:`ArtifactCache.has` is one ``stat``,
:meth:`ArtifactCache.lookup` one read, and neither scans the directory
(only :meth:`ArtifactCache.verify` does, counted in
:attr:`CacheStats.scans`; the query service asserts its warm paths keep
that at zero).  Bytes equal to bytes that already passed the full check
for the case return the result decoded from them (see :class:`LRUMemo`);
any other bytes are checked in full, so a re-store, bit rot or
truncation can never produce a wrong answer.
"""

from __future__ import annotations

import json
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
    case_result_from_payload,
    case_result_to_payload,
    payload_digest,
)

__all__ = ["ArtifactCache", "CacheAudit", "CacheStats", "LRUMemo"]

_ENVELOPE_FORMAT = "repro-campaign-v1"

#: Byte bound of an :class:`ArtifactCache`'s :class:`LRUMemo`.  A
#: paper-scale artifact (10,003 panel rows) is 1.76 MB of text that
#: decodes to ~1.24 MB, so the 24 artifacts of a paper-scale fig-6 suite
#: come to ~62 MB: 64 MiB keeps a whole repeated paper-scale sweep in
#: memory, while the query service's quick warm sets need well under 1 MB.
MEMO_BYTES = 64 * 2**20

# The result digest is the repo-wide canonical payload digest.
_result_digest = payload_digest


def _parse_envelope(
    data: bytes, key: str | None = None
) -> tuple[CampaignCase, CaseResult]:
    """Decode and fully check one artifact's bytes.

    The single definition of "valid artifact", shared by every reader:
    UTF-8 JSON, envelope format, embedded case dict consistent with the
    recorded content hash, result digest intact and — given ``key`` —
    the artifact of that case.  Returns ``(case, result)``; raises
    :class:`ValueError` (:class:`UnicodeDecodeError` included),
    :class:`KeyError` or :class:`TypeError` on any defect (callers count
    those as corrupt).
    """
    envelope = json.loads(data.decode())
    if not isinstance(envelope, dict) or envelope.get("format") != _ENVELOPE_FORMAT:
        raise ValueError("not a campaign artifact envelope")
    case = CampaignCase.from_dict(envelope["case"])
    if envelope.get("case_key") != case.key:
        raise ValueError("embedded case does not match its recorded key")
    if key is not None and case.key != key:
        raise ValueError("artifact belongs to a different case")
    if _result_digest(envelope["result"]) != envelope["sha256"]:
        raise ValueError("result digest mismatch")
    return case, case_result_from_payload(envelope["result"])


class LRUMemo:
    """A byte-bounded least-recently-used map, safe across threads.

    :meth:`ArtifactCache.lookup` keeps, per case key, the artifact bytes
    it last validated in full and the read-only result decoded from
    them; the query service keeps its rendered hit bodies in the same
    memo, so one bound covers all of them.  Each :meth:`put` states the
    bytes its value holds; the least recently used entries go until
    :attr:`nbytes` is back within :attr:`max_bytes` (a value larger than
    the bound is not kept).  One lock guards every operation, because the
    service runs each request on its own thread.
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
    """Counters of one cache's lifetime.

    ``hits``/``misses`` count reads (``corrupt`` the misses whose bytes
    failed the check) and ``stores`` writes.  ``scans`` counts full
    directory scans, which only :meth:`ArtifactCache.verify` makes — the
    robustness service asserts its warm paths keep this at zero.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    scans: int = 0


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
      (harmless, never loaded, safe to delete).
    """

    valid: list[pathlib.Path] = field(default_factory=list)
    corrupt: list[tuple[pathlib.Path, str]] = field(default_factory=list)
    orphans: list[tuple[pathlib.Path, str]] = field(default_factory=list)
    stale_temp: list[pathlib.Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing corrupt was found."""
        return not self.corrupt

    def summary(self) -> str:
        """One-line human summary for logs and the CLI."""
        return (
            f"{len(self.valid)} valid, {len(self.corrupt)} corrupt, "
            f"{len(self.orphans)} orphan, {len(self.stale_temp)} stale temp "
            "files"
        )


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

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    def path_for(self, case: CampaignCase) -> pathlib.Path:
        """Artifact path of ``case`` (exists only once stored)."""
        return self.root / case.artifact_name

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def _read(self, case: CampaignCase) -> bytes | None:
        """The artifact bytes of ``case``; ``None`` (a miss) if unreadable."""
        try:
            return self.path_for(case).read_bytes()
        except OSError:
            self.stats.misses += 1
            return None

    def _check(self, case: CampaignCase, data: bytes) -> CaseResult | None:
        """The result in ``data`` if it is ``case``'s valid artifact.

        Any defect counts in :attr:`CacheStats.corrupt` and is a miss.
        """
        try:
            return _parse_envelope(data, case.key)[1]
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None

    def load(self, case: CampaignCase) -> CaseResult | None:
        """Return the cached result of ``case``, or ``None`` on any defect.

        Corrupt or truncated artifacts (undecodable bytes, unparseable
        JSON, wrong envelope, digest mismatch) count in
        :attr:`CacheStats.corrupt` and are treated as misses — the
        campaign recomputes and overwrites them.  Nothing is remembered,
        so a campaign fold holds one result at a time.
        """
        data = self._read(case)
        result = None if data is None else self._check(case, data)
        if result is not None:
            self.stats.hits += 1
        return result

    def lookup(self, case: CampaignCase) -> CaseResult | None:
        """O(1) lookup that remembers what it checked (the service hit path).

        Reads the artifact.  Bytes equal to the bytes this cache last
        validated for the case return the result decoded from them (kept
        in :attr:`memo`, its arrays read-only); any other bytes get the
        full check of :meth:`load` and replace what is remembered.  The
        full check is a pure function of (bytes, case key), so byte-equal
        content gets the same verdict.  A failed read or check forgets
        the key.
        """
        key = case.key
        data = self._read(case)
        if data is None:
            self.memo.forget(key)
            return None
        held = self.memo.get(key)
        if held is None or held[0] != data:
            result = self._check(case, data)
            if result is None:
                self.memo.forget(key)
                return None
            # Every later hit on these bytes shares this result.
            result.panel.values.flags.writeable = False
            result.pearson.flags.writeable = False
            held = (data, result)
            labels = sum(map(sys.getsizeof, result.panel.labels))
            arrays = result.panel.values.nbytes + result.pearson.nbytes
            self.memo.put(key, held, len(data) + arrays + labels)
        self.stats.hits += 1
        return held[1]

    def has(self, case: CampaignCase) -> bool:
        """O(1) presence probe: is an artifact for ``case`` on disk?

        One ``stat`` of the artifact path — never reads content, never
        scans the directory.  This is the sweep engine's warm/cold
        splitter, so it must stay cheap at thousands of cases; content
        validity is still enforced by :meth:`lookup` when the artifact is
        actually read.
        """
        return self.path_for(case).exists()

    def iter_results(
        self, cases: Sequence[CampaignCase]
    ) -> Iterator[tuple[int, CampaignCase, CaseResult]]:
        """Yield ``(index, case, result)`` one artifact at a time.

        Visits the artifacts of ``cases`` in case order and skips
        missing/corrupt ones — the streaming source for summarizing a
        (possibly partial) campaign cache without recomputing anything.
        Reads go through :meth:`load`, so only one :class:`CaseResult` is
        materialized at a time: aggregating through this iterator is O(1)
        memory in the number of cases.
        """
        for i, case in enumerate(cases):
            result = self.load(case)
            if result is not None:
                yield i, case, result

    # ------------------------------------------------------------------ #
    # auditing
    # ------------------------------------------------------------------ #

    def verify(
        self, expected: Sequence[CampaignCase] | None = None
    ) -> CacheAudit:
        """Scan the cache directory and classify every file.

        Applies the same check as every reader (:func:`_parse_envelope`),
        so anything a campaign would silently recompute is reported here
        as corrupt.  With ``expected`` given, valid artifacts whose case
        key is not in the suite are reported as orphans — e.g. leftovers
        of an older scale/seed sharing the directory.  Valid artifacts
        stored under a name :meth:`load` would never look up are orphans
        too.  Files that are not ``*.json`` (such as the index file older
        versions kept) are ignored, and files vanishing mid-scan (a
        concurrent writer's ``os.replace``, a cleanup) are skipped, not
        misreported as corrupt.
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
        for path in paths:
            if ".tmp." in path.name:
                audit.stale_temp.append(path)
                continue
            if path.suffix != ".json":
                continue
            try:
                case, _ = _parse_envelope(path.read_bytes())
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
            else:
                audit.valid.append(path)
        return audit

    # ------------------------------------------------------------------ #
    # storing
    # ------------------------------------------------------------------ #

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
        envelope = {
            "format": _ENVELOPE_FORMAT,
            "case_key": case.key,
            "case": case.to_dict(),
            "sha256": _result_digest(result_payload),
            "result": result_payload,
        }
        # Plain ``json.dumps`` is the frozen v1 envelope byte format —
        # converting it to ``canonical_json`` would change every artifact
        # hash on disk, so the linter finding is baselined, not fixed.
        path = write_atomic(self.path_for(case), json.dumps(envelope))
        self.stats.stores += 1
        return path
