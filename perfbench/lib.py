"""Pure helpers of the benchmark: metric names, percentiles, spans, goldens.

Nothing here imports the program under test, so the benchmark's own tests
run in a bare interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Candidate percentiles for the tail rule, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric/workload name, else raise."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad name {name!r}: start with a letter or digit, then at most "
            "63 more letters, digits, '_', '.' or '-'"
        )
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid metric unit, else raise."""
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(
            f"bad unit {unit!r}: 1 to 16 letters, digits, '_', '/', '%', '.' "
            "or '-'"
        )
    return unit


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def beyond(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has enough samples beyond it."""

    p: float
    value: float
    beyond: int
    n: int

    def label(self) -> str:
        return f"p{self.p:g}={self.value:.6g} ({self.beyond} of {self.n} beyond)"


def tail_percentile(
    values: Sequence[float],
    min_beyond: int = 10,
    candidates: Sequence[float] = TAIL_CANDIDATES,
) -> Tail | None:
    """The highest candidate percentile with ``min_beyond`` samples past it.

    ``None`` when even the median has fewer than ``min_beyond`` samples
    above it, i.e. the sample is too small to report any tail.
    """
    best = None
    for p in sorted(candidates):
        value = percentile(values, p)
        n_beyond = beyond(values, value)
        if n_beyond >= min_beyond:
            best = Tail(p, value, n_beyond, len(values))
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #


@dataclass
class Span:
    """One timed interval around a call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None


class Tracer:
    """In-memory span recorder; spans nest by dynamic extent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, case: str | None, start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        if case is None and parent is not None:
            case = parent.case
        span = Span(
            len(self.spans),
            name,
            start,
            start,
            parent.id if parent is not None else None,
            case,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, case: str | None = None) -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        span = self._open(name, case, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> Span:
        """Add a closed span, e.g. around a generator's advance."""
        span = self._open(name, None, start)
        span.end = end
        return span

    def write_ndjson(self, path: pathlib.Path) -> None:
        """One JSON object per span, in opening order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap one another or stick out of their parent; only
    their union clipped to the parent's interval is subtracted, so a self
    time is never negative and never counts a gap twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        ]
        out[span.id] = max(0.0, span.end - span.start - covered_length(clipped))
    return out


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def share_table(spans: Sequence[Span], title: str) -> str:
    """Each layer's self time as a share of the root spans' total time."""
    roots = [s for s in spans if s.parent is None]
    total = sum(s.end - s.start for s in roots)
    rows = sorted(layer_self_times(spans).items(), key=lambda kv: -kv[1])
    lines = [f"{title}: {len(roots)} root span(s), {total:.3f} s"]
    lines.append(f"  {'layer':<34} {'self s':>10} {'share':>7}")
    for name, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"  {name:<34} {seconds:>10.4f} {share:>7.1%}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# golden identity
# ---------------------------------------------------------------------- #


def sha256_file(path: pathlib.Path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def artifact_mismatches(
    expected: dict[str, str], artifacts: dict[str, pathlib.Path]
) -> dict[str, str]:
    """Artifacts whose bytes differ from the golden, with the reason.

    ``expected`` maps artifact file names to sha256 digests; names the
    golden does not cover are not judged.  A missing file is a mismatch.
    """
    bad = {}
    for name, path in artifacts.items():
        want = expected.get(name)
        if want is None:
            continue
        if not path.is_file():
            bad[name] = "missing"
        elif sha256_file(path) != want:
            bad[name] = "sha256 differs from the golden"
    return bad
