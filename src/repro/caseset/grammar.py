"""Lexical layer of the case-set algebra: text ↔ terms, values ↔ ranges.

This module knows nothing about campaign cases — it turns an expression
string like ``graph[chol84,ge90] x ul[1.1-1.6/0.1] ! graph[ge90] x
ul[1.1]`` into a sequence of ``(set-op, {axis: [value, ...]})`` raw
terms, and folds plain value lists back into the compact range syntax
(``0-9``, ``0-8/2``, ``0.1-0.6/0.1``) the way ClusterShell's
``RangeSet`` folds node ranges.  The semantic layer
(:mod:`repro.caseset.sets`) interprets the axis names and values.

Grammar (whitespace is insignificant outside brackets)::

    expr     := term (op term)*
    op       := ','  (union)  |  '&'  (intersection)  |  '!'  (difference)
    term     := selector ('x' selector)*
    selector := axis '[' value (',' value)* ']'
    value    := token | int | int '-' int ['/' int]
              | float | float '-' float '/' float

Set operators associate left to right, exactly like ClusterShell's
``NodeSet`` string syntax.  Every malformed input raises
:class:`CaseSetError` with a message naming the offending fragment — the
service maps these to structured 400s, so precision here is user-facing.

Float ranges expand on an exact decimal lattice: ``0.1-0.6/0.1`` scales
start/stop/step by the largest written decimal count (here 10) and
divides back, so the values are the correctly rounded floats of
``0.1 … 0.6`` with no accumulation drift, and re-parsing a folded range
reproduces the identical floats.  Folding only emits a range after
verifying that round trip; anything irregular falls back to an explicit
comma list, so ``fold`` never changes a value set.
"""

from __future__ import annotations

import re

__all__ = [
    "CaseSetError",
    "fold_floats",
    "fold_ints",
    "format_float",
    "parse_float_values",
    "parse_int_values",
    "parse_term",
    "split_expression",
]


class CaseSetError(ValueError):
    """A case-set expression is malformed or names an impossible case."""


#: Top-level set operators, in ClusterShell ``NodeSet`` notation.
_OPS = {",": "union", "&": "intersect", "!": "difference"}

_SELECTOR_HEAD = re.compile(r"^([A-Za-z_]+)\s*\[([^\[\]]*)\]")
_INT = re.compile(r"^\d+$")
_INT_RANGE = re.compile(r"^(\d+)-(\d+)(?:/(\d+))?$")
_NUM = r"\d+(?:\.\d+)?"
_FLOAT = re.compile(rf"^{_NUM}$")
_FLOAT_RANGE = re.compile(rf"^({_NUM})-({_NUM})/({_NUM})$")


def split_expression(text: str) -> list[tuple[str, str]]:
    """Split ``text`` into ``(op, term_text)`` pairs at top-level operators.

    The first term's op is always ``"union"``; brackets shield the value
    commas from the top-level split.  Empty terms and unbalanced
    brackets are loud errors.
    """
    parts: list[tuple[str, str]] = []
    op = "union"
    depth = 0
    buf: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise CaseSetError(f"unbalanced ']' in {text!r}")
        if depth == 0 and ch in _OPS:
            parts.append((op, "".join(buf)))
            op = _OPS[ch]
            buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise CaseSetError(f"unbalanced '[' in {text!r}")
    parts.append((op, "".join(buf)))
    for part_op, part in parts:
        if not part.strip():
            raise CaseSetError(
                f"empty term (dangling {part_op} operator?) in {text!r}"
            )
    return parts


def parse_term(text: str) -> dict[str, list[str]]:
    """Parse one product term into ``{axis: [raw value, ...]}``.

    Selectors are ``axis[v1,v2,...]`` joined by the cross operator ``x``
    (or ``*``).  Axis names are lower-cased; duplicate axes and empty
    value lists are errors.  Values are returned raw — the semantic
    layer types them per axis.
    """
    axes: dict[str, list[str]] = {}
    rest = text.strip()
    first = True
    while rest:
        if not first:
            if rest[0] in ("x", "*"):
                rest = rest[1:].lstrip()
            else:
                raise CaseSetError(
                    f"expected 'x' between selectors near {rest[:24]!r}"
                )
        match = _SELECTOR_HEAD.match(rest)
        if match is None:
            raise CaseSetError(
                f"expected an axis[value,...] selector near {rest[:24]!r}"
            )
        name = match.group(1).lower()
        body = match.group(2)
        if name in axes:
            raise CaseSetError(f"axis {name!r} appears twice in one term")
        items = [item.strip() for item in body.split(",")]
        if any(not item for item in items):
            raise CaseSetError(f"empty value in {name}[{body}]")
        axes[name] = items
        rest = rest[match.end():].lstrip()
        first = False
    if not axes:
        raise CaseSetError(f"empty term in {text!r}")
    return axes


# ---------------------------------------------------------------------- #
# integer values: "3", "0-9", "0-8/2"
# ---------------------------------------------------------------------- #


def parse_int_values(axis: str, items: list[str]) -> list[int]:
    """Expand raw integer values/ranges; deduplicates, keeps sorted order."""
    out: set[int] = set()
    for item in items:
        if _INT.match(item):
            out.add(int(item))
            continue
        match = _INT_RANGE.match(item)
        if match is None:
            raise CaseSetError(
                f"{axis} values must be integers or a-b[/step] ranges, "
                f"got {item!r}"
            )
        start, stop = int(match.group(1)), int(match.group(2))
        step = int(match.group(3) or 1)
        if step < 1:
            raise CaseSetError(f"{axis} range step must be >= 1 in {item!r}")
        if stop < start:
            raise CaseSetError(
                f"{axis} range is backwards ({start} > {stop}) in {item!r}"
            )
        out.update(range(start, stop + 1, step))
    return sorted(out)


def fold_ints(values: list[int]) -> str:
    """Fold sorted integers into compact range pieces (RangeSet style).

    Maximal arithmetic runs of length >= 3 (or adjacent pairs) become
    ``a-b[/step]``; everything else is listed.  ``parse_int_values``
    inverts this exactly.
    """
    vs = sorted(set(values))
    pieces: list[str] = []
    i = 0
    while i < len(vs):
        j = i + 1
        if j < len(vs):
            step = vs[j] - vs[i]
            while j + 1 < len(vs) and vs[j + 1] - vs[j] == step:
                j += 1
            run = j - i + 1
            if run >= 3 or (run == 2 and step == 1):
                suffix = f"/{step}" if step != 1 else ""
                pieces.append(f"{vs[i]}-{vs[j]}{suffix}")
                i = j + 1
                continue
        pieces.append(str(vs[i]))
        i += 1
    return ",".join(pieces)


# ---------------------------------------------------------------------- #
# float values: "1.1", "0.1-0.6/0.1"
# ---------------------------------------------------------------------- #


def format_float(value: float) -> str:
    """Shortest decimal rendering that parses back to the same float."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _decimals(token: str) -> int:
    """Digits after the decimal point in a written number."""
    _, _, frac = token.partition(".")
    return len(frac)


def parse_float_values(axis: str, items: list[str]) -> list[float]:
    """Expand raw float values/ranges; deduplicates, keeps sorted order.

    Ranges require an explicit step (``0.1-0.6/0.1``) and expand on the
    decimal lattice of the written precision, so every value is the
    correctly rounded float of its decimal — no accumulation drift.
    """
    out: set[float] = set()
    for item in items:
        if _FLOAT.match(item):
            out.add(float(item))
            continue
        match = _FLOAT_RANGE.match(item)
        if match is None:
            raise CaseSetError(
                f"{axis} values must be numbers or start-stop/step ranges "
                f"(step required), got {item!r}"
            )
        raw_start, raw_stop, raw_step = match.groups()
        scale = 10 ** max(
            _decimals(raw_start), _decimals(raw_stop), _decimals(raw_step)
        )
        start = round(float(raw_start) * scale)
        stop = round(float(raw_stop) * scale)
        step = round(float(raw_step) * scale)
        if step < 1:
            raise CaseSetError(f"{axis} range step must be > 0 in {item!r}")
        if stop < start:
            raise CaseSetError(
                f"{axis} range is backwards ({raw_start} > {raw_stop}) "
                f"in {item!r}"
            )
        out.update(i / scale for i in range(start, stop + 1, step))
    return sorted(out)


def fold_floats(values: list[float]) -> str:
    """Fold sorted floats into ``start-stop/step`` runs where exact.

    A run is only emitted after re-parsing it and checking it reproduces
    the identical floats — fold never changes the value set, it only
    compacts the spelling.
    """
    vs = sorted(set(values))
    pieces: list[str] = []
    i = 0
    while i < len(vs):
        best: tuple[int, str] | None = None
        if i + 2 < len(vs):
            step = vs[i + 1] - vs[i]
            j = i + 1
            while j + 1 < len(vs) and abs(
                (vs[j + 1] - vs[j]) - step
            ) <= 1e-12 * max(1.0, abs(step)):
                j += 1
            if j - i + 1 >= 3:
                candidate = (
                    f"{format_float(vs[i])}-{format_float(vs[j])}"
                    f"/{format_float(step)}"
                )
                try:
                    if parse_float_values("fold", [candidate]) == vs[i:j + 1]:
                        best = (j, candidate)
                except CaseSetError:
                    best = None
        if best is not None:
            pieces.append(best[1])
            i = best[0] + 1
        else:
            pieces.append(format_float(vs[i]))
            i += 1
    return ",".join(pieces)
