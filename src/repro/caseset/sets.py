"""Semantic layer of the case-set algebra: expressions ↔ campaign cases.

A case-set expression selects whole suites with one line, ClusterShell
``NodeSet``-style::

    graph[chol84,ge90] x ul[1.1-1.6/0.1] x seed[0-9] x heuristic[heft,cpop]

Product axes (``graph``, ``ul``, ``seed``, ``method``) multiply into
cases; modifier axes (``heuristic`` — the per-case panel — plus
``scale``, ``base_seed``, ``n_random``, ``grid_n``, ``mc_realizations``,
``delta``, ``gamma``, ``mc_batch``, ``fast_conv``) take a single value
and apply to every case of their term.  Graph tokens name a family by
its *task count* (``rand100``, ``chol84`` = Cholesky b=7, ``ge90`` = GE
b=13), mirroring how the paper labels its graphs.

The contract that makes the algebra safe to put in front of the cache:

* **Expansion is deterministic.**  Axis values are canonicalized
  (sorted, deduplicated) at parse time and the product unrolls in a
  fixed odometer order — ``ul`` slowest, then ``graph``, ``seed``,
  ``method`` — so the same expression always yields the same ordered
  case list, and therefore the same aggregate bytes.
* **Expanded cases are the campaign's own.**  Each coordinate is built
  by :meth:`~repro.campaign.spec.CampaignCase.at_scale`, the one builder
  behind suite expansion and ``/case`` queries too, so sweep cases share
  artifact keys with every other layer of the stack.
* **fold ∘ expand is the identity on sets.**  :meth:`CaseSet.fold`
  re-compacts any case set to a canonical expression that re-expands to
  the identical case keys — so "what's missing from the cache" is
  itself a set expression you can paste back into a sweep.

Set operators (``,`` union, ``&`` intersection, ``!`` difference,
left-associative) and the Python operators ``| & -`` on
:class:`CaseSet` work on case *keys* (content hashes), so two different
spellings of the same case — say an explicit ``n_random`` equal to the
scale default — coincide exactly when their artifacts would.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.campaign.spec import METHODS, CampaignCase
from repro.caseset.grammar import (
    CaseSetError,
    fold_floats,
    fold_ints,
    format_float,
    parse_float_values,
    parse_int_values,
    parse_term,
    split_expression,
)
from repro.core.metrics import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.dag.cholesky import cholesky_task_count
from repro.dag.gaussian_elim import ge_task_count
from repro.experiments.cases import CaseSpec

__all__ = [
    "MODIFIERS",
    "CaseEntry",
    "CaseSet",
    "GraphToken",
    "Profile",
    "as_caseset",
    "as_float",
    "as_int",
    "expand",
    "fold",
    "parse",
    "parse_modifiers",
]

_KIND_RANK = {"random": 0, "cholesky": 1, "ge": 2}
_KIND_PREFIX = {"random": "rand", "cholesky": "chol", "ge": "ge"}
_GRAPH_TOKEN = re.compile(r"^(rand|random|chol|cholesky|ge)(\d+)$")
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

#: Inverse task-count tables: n_tasks → structure parameter b.
_CHOL_COUNTS = {cholesky_task_count(b): b for b in range(1, 41)}
_GE_COUNTS = {ge_task_count(b): b for b in range(2, 41)}

_CASE_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(CampaignCase)
}
_DEFAULT_BASE_SEED: int = _CASE_DEFAULTS["base_seed"]
_DEFAULT_PANEL: tuple[str, ...] = _CASE_DEFAULTS["heuristics"]
_DEFAULT_SCALE = "quick"
_DEFAULT_CASE_METHOD = _CASE_DEFAULTS["method"]


# ---------------------------------------------------------------------- #
# modifier typing (the service's ``/case`` parser shares it)
# ---------------------------------------------------------------------- #


def as_int(name: str, raw: str) -> int:
    """Type an integer value; the error names ``name``."""
    try:
        return int(raw)
    except ValueError:
        raise CaseSetError(f"{name} must be an integer, got {raw!r}") from None


def as_float(name: str, raw: str) -> float:
    """Type a number; the error names ``name``."""
    try:
        return float(raw)
    except ValueError:
        raise CaseSetError(f"{name} must be a number, got {raw!r}") from None


def _as_bool(name: str, raw: str) -> bool:
    """Type a boolean (1/0, true/false, yes/no, on/off)."""
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise CaseSetError(f"{name} must be a boolean, got {raw!r}")


#: Modifier name → typing function ``(name, raw) -> value``.  A modifier
#: takes one value and refines every case of a case-set term or of a
#: ``/case`` query.  The scale name is checked when the case is built.
MODIFIERS: Mapping[str, Callable[[str, str], Any]] = {
    "scale": lambda name, raw: raw,
    "base_seed": as_int,
    "n_random": as_int,
    "grid_n": as_int,
    "mc_realizations": as_int,
    "delta": as_float,
    "gamma": as_float,
    "mc_batch": _as_bool,
    "fast_conv": _as_bool,
}


def parse_modifiers(raw: Mapping[str, str]) -> dict[str, Any]:
    """Type each :data:`MODIFIERS` entry of ``raw``, skipping other names.

    The result is keyword arguments of :class:`Profile` and
    :meth:`CampaignCase.at_scale`.  A value that does not parse raises
    :class:`CaseSetError` naming its modifier.
    """
    return {
        name: MODIFIERS[name](name, raw[name])
        for name in MODIFIERS
        if name in raw
    }


#: Every axis the grammar accepts (aliases map onto these).
_KNOWN_AXES = ("graph", "ul", "seed", "method", "heuristic", *MODIFIERS)
_AXIS_ALIASES = {"instance": "seed", "heuristics": "heuristic"}


@dataclass(frozen=True)
class GraphToken:
    """One graph-family axis value: a (kind, structure parameter) pair."""

    kind: str
    param: int

    @property
    def n_tasks(self) -> int:
        """Task count of this graph (what the token spells)."""
        return CaseSpec(self.kind, self.param, 1.0).n_tasks

    @property
    def token(self) -> str:
        """Canonical spelling: ``rand100`` / ``chol84`` / ``ge90``."""
        return f"{_KIND_PREFIX[self.kind]}{self.n_tasks}"

    @property
    def sort_key(self) -> tuple[int, int]:
        """Canonical axis order: random < cholesky < ge, then by size."""
        return (_KIND_RANK[self.kind], self.n_tasks)


def _parse_graph(raw: str) -> GraphToken:
    """Resolve one graph token to its (kind, param) pair — or explain."""
    match = _GRAPH_TOKEN.match(raw.strip().lower())
    if match is None:
        raise CaseSetError(
            f"graph must look like rand10 / chol84 / ge90, got {raw!r}"
        )
    word, count = match.group(1), int(match.group(2))
    if word in ("rand", "random"):
        return GraphToken("random", count)
    kind = "cholesky" if word in ("chol", "cholesky") else "ge"
    table = _CHOL_COUNTS if kind == "cholesky" else _GE_COUNTS
    if count in table:
        return GraphToken(kind, table[count])
    below = max((c for c in table if c < count), default=None)
    above = min((c for c in table if c > count), default=None)
    near = ", ".join(
        f"{c} (b={table[c]})" for c in (below, above) if c is not None
    )
    raise CaseSetError(
        f"no {kind} graph has {count} tasks; nearest valid counts: {near}"
    )


@dataclass(frozen=True)
class Profile:
    """The non-product modifiers shared by every case of a term.

    Field names are :meth:`CampaignCase.at_scale` keywords, and a folded
    term prints them in declaration order.  ``None`` population fields
    defer to the named scale per graph size; the ``heuristics`` tuple is
    the per-case evaluation panel (order is part of the case's identity,
    so it is preserved verbatim through fold/parse).
    """

    heuristics: tuple[str, ...] = _DEFAULT_PANEL
    scale: str = _DEFAULT_SCALE
    base_seed: int = _DEFAULT_BASE_SEED
    n_random: int | None = None
    grid_n: int | None = None
    mc_realizations: int | None = None
    delta: float = DEFAULT_DELTA
    gamma: float = DEFAULT_GAMMA
    mc_batch: bool = False
    fast_conv: bool = False


@dataclass(frozen=True)
class CaseEntry:
    """One expanded coordinate: a profile plus its product-axis values."""

    profile: Profile
    method: str
    ul: float
    graph: GraphToken
    seed: int

    def to_case(self) -> CampaignCase:
        """Build the campaign case this coordinate names.

        The profile's fields are :meth:`CampaignCase.at_scale` keywords.
        A case no worker could run raises :class:`CaseSetError`.
        """
        spec = CaseSpec(self.graph.kind, self.graph.param, self.ul, self.seed)
        try:
            return CampaignCase.at_scale(
                spec, method=self.method, **vars(self.profile)
            )
        except ValueError as exc:
            raise CaseSetError(str(exc)) from None


# ---------------------------------------------------------------------- #
# term expansion
# ---------------------------------------------------------------------- #


def _single(axes: dict[str, list[str]], name: str) -> str:
    """Fetch a modifier axis's value, insisting on exactly one."""
    values = axes[name]
    if len(values) != 1:
        raise CaseSetError(
            f"{name} is a modifier, not a product axis; give exactly one "
            f"value, got {values}"
        )
    return values[0]


def _term_entries(
    axes: dict[str, list[str]], max_cases: int | None = None
) -> list[CaseEntry]:
    """Expand one parsed term into its ordered coordinate list."""
    normalized: dict[str, list[str]] = {}
    for name, values in axes.items():
        canonical = _AXIS_ALIASES.get(name, name)
        if canonical not in _KNOWN_AXES:
            raise CaseSetError(
                f"unknown axis {name!r}; expected one of {list(_KNOWN_AXES)}"
            )
        if canonical in normalized:
            raise CaseSetError(f"axis {canonical!r} appears twice in one term")
        normalized[canonical] = values
    axes = normalized
    for required in ("graph", "ul"):
        if required not in axes:
            raise CaseSetError(f"a term must select {required}[...]")

    graphs = sorted(
        dict.fromkeys(_parse_graph(raw) for raw in axes["graph"]),
        key=lambda g: g.sort_key,
    )
    uls = parse_float_values("ul", axes["ul"])
    seeds = parse_int_values("seed", axes["seed"]) if "seed" in axes else [0]

    methods = [_DEFAULT_CASE_METHOD]
    if "method" in axes:
        # canonical order; check() names any method outside METHODS
        methods = [m for m in METHODS if m in axes["method"]]
        methods += sorted(set(axes["method"]) - set(METHODS))

    modifiers = parse_modifiers(
        {name: _single(axes, name) for name in MODIFIERS if name in axes}
    )
    if "heuristic" in axes:
        modifiers["heuristics"] = tuple(dict.fromkeys(axes["heuristic"]))
    profile = Profile(**modifiers)

    size = len(uls) * len(graphs) * len(seeds) * len(methods)
    if max_cases is not None and size > max_cases:
        raise CaseSetError(
            f"term expands to {size} cases, over the {max_cases}-case limit"
        )
    return [
        CaseEntry(profile, method, ul, graph, seed)
        for ul in uls
        for graph in graphs
        for seed in seeds
        for method in methods
    ]


# ---------------------------------------------------------------------- #
# the case set
# ---------------------------------------------------------------------- #


class CaseSet:
    """An ordered, key-deduplicated set of campaign cases.

    Construction expands every entry to its :class:`CampaignCase` once;
    identity for all set operations is the case *key* (content hash), so
    equal cases written differently coincide.  Iteration order is
    insertion order — deterministic for any fixed expression — and is
    the fold order of every aggregate computed over the set.
    """

    def __init__(self, entries: Iterable[CaseEntry]):
        self._pairs: list[tuple[CaseEntry, CampaignCase]] = []
        self._index: dict[str, int] = {}
        for entry in entries:
            case = entry.to_case()
            if case.key in self._index:
                continue
            self._index[case.key] = len(self._pairs)
            self._pairs.append((entry, case))

    @classmethod
    def _from_pairs(
        cls, pairs: Iterable[tuple[CaseEntry, CampaignCase]]
    ) -> "CaseSet":
        """Internal constructor that skips re-deriving cases."""
        obj = cls.__new__(cls)
        obj._pairs = []
        obj._index = {}
        for entry, case in pairs:
            if case.key in obj._index:
                continue
            obj._index[case.key] = len(obj._pairs)
            obj._pairs.append((entry, case))
        return obj

    # -- views ---------------------------------------------------------- #

    def cases(self) -> list[CampaignCase]:
        """The expanded cases, in deterministic set order."""
        return [case for _, case in self._pairs]

    def entries(self) -> list[CaseEntry]:
        """The coordinate entries, in deterministic set order."""
        return [entry for entry, _ in self._pairs]

    def keys(self) -> list[str]:
        """The case keys (artifact identities), in set order."""
        return [case.key for _, case in self._pairs]

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __iter__(self) -> Iterator[CampaignCase]:
        return iter(self.cases())

    def __contains__(self, item: "CampaignCase | str") -> bool:
        key = item.key if isinstance(item, CampaignCase) else item
        return key in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseSet):
            return NotImplemented
        return self.keys() == other.keys()

    def __hash__(self) -> int:  # pragma: no cover - sets of sets unused
        return hash(tuple(self._index))

    def __repr__(self) -> str:
        return f"CaseSet({len(self._pairs)} cases: {self.fold()!r})"

    # -- algebra -------------------------------------------------------- #

    def __or__(self, other: "CaseSet") -> "CaseSet":
        """Union: self's entries, then other's unseen ones."""
        return CaseSet._from_pairs(self._pairs + other._pairs)

    def __and__(self, other: "CaseSet") -> "CaseSet":
        """Intersection, keeping self's order."""
        return CaseSet._from_pairs(
            pair for pair in self._pairs if pair[1].key in other._index
        )

    def __sub__(self, other: "CaseSet") -> "CaseSet":
        """Difference, keeping self's order."""
        return CaseSet._from_pairs(
            pair for pair in self._pairs if pair[1].key not in other._index
        )

    def subset(self, keys: Iterable[str]) -> "CaseSet":
        """The members whose case key is in ``keys``, in set order."""
        wanted = set(keys)
        return CaseSet._from_pairs(
            pair for pair in self._pairs if pair[1].key in wanted
        )

    # -- folding -------------------------------------------------------- #

    def fold(self) -> str:
        """Re-compact this set to its canonical expression.

        Entries sharing a profile are covered by greedy axis merging
        (seeds, then ULs, then graphs, then methods — a full product
        collapses to one term; irregular sets become a disjoint union of
        product terms).  The result re-expands to the identical case
        keys; an empty set folds to the empty string.
        """
        if not self._pairs:
            return ""
        groups: dict[Profile, list[CaseEntry]] = {}
        for entry, _ in self._pairs:
            groups.setdefault(entry.profile, []).append(entry)
        printed: list[str] = []
        for profile, entries in groups.items():
            printed.extend(
                _print_term(profile, *term) for term in _cover(entries)
            )
        return ", ".join(sorted(printed))


def _cover(
    entries: list[CaseEntry],
) -> list[tuple[frozenset, frozenset, frozenset, frozenset]]:
    """Greedy rectangle cover of coordinates sharing one profile.

    Terms are (methods, uls, graphs, seeds) value-set tuples; merging
    along one axis groups terms equal on the other three and unions the
    axis values.  One pass per axis suffices to collapse any exact
    product; leftovers stay as disjoint smaller products.
    """
    terms: list[tuple[frozenset, ...]] = [
        (
            frozenset([e.method]),
            frozenset([e.ul]),
            frozenset([e.graph]),
            frozenset([e.seed]),
        )
        for e in entries
    ]
    for axis in (3, 1, 2, 0):  # seeds, uls, graphs, methods
        grouped: dict[tuple, list[frozenset]] = {}
        for term in terms:
            key = tuple(term[i] for i in range(4) if i != axis)
            grouped.setdefault(key, []).append(term[axis])
        terms = []
        for key, values in grouped.items():
            merged = list(key)
            merged.insert(axis, frozenset().union(*values))
            terms.append(tuple(merged))
    return terms  # type: ignore[return-value]


def _print_term(
    profile: Profile,
    methods: frozenset,
    uls: frozenset,
    graphs: frozenset,
    seeds: frozenset,
) -> str:
    """Render one product term canonically, omitting default axes."""
    parts = [
        "graph[{}]".format(
            ",".join(
                g.token for g in sorted(graphs, key=lambda g: g.sort_key)
            )
        ),
        f"ul[{fold_floats(sorted(uls))}]",
    ]
    if seeds != {0}:
        parts.append(f"seed[{fold_ints(sorted(seeds))}]")
    if methods != {_DEFAULT_CASE_METHOD}:
        parts.append(
            "method[{}]".format(",".join(sorted(methods, key=METHODS.index)))
        )
    for field in dataclasses.fields(Profile):
        value = getattr(profile, field.name)
        if value != field.default:
            axis = _AXIS_ALIASES.get(field.name, field.name)
            parts.append(f"{axis}[{_print_value(value)}]")
    return " x ".join(parts)


def _print_value(value: object) -> str:
    """Spell one modifier value as the grammar reads it back."""
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


# ---------------------------------------------------------------------- #
# module-level conveniences
# ---------------------------------------------------------------------- #


def parse(text: str, *, max_cases: int | None = None) -> CaseSet:
    """Parse a case-set expression into a :class:`CaseSet`.

    Set operators apply left to right; ``max_cases`` bounds both each
    term's product size and the running result (the service's sweep cap
    — oversize expressions fail before any expansion work).
    """
    result: CaseSet | None = None
    for op, term_text in split_expression(text):
        term_set = CaseSet(_term_entries(parse_term(term_text), max_cases))
        if result is None:
            result = term_set
        elif op == "union":
            result = result | term_set
        elif op == "intersect":
            result = result & term_set
        else:
            result = result - term_set
        if max_cases is not None and len(result) > max_cases:
            raise CaseSetError(
                f"expression expands to {len(result)} cases, over the "
                f"{max_cases}-case limit"
            )
    assert result is not None  # split_expression rejects empty input
    return result


def as_caseset(
    expr: "str | CaseSet", *, max_cases: int | None = None
) -> CaseSet:
    """Coerce an expression string (or pass through a set) to a CaseSet."""
    if isinstance(expr, CaseSet):
        return expr
    return parse(expr, max_cases=max_cases)


def expand(
    expr: "str | CaseSet", *, max_cases: int | None = None
) -> list[CampaignCase]:
    """The deterministic ordered case list an expression selects."""
    return as_caseset(expr, max_cases=max_cases).cases()


def fold(expr: "str | CaseSet") -> str:
    """The canonical compact form of an expression or case set."""
    return as_caseset(expr).fold()
