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
* **Expanded cases are the campaign's own.**  Each coordinate builds a
  :class:`~repro.campaign.spec.CampaignCase` exactly as the service's
  ``/case`` resolver would (same scale-derived population defaults), so
  sweep cases share artifact keys with every other layer of the stack.
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
from typing import Iterable, Iterator

from repro.campaign.spec import CampaignCase
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
from repro.experiments.scale import get_scale
from repro.schedule import ALL_HEURISTICS

__all__ = [
    "CaseEntry",
    "CaseSet",
    "GraphToken",
    "Profile",
    "as_caseset",
    "expand",
    "fold",
    "parse",
]

_METHODS = ("classical", "dodin", "spelde", "montecarlo")
_SCALES = ("quick", "default", "paper")
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

#: Every axis the grammar accepts (aliases map onto these).
_KNOWN_AXES = (
    "graph",
    "ul",
    "seed",
    "method",
    "heuristic",
    "scale",
    "base_seed",
    "n_random",
    "grid_n",
    "mc_realizations",
    "delta",
    "gamma",
    "mc_batch",
    "fast_conv",
)
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
        if count < 1:
            raise CaseSetError(f"random graph needs >= 1 task, got {raw!r}")
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

    ``None`` population fields defer to the named scale per graph size,
    exactly like the service's ``/case`` resolver; the ``heuristics``
    tuple is the per-case evaluation panel (order is part of the case's
    identity, so it is preserved verbatim through fold/parse).
    """

    scale: str = _DEFAULT_SCALE
    base_seed: int = _DEFAULT_BASE_SEED
    heuristics: tuple[str, ...] = _DEFAULT_PANEL
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

        Population sizes default from the profile's scale per graph
        size, identically to ``case_from_query`` — parsing drift here
        would change artifact keys and silently miss the cache.  A case
        no worker could run (:meth:`CampaignCase.check`) raises
        :class:`CaseSetError`.
        """
        spec = CaseSpec(self.graph.kind, self.graph.param, self.ul, self.seed)
        p = self.profile
        scale = get_scale(p.scale)
        case = CampaignCase(
            spec=spec,
            base_seed=p.base_seed,
            n_random=(
                p.n_random
                if p.n_random is not None
                else scale.n_random(spec.n_tasks)
            ),
            grid_n=p.grid_n if p.grid_n is not None else scale.grid_n,
            method=self.method,
            heuristics=p.heuristics,
            delta=p.delta,
            gamma=p.gamma,
            mc_realizations=(
                p.mc_realizations
                if p.mc_realizations is not None
                else scale.mc_realizations
            ),
            mc_batch=p.mc_batch,
            fast_conv=p.fast_conv,
        )
        try:
            case.check()
        except ValueError as exc:
            raise CaseSetError(str(exc)) from None
        return case


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


def _single_int(
    axes: dict[str, list[str]], name: str, minimum: int | None = None
) -> int:
    """Parse a singleton integer modifier with an optional lower bound."""
    raw = _single(axes, name)
    try:
        value = int(raw)
    except ValueError:
        raise CaseSetError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise CaseSetError(f"{name} must be >= {minimum}, got {value}")
    return value


def _single_float(axes: dict[str, list[str]], name: str) -> float:
    """Parse a singleton float modifier."""
    raw = _single(axes, name)
    try:
        return float(raw)
    except ValueError:
        raise CaseSetError(f"{name} must be a number, got {raw!r}") from None


def _single_bool(axes: dict[str, list[str]], name: str) -> bool:
    """Parse a singleton boolean modifier (1/0, true/false, yes/no)."""
    raw = _single(axes, name).lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise CaseSetError(f"{name} must be a boolean, got {raw!r}")


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
    if any(ul <= 0 for ul in uls):
        raise CaseSetError(f"ul must be > 0, got {min(uls)}")
    seeds = parse_int_values("seed", axes["seed"]) if "seed" in axes else [0]

    methods = [_DEFAULT_CASE_METHOD]
    if "method" in axes:
        methods = list(dict.fromkeys(axes["method"]))
        for method in methods:
            if method not in _METHODS:
                raise CaseSetError(
                    f"method must be one of {_METHODS}, got {method!r}"
                )
        methods.sort(key=_METHODS.index)

    profile_kwargs: dict = {}
    if "heuristic" in axes:
        panel = tuple(dict.fromkeys(axes["heuristic"]))
        for name in panel:
            if name not in ALL_HEURISTICS:
                raise CaseSetError(
                    f"unknown heuristic {name!r}; expected a subset of "
                    f"{sorted(ALL_HEURISTICS)}"
                )
        profile_kwargs["heuristics"] = panel
    if "scale" in axes:
        scale = _single(axes, "scale")
        if scale not in _SCALES:
            raise CaseSetError(
                f"scale must be one of {_SCALES}, got {scale!r}"
            )
        profile_kwargs["scale"] = scale
    if "base_seed" in axes:
        profile_kwargs["base_seed"] = _single_int(axes, "base_seed")
    if "n_random" in axes:
        profile_kwargs["n_random"] = _single_int(axes, "n_random", minimum=0)
    if "grid_n" in axes:
        profile_kwargs["grid_n"] = _single_int(axes, "grid_n", minimum=2)
    if "mc_realizations" in axes:
        profile_kwargs["mc_realizations"] = _single_int(
            axes, "mc_realizations", minimum=1
        )
    if "delta" in axes:
        profile_kwargs["delta"] = _single_float(axes, "delta")
    if "gamma" in axes:
        profile_kwargs["gamma"] = _single_float(axes, "gamma")
    if "mc_batch" in axes:
        profile_kwargs["mc_batch"] = _single_bool(axes, "mc_batch")
    if "fast_conv" in axes:
        profile_kwargs["fast_conv"] = _single_bool(axes, "fast_conv")
    profile = Profile(**profile_kwargs)

    if profile.mc_batch and any(m != "montecarlo" for m in methods):
        raise CaseSetError(
            "mc_batch requires method[montecarlo], got "
            f"method{list(methods)}"
        )

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


_DEFAULT_CASE_METHOD = _CASE_DEFAULTS["method"]


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
            "method[{}]".format(
                ",".join(sorted(methods, key=_METHODS.index))
            )
        )
    if profile.heuristics != _DEFAULT_PANEL:
        parts.append("heuristic[{}]".format(",".join(profile.heuristics)))
    if profile.scale != _DEFAULT_SCALE:
        parts.append(f"scale[{profile.scale}]")
    if profile.base_seed != _DEFAULT_BASE_SEED:
        parts.append(f"base_seed[{profile.base_seed}]")
    if profile.n_random is not None:
        parts.append(f"n_random[{profile.n_random}]")
    if profile.grid_n is not None:
        parts.append(f"grid_n[{profile.grid_n}]")
    if profile.mc_realizations is not None:
        parts.append(f"mc_realizations[{profile.mc_realizations}]")
    if profile.delta != DEFAULT_DELTA:
        parts.append(f"delta[{format_float(profile.delta)}]")
    if profile.gamma != DEFAULT_GAMMA:
        parts.append(f"gamma[{format_float(profile.gamma)}]")
    if profile.mc_batch:
        parts.append("mc_batch[1]")
    if profile.fast_conv:
        parts.append("fast_conv[1]")
    return " x ".join(parts)


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
