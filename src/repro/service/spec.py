"""Query-string → :class:`~repro.campaign.spec.CampaignCase` parsing.

The service's request surface is deliberately the same vocabulary as the
campaign CLI: a case is named by its graph family, size parameter, UL and
instance, and its population sizes default from a named scale exactly as
:func:`~repro.campaign.spec.expand_suite` chooses them.  Building the
*identical* :class:`CampaignCase` the campaign would build is what makes
served responses byte-identical to direct evaluation — the case's content
hash is the cache key, so any parsing drift would miss the cache and
recompute a different case.

Every validation failure raises :class:`CaseSpecError`, which the server
maps to a structured 400 — a malformed query must never reach the queue.
"""

from __future__ import annotations

from typing import Mapping

from repro.campaign.spec import CampaignCase
from repro.core.metrics import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import get_scale

__all__ = ["CaseSpecError", "case_from_query"]

_KINDS = ("random", "cholesky", "ge")
_METHODS = ("classical", "dodin", "spelde", "montecarlo")
_KNOWN_PARAMS = frozenset(
    {
        "kind",
        "param",
        "ul",
        "instance",
        "scale",
        "method",
        "base_seed",
        "heuristics",
        "n_random",
        "grid_n",
        "mc_realizations",
        "mc_batch",
        "fast_conv",
        "delta",
        "gamma",
    }
)
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class CaseSpecError(ValueError):
    """A query string does not describe a valid campaign case."""


def _require(params: Mapping[str, str], name: str) -> str:
    """Fetch a mandatory parameter or raise a named error."""
    try:
        return params[name]
    except KeyError:
        raise CaseSpecError(f"missing required parameter {name!r}") from None


def _as_int(name: str, raw: str, minimum: int | None = None) -> int:
    """Parse an integer parameter with an optional lower bound."""
    try:
        value = int(raw)
    except ValueError:
        raise CaseSpecError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise CaseSpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_float(name: str, raw: str) -> float:
    """Parse a float parameter."""
    try:
        return float(raw)
    except ValueError:
        raise CaseSpecError(f"{name} must be a number, got {raw!r}") from None


def _as_bool(name: str, raw: str) -> bool:
    """Parse a boolean parameter (1/0, true/false, yes/no, on/off)."""
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise CaseSpecError(f"{name} must be a boolean, got {raw!r}")


def case_from_query(params: Mapping[str, str]) -> CampaignCase:
    """Build the campaign case a flat query-parameter mapping describes.

    Required: ``kind`` (random/cholesky/ge), ``param`` (n_tasks for
    random, the block count for cholesky/ge) and ``ul``.  Optional knobs
    mirror :class:`CampaignCase` fields; population sizes default from
    ``scale`` (quick/default/paper, as the campaign CLI does) and can be
    overridden individually.  Unknown parameters are a loud error so that
    a typo cannot silently select a different (valid) case, and a case no
    worker could run (:meth:`CampaignCase.check`) is refused too.
    """
    unknown = sorted(set(params) - _KNOWN_PARAMS)
    if unknown:
        raise CaseSpecError(
            f"unknown parameter(s) {unknown}; expected a subset of "
            f"{sorted(_KNOWN_PARAMS)}"
        )

    kind = _require(params, "kind")
    if kind not in _KINDS:
        raise CaseSpecError(f"kind must be one of {_KINDS}, got {kind!r}")
    param = _as_int("param", _require(params, "param"), minimum=1)
    ul = _as_float("ul", _require(params, "ul"))
    if ul <= 0:
        raise CaseSpecError(f"ul must be > 0, got {ul}")
    instance = _as_int("instance", params.get("instance", "0"), minimum=0)
    spec = CaseSpec(kind, param, ul, instance)

    try:
        scale = get_scale(params.get("scale", "quick"))
    except ValueError as exc:
        raise CaseSpecError(str(exc)) from None
    method = params.get("method", "classical")
    if method not in _METHODS:
        raise CaseSpecError(
            f"method must be one of {_METHODS}, got {method!r}"
        )

    mc_batch = _as_bool("mc_batch", params.get("mc_batch", "0"))
    if mc_batch and method != "montecarlo":
        raise CaseSpecError(
            f"mc_batch requires method=montecarlo, got method={method!r}"
        )

    heuristics: tuple[str, ...] = ("heft", "bil", "bmct")
    if "heuristics" in params:
        heuristics = tuple(
            h.strip() for h in params["heuristics"].split(",") if h.strip()
        )
        if not heuristics:
            raise CaseSpecError("heuristics must name at least one heuristic")

    case = CampaignCase(
        spec=spec,
        base_seed=_as_int("base_seed", params.get("base_seed", "20070913")),
        n_random=_as_int(
            "n_random",
            params.get("n_random", str(scale.n_random(spec.n_tasks))),
            minimum=0,
        ),
        grid_n=_as_int(
            "grid_n", params.get("grid_n", str(scale.grid_n)), minimum=2
        ),
        method=method,
        heuristics=heuristics,
        delta=(
            _as_float("delta", params["delta"])
            if "delta" in params
            else DEFAULT_DELTA
        ),
        gamma=(
            _as_float("gamma", params["gamma"])
            if "gamma" in params
            else DEFAULT_GAMMA
        ),
        mc_realizations=_as_int(
            "mc_realizations",
            params.get("mc_realizations", str(scale.mc_realizations)),
            minimum=1,
        ),
        mc_batch=mc_batch,
        fast_conv=_as_bool("fast_conv", params.get("fast_conv", "0")),
    )
    try:
        case.check()
    except ValueError as exc:
        raise CaseSpecError(str(exc)) from None
    return case
