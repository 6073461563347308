"""Query-string → :class:`~repro.campaign.spec.CampaignCase` parsing.

The service's request surface is the campaign's vocabulary: a case is
named by its graph family, size parameter, UL and instance; modifiers
are typed by the case-set table (:data:`repro.caseset.MODIFIERS`); and
:meth:`CampaignCase.at_scale`, the builder behind suite expansion and
case-set terms, fills the population sizes from a named scale and checks
the case.  The case's content hash is the cache key, so one builder is
what makes served responses byte-identical to direct evaluation.

Every validation failure raises :class:`CaseSpecError`, which the server
maps to a structured 400 — a malformed query must never reach the queue.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.campaign.spec import CampaignCase
from repro.caseset import MODIFIERS, as_float, as_int, parse_modifiers
from repro.experiments.cases import CaseSpec

__all__ = ["CaseSpecError", "case_from_query"]

_KNOWN_PARAMS = frozenset(
    {"kind", "param", "ul", "instance", "method", "heuristics", *MODIFIERS}
)


class CaseSpecError(ValueError):
    """A query string does not describe a valid campaign case."""


def _require(params: Mapping[str, str], name: str) -> str:
    """Fetch a mandatory parameter or raise a named error."""
    try:
        return params[name]
    except KeyError:
        raise CaseSpecError(f"missing required parameter {name!r}") from None


def case_from_query(params: Mapping[str, str]) -> CampaignCase:
    """Build the campaign case a flat query-parameter mapping describes.

    Required: ``kind`` (random/cholesky/ge), ``param`` (n_tasks for
    random, the block count for cholesky/ge) and ``ul``.  Optional knobs
    are :class:`CampaignCase` fields; population sizes default from
    ``scale`` (quick/default/paper, as the campaign CLI does) and can be
    overridden individually.  A repeated heuristic counts once.  Unknown
    parameters are a loud error so that a typo cannot silently select a
    different (valid) case, and a case no worker could run
    (:meth:`CampaignCase.check`) is refused too.
    """
    unknown = sorted(set(params) - _KNOWN_PARAMS)
    if unknown:
        raise CaseSpecError(
            f"unknown parameter(s) {unknown}; expected a subset of "
            f"{sorted(_KNOWN_PARAMS)}"
        )
    try:
        spec = CaseSpec(
            _require(params, "kind"),
            as_int("param", _require(params, "param")),
            as_float("ul", _require(params, "ul")),
            as_int("instance", params.get("instance", "0")),
        )
        fields: dict[str, Any] = {"scale": "quick", **parse_modifiers(params)}
        if "method" in params:
            fields["method"] = params["method"]
        if "heuristics" in params:
            names = (h.strip() for h in params["heuristics"].split(","))
            fields["heuristics"] = tuple(dict.fromkeys(h for h in names if h))
        return CampaignCase.at_scale(spec, **fields)
    except ValueError as exc:
        raise CaseSpecError(str(exc)) from None
