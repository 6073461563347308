"""Campaign case specifications: self-contained, hashable units of work.

A :class:`CampaignCase` captures *everything* needed to evaluate one
experiment case — the :class:`~repro.experiments.cases.CaseSpec` (graph
family × size × UL × instance), the suite-level base seed, the population
sizes and the engine — so that a case can be shipped to a worker process,
executed there, and keyed in an artifact cache by a content hash of its
fields.  Two campaigns that agree on every field produce bit-identical
:class:`~repro.core.study.CaseResult` objects regardless of process count
or execution order, because the per-case RNG seed is derived from the case
fields alone (the same ``CaseSpec.seed(base_seed) + 1`` derivation the
serial figure runners have always used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

from repro.core.metrics import DEFAULT_DELTA, DEFAULT_GAMMA, Method
from repro.experiments.cases import CaseSpec, build_workload
from repro.experiments.scale import Scale, get_scale
from repro.io.json_io import payload_digest
from repro.schedule import ALL_HEURISTICS
from repro.stochastic.model import StochasticModel

__all__ = ["CampaignCase", "expand_suite"]


@dataclass(frozen=True)
class CampaignCase:
    """One fully-specified experiment case of a campaign.

    Attributes
    ----------
    spec:
        The graph/UL case description.
    base_seed:
        Suite-level seed; the per-case RNG seed is derived from it and the
        case name (see :attr:`rng_seed`).
    n_random:
        Random-schedule population size.
    grid_n:
        RV grid resolution for the analysis engine.
    method:
        Makespan-distribution engine (``classical``/``dodin``/``spelde``/
        ``montecarlo``).
    heuristics:
        Heuristic schedules appended to the panel.
    delta, gamma:
        Probabilistic metric bounds (paper §V).
    mc_realizations:
        Monte-Carlo realization count (``montecarlo`` engine only).
    mc_batch:
        Evaluate all schedules against shared realization draws (the
        batched fast path; ``montecarlo`` engine only).
    fast_conv:
        Opt the grid engines into the fast precision policy (see
        :mod:`repro.stochastic.rv`; ``classical``/``dodin`` only).
    """

    spec: CaseSpec
    base_seed: int = 20070913
    n_random: int = 100
    grid_n: int = 65
    method: Method = "classical"
    heuristics: tuple[str, ...] = ("heft", "bil", "bmct")
    delta: float = DEFAULT_DELTA
    gamma: float = DEFAULT_GAMMA
    mc_realizations: int = 10_000
    mc_batch: bool = False
    fast_conv: bool = False

    @property
    def name(self) -> str:
        """Readable identifier (the underlying case name)."""
        return self.spec.name

    @property
    def rng_seed(self) -> int:
        """Per-case RNG seed — identical to the serial runners' derivation."""
        return self.spec.seed(self.base_seed) + 1

    # ------------------------------------------------------------------ #
    # hashing / serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible field dump (inverse of :meth:`from_dict`).

        ``fast_conv`` is serialized only when set: the default (exact)
        policy omits the field so that exact-mode cache keys — and every
        artifact cached before the field existed — stay byte-identical.
        """
        payload = {
            "kind": self.spec.kind,
            "param": self.spec.param,
            "ul": self.spec.ul,
            "instance": self.spec.instance,
            "base_seed": self.base_seed,
            "n_random": self.n_random,
            "grid_n": self.grid_n,
            "method": self.method,
            "heuristics": list(self.heuristics),
            "delta": self.delta,
            "gamma": self.gamma,
            "mc_realizations": self.mc_realizations,
            "mc_batch": self.mc_batch,
        }
        if self.fast_conv:
            payload["fast_conv"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CampaignCase":
        """Rebuild a case from :meth:`to_dict` output."""
        return cls(
            spec=CaseSpec(
                payload["kind"],
                int(payload["param"]),
                float(payload["ul"]),
                int(payload["instance"]),
            ),
            base_seed=int(payload["base_seed"]),
            n_random=int(payload["n_random"]),
            grid_n=int(payload["grid_n"]),
            method=payload["method"],
            heuristics=tuple(payload["heuristics"]),
            delta=float(payload["delta"]),
            gamma=float(payload["gamma"]),
            mc_realizations=int(payload["mc_realizations"]),
            mc_batch=bool(payload["mc_batch"]),
            fast_conv=bool(payload.get("fast_conv", False)),
        )

    @cached_property
    def key(self) -> str:
        """Content hash of every field — the artifact cache key.

        SHA-256 of the canonical (sorted-keys) JSON dump (the repo-wide
        :func:`~repro.io.json_io.payload_digest`), so any change to any
        parameter yields a different artifact and stale cache entries can
        never be confused for current ones.  The shard partitioner keys
        its case → shard assignment off this same hash (see
        :meth:`shard`).  Computed once per instance: the fields are
        frozen, and equality, hashing and :meth:`to_dict` read the
        fields, not this cached value.
        """
        return payload_digest(self.to_dict())

    def check(self) -> None:
        """Raise :class:`ValueError` unless :meth:`run` can evaluate this case.

        The one validity check of a case built from user input (the
        service's query parser and the case-set grammar both call it), so
        a case no worker can run is refused up front instead of failing
        on the fleet.  It mirrors ``StochasticModel.__post_init__`` and
        the guards of :func:`~repro.core.study.evaluate_case`.
        """
        ul = self.spec.ul
        if not (math.isfinite(ul) and ul >= 1.0):
            raise ValueError(f"ul must be finite and >= 1, got {ul}")
        if self.n_random < 2:
            raise ValueError(f"n_random must be >= 2, got {self.n_random}")
        if self.grid_n < 8:
            raise ValueError(f"grid_n must be >= 8, got {self.grid_n}")
        unknown = [h for h in self.heuristics if h not in ALL_HEURISTICS]
        if unknown:
            raise ValueError(
                f"unknown heuristic(s) {unknown}; expected a subset of "
                f"{sorted(ALL_HEURISTICS)}"
            )
        if self.fast_conv and self.method not in ("classical", "dodin"):
            raise ValueError(
                "fast_conv requires method classical or dodin, "
                f"got {self.method!r}"
            )
        if self.mc_batch and self.method != "montecarlo":
            raise ValueError(
                f"mc_batch requires method montecarlo, got {self.method!r}"
            )
        for name, value in (("delta", self.delta), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def shard(self, n_shards: int) -> int:
        """Deterministic shard assignment of this case among ``n_shards``.

        Keyed by the artifact hash (:attr:`key`), so the assignment is a
        pure function of the case fields — independent of suite order,
        process count, or which machine computes it.  Every worker and
        the merge step therefore agree on the partition without
        coordination.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        return int(self.key[:16], 16) % n_shards

    @property
    def artifact_name(self) -> str:
        """Human-greppable artifact file name: case name + hash prefix."""
        return f"{self.name}-{self.key[:12]}.json"

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self) -> "Any":
        """Evaluate this case (the unit of work a campaign worker executes).

        Reproduces the serial figure-runner path exactly: same workload
        construction, same model, same per-case seed.
        """
        from repro.core.study import evaluate_case

        workload = build_workload(self.spec, base_seed=self.base_seed)
        model = StochasticModel(ul=self.spec.ul, grid_n=self.grid_n)
        return evaluate_case(
            workload,
            model,
            n_random=self.n_random,
            rng=self.rng_seed,
            heuristics=self.heuristics,
            method=self.method,
            delta=self.delta,
            gamma=self.gamma,
            name=self.spec.name,
            mc_realizations=self.mc_realizations,
            mc_batch=self.mc_batch,
            fast_conv=self.fast_conv,
        )


def expand_suite(
    specs: Iterable[CaseSpec],
    scale: Scale | str | None = None,
    base_seed: int = 20070913,
    method: Method = "classical",
    mc_batch: bool = False,
    fast_conv: bool = False,
) -> list[CampaignCase]:
    """Expand case specs into :class:`CampaignCase` work units at a scale.

    Population sizes follow the scale's per-size policy, exactly as the
    serial ``fig6`` runner chose them.
    """
    scale = get_scale(scale)
    return [
        CampaignCase(
            spec=spec,
            base_seed=base_seed,
            n_random=scale.n_random(spec.n_tasks),
            grid_n=scale.grid_n,
            method=method,
            mc_realizations=scale.mc_realizations,
            mc_batch=mc_batch,
            fast_conv=fast_conv,
        )
        for spec in specs
    ]
