"""JSON round-trips for task graphs, workloads and schedules.

The format is versioned and minimal: enough to reconstruct the object
bit-exactly (graphs: edges + volumes; workloads: + platform matrices + cost
matrix; schedules: + assignment and per-processor orders — start/finish
times are *recomputed* by the eager replay on load, which doubles as an
integrity check).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.core.metrics import METRIC_NAMES, RobustnessMetrics
from repro.core.panel import MetricPanel
from repro.core.study import CaseResult
from repro.dag.graph import TaskGraph
from repro.platform.platform import Platform
from repro.platform.workload import Workload
from repro.schedule.schedule import Schedule

__all__ = [
    "taskgraph_to_json",
    "taskgraph_from_json",
    "workload_to_json",
    "workload_from_json",
    "schedule_to_json",
    "schedule_from_json",
    "case_result_to_json",
    "case_result_from_json",
    "case_result_to_payload",
    "case_result_from_payload",
    "canonical_json",
    "payload_digest",
]

_FORMAT = "repro-v1"


def canonical_json(payload: Any) -> str:
    """The repo-wide canonical JSON dump: sorted keys, default separators.

    Every content hash (case keys, artifact result digests, shard suite
    keys) is computed over this exact encoding, so two processes — or two
    machines — agreeing on a payload agree on its digest byte-for-byte.
    """
    return json.dumps(payload, sort_keys=True)


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def taskgraph_to_json(graph: TaskGraph) -> str:
    """Serialize a task graph (structure + volumes) to JSON."""
    payload = {
        "format": _FORMAT,
        "kind": "taskgraph",
        "name": graph.name,
        "n_tasks": graph.n_tasks,
        "edges": [[u, v, vol] for u, v, vol in sorted(graph.edges())],
    }
    return json.dumps(payload)


def taskgraph_from_json(text: str) -> TaskGraph:
    """Inverse of :func:`taskgraph_to_json`."""
    payload = _load(text, "taskgraph")
    graph = TaskGraph(
        int(payload["n_tasks"]),
        ((int(u), int(v), float(vol)) for u, v, vol in payload["edges"]),
        name=str(payload.get("name", "")),
    )
    graph.validate()
    return graph


def workload_to_json(workload: Workload) -> str:
    """Serialize a workload (graph + platform + cost matrix) to JSON."""
    payload = {
        "format": _FORMAT,
        "kind": "workload",
        "graph": json.loads(taskgraph_to_json(workload.graph)),
        "tau": workload.platform.tau.tolist(),
        "latency": workload.platform.latency.tolist(),
        "comp": workload.comp.tolist(),
    }
    return json.dumps(payload)


def workload_from_json(text: str) -> Workload:
    """Inverse of :func:`workload_to_json`."""
    payload = _load(text, "workload")
    graph = taskgraph_from_json(json.dumps(payload["graph"]))
    platform = Platform(
        np.asarray(payload["tau"], dtype=float),
        np.asarray(payload["latency"], dtype=float),
    )
    return Workload(graph, platform, np.asarray(payload["comp"], dtype=float))


def schedule_to_json(schedule: Schedule, embed_workload: bool = True) -> str:
    """Serialize a schedule; optionally embed its workload.

    Without ``embed_workload`` the consumer must supply the workload at
    load time (useful when archiving thousands of schedules of one case).
    """
    payload: dict[str, Any] = {
        "format": _FORMAT,
        "kind": "schedule",
        "label": schedule.label,
        "proc": schedule.proc.tolist(),
        "orders": [list(order) for order in schedule.orders],
    }
    if embed_workload:
        payload["workload"] = json.loads(workload_to_json(schedule.workload))
    return json.dumps(payload)


def schedule_from_json(text: str, workload: Workload | None = None) -> Schedule:
    """Inverse of :func:`schedule_to_json`.

    Start/finish times are recomputed by eager replay; a corrupted
    assignment or order therefore fails loudly instead of loading silently.
    """
    payload = _load(text, "schedule")
    if workload is None:
        if "workload" not in payload:
            raise ValueError(
                "schedule JSON has no embedded workload; pass `workload=`"
            )
        workload = workload_from_json(json.dumps(payload["workload"]))
    return Schedule.from_proc_orders(
        workload,
        np.asarray(payload["proc"], dtype=np.intp),
        [tuple(int(t) for t in order) for order in payload["orders"]],
        label=str(payload.get("label", "")),
    )


def case_result_to_payload(result: CaseResult) -> dict[str, Any]:
    """JSON-compatible dict form of a :class:`~repro.core.study.CaseResult`.

    The artifact holds the full metric panel (values + labels), the Pearson
    matrix of the random schedules, and the heuristic metric rows — enough
    to reproduce every figure rendering and aggregation bit-exactly (JSON
    floats round-trip exactly via Python's shortest-repr encoding; NaN and
    ±Infinity survive via the default ``allow_nan`` tokens).
    """
    return {
        "format": _FORMAT,
        "kind": "case_result",
        "name": result.name,
        "panel": {
            "values": result.panel.values.tolist(),
            "labels": list(result.panel.labels),
        },
        "pearson": result.pearson.tolist(),
        "heuristics": {
            name: [float(v) for v in hm.as_array()]
            for name, hm in sorted(result.heuristic_metrics.items())
        },
    }


def case_result_to_json(result: CaseResult) -> str:
    """Serialize a :class:`~repro.core.study.CaseResult` to JSON."""
    return json.dumps(case_result_to_payload(result))


def case_result_from_json(text: str) -> CaseResult:
    """Inverse of :func:`case_result_to_json`."""
    return case_result_from_payload(_load(text, "case_result"))


def case_result_from_payload(payload: dict[str, Any]) -> CaseResult:
    """Inverse of :func:`case_result_to_payload`.

    Raises :class:`ValueError`/:class:`KeyError`/:class:`TypeError` on a
    malformed payload (the cache layer treats those as misses).
    """
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _FORMAT
        or payload.get("kind") != "case_result"
    ):
        raise ValueError("not a case_result payload")
    panel_payload = payload["panel"]
    panel = MetricPanel(
        np.asarray(panel_payload["values"], dtype=float),
        tuple(str(label) for label in panel_payload["labels"]),
    )
    heuristics = payload["heuristics"]
    if not isinstance(heuristics, dict):
        raise TypeError("heuristics must map names to metric rows")
    heuristic_metrics = {
        str(name): RobustnessMetrics(**dict(zip(METRIC_NAMES, map(float, row))))
        for name, row in heuristics.items()
    }
    pearson = np.asarray(payload["pearson"], dtype=float)
    if pearson.shape != (len(METRIC_NAMES),) * 2:
        raise ValueError(
            f"pearson must be {len(METRIC_NAMES)}×{len(METRIC_NAMES)}, "
            f"got shape {pearson.shape}"
        )
    return CaseResult(
        name=str(payload["name"]),
        panel=panel,
        pearson=pearson,
        heuristic_metrics=heuristic_metrics,
    )


def _load(text: str, kind: str) -> dict:
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    if payload.get("kind") != kind:
        raise ValueError(f"expected kind={kind!r}, got {payload.get('kind')!r}")
    return payload
