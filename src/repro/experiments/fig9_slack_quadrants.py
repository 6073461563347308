"""Figure 9 — slack and robustness are independent axes.

The paper sketches four schedules of a join graph (N branch tasks feeding a
sink) covering every combination of {much slack, no slack} × {robust,
non-robust}, to argue that the slack metric does *not* measure robustness:

* (a) **slack-rich & robust** — every branch on its own processor; the sink
  waits for the *maximum* of many i.i.d.-ish finish times, which
  concentrates (the max of many independent variables tends to a constant),
  while all non-critical branches carry slack;
* (b) **slack-free & robust** — branches packed into a few balanced chains;
  every processor is busy until the join (no slack) and each chain is a
  *sum* whose relative dispersion shrinks by the CLT;
* (c) **slack-free & non-robust** — everything serialized on one processor:
  zero slack, and the makespan variance is the full sum of variances;
* (d) **slack-rich & non-robust** — one long serial chain plus one processor
  running a single branch: huge slack on the idle side, same variance as (c).

We build the four schedules explicitly (heterogeneous branch durations so
slack is non-degenerate), measure mean-value slack and Monte-Carlo makespan
standard deviation, and check each lands in its quadrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.montecarlo import sample_makespans
from repro.analysis.streaming import P2Quantile
from repro.campaign import ExecutionBackend, ProcessPoolBackend
from repro.core.slack import slack_analysis
from repro.dag.fork_join import join_dag
from repro.experiments.scale import Scale, get_scale
from repro.platform.platform import Platform
from repro.platform.workload import Workload
from repro.schedule.schedule import Schedule
from repro.stochastic.model import StochasticModel
from repro.util.rng import as_generator, spawn_generators
from repro.util.tables import format_table

__all__ = ["Fig9Result", "run", "build_quadrant_schedules"]


@dataclass(frozen=True)
class Fig9Result:
    """Slack, σ_M and median makespan of the four quadrant schedules."""

    labels: tuple[str, ...]
    slack_sums: tuple[float, ...]
    makespan_stds: tuple[float, ...]
    makespans: tuple[float, ...]
    makespan_medians: tuple[float, ...]

    def render(self) -> str:
        """Figure 9 as a text table."""
        header = "Fig. 9 — slack vs robustness quadrants on a join graph"
        rows = list(
            zip(
                self.labels,
                self.makespans,
                self.makespan_medians,
                self.slack_sums,
                self.makespan_stds,
            )
        )
        return header + "\n" + format_table(
            ["schedule", "E(M)", "p50(M)", "slack (sum)", "σ_M"], rows
        )

    def quadrant_check(self) -> dict[str, bool]:
        """Verify each schedule lands in its intended quadrant.

        Thresholds: the slack median splits slack-rich from slack-free, the
        σ_M median splits robust from non-robust.
        """
        slack = np.asarray(self.slack_sums)
        std = np.asarray(self.makespan_stds)
        slack_rich = slack > np.median(slack)
        robust = std < np.median(std)
        expect = {
            "a_spread": (True, True),
            "b_balanced": (False, True),
            "c_serial": (False, False),
            "d_unbalanced": (True, False),
        }
        out = {}
        for i, label in enumerate(self.labels):
            want_slack, want_robust = expect[label]
            out[label] = (bool(slack_rich[i]) == want_slack) and (
                bool(robust[i]) == want_robust
            )
        return out


def build_quadrant_schedules(
    n_branches: int = 12,
    rng: int | None | np.random.Generator = 7,
) -> tuple[Workload, dict[str, Schedule]]:
    """Build the join workload and the four quadrant schedules.

    Branch minimum durations are heterogeneous (uniform 10–20) so that
    parallel schedules have non-degenerate slack; costs are identical across
    machines (the paper's i.i.d. argument) and communication volumes are
    zero so placement only affects ordering.
    """
    gen = as_generator(rng)
    graph = join_dag(n_branches, volume=0.0, name=f"join_{n_branches}")
    n = n_branches + 1
    m = n_branches  # enough processors for the fully spread schedule
    durations = np.concatenate([gen.uniform(10.0, 20.0, n_branches), [10.0]])
    comp = np.repeat(durations[:, None], m, axis=1)
    workload = Workload(graph, Platform.uniform(m), comp)
    sink = n_branches

    def schedule_from(assignment: list[int], label: str) -> Schedule:
        proc = np.asarray(assignment + [0], dtype=np.intp)  # sink on proc 0
        orders: list[list[int]] = [[] for _ in range(m)]
        for t in range(n_branches):
            orders[proc[t]].append(t)
        orders[0].append(sink)
        return Schedule.from_proc_orders(workload, proc, orders, label=label)

    # (a) each branch on its own processor.
    spread = schedule_from(list(range(n_branches)), "a_spread")

    # (b) balanced chains on 3 processors (LPT packing).
    k = 3
    loads = [0.0] * k
    balanced_assign = [0] * n_branches
    for t in sorted(range(n_branches), key=lambda t: -durations[t]):
        p = int(np.argmin(loads))
        balanced_assign[t] = p
        loads[p] += durations[t]
    balanced = schedule_from(balanced_assign, "b_balanced")

    # (c) everything serialized on processor 0.
    serial = schedule_from([0] * n_branches, "c_serial")

    # (d) one branch alone on processor 1, the rest serialized on 0.
    unbalanced_assign = [0] * n_branches
    unbalanced_assign[int(np.argmin(durations[:n_branches]))] = 1
    unbalanced = schedule_from(unbalanced_assign, "d_unbalanced")

    return workload, {
        "a_spread": spread,
        "b_balanced": balanced,
        "c_serial": serial,
        "d_unbalanced": unbalanced,
    }


def _quadrant_stats(
    args: tuple[str, Schedule, StochasticModel, np.random.Generator, int],
) -> tuple[str, float, float, float, float]:
    """Slack, Monte-Carlo moments and median of one quadrant schedule.

    Mean and σ come from the full sample array (bit-identical to earlier
    releases); the median is estimated one observation at a time with the
    O(1)-memory :class:`~repro.analysis.streaming.P2Quantile`, the same
    reduction an out-of-core sampling loop would use.
    """
    label, schedule, model, gen, n_realizations = args
    sa = slack_analysis(schedule, model)
    samples = sample_makespans(schedule, model, gen, n_realizations=n_realizations)
    median = P2Quantile(0.5)
    for value in samples:
        median.add(float(value))
    return label, sa.slack_sum, float(samples.std()), float(samples.mean()), median.value


def run(
    scale: Scale | str | None = None,
    ul: float = 1.5,
    n_branches: int = 12,
    seed: int = 20070914,
    jobs: int = 1,
    backend: ExecutionBackend | None = None,
) -> Fig9Result:
    """Reproduce the Figure 9 quadrant study.

    A large UL (default 1.5) makes the robustness differences stark, as in
    the paper's conceptual figure.  Each quadrant schedule samples from its
    own :func:`~repro.util.rng.spawn_generators` child stream, so the
    result is identical for any ``jobs`` or execution backend (the four
    Monte-Carlo samplings fan out through a process pool of ``jobs``
    workers, or of the ``backend``'s worker count when one is given;
    fig9 is not case-shaped, so the artifact-cache machinery does not
    apply).
    """
    scale = get_scale(scale)
    model = StochasticModel(ul=ul, grid_n=scale.grid_n)
    workload, schedules = build_quadrant_schedules(n_branches, rng=seed)
    gens = spawn_generators(seed + 1, len(schedules))
    tasks = [
        (label, schedule, model, gen, scale.mc_realizations)
        for (label, schedule), gen in zip(schedules.items(), gens)
    ]
    workers = backend.workers if backend is not None else jobs
    stats = ProcessPoolBackend(workers).map(_quadrant_stats, tasks)
    labels, slacks, stds, means, medians = zip(*stats)
    return Fig9Result(
        labels=tuple(labels),
        slack_sums=tuple(slacks),
        makespan_stds=tuple(stds),
        makespans=tuple(means),
        makespan_medians=tuple(medians),
    )
