"""Figures 3–5 — the per-case metric-correlation panels.

Each figure is one case: thousands of random schedules plus the three
heuristics (HEFT, BIL, Hyb.BMCT), all eight metrics per schedule, rendered
as an 8×8 Pearson matrix (the paper's upper triangle) plus the heuristics'
metric rows (the highlighted points of the paper's scatter plots):

* Figure 3 — Cholesky, 10 tasks, 3 processors, UL = 1.01;
* Figure 4 — random graph, 30 tasks, 8 processors, UL = 1.01;
* Figure 5 — Gaussian elimination, ≈103 tasks, 16 processors, UL = 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import (
    ArtifactCache, Campaign, CampaignCase, ExecutionBackend, case_contribution,
)
from repro.core.study import CaseResult
from repro.experiments.cases import CaseSpec
from repro.experiments.scale import Scale, get_scale
from repro.util.tables import format_matrix
from repro.core.metrics import METRIC_NAMES

__all__ = ["PanelResult", "run_fig3", "run_fig4", "run_fig5", "run_panel"]

FIG3_SPEC = CaseSpec("cholesky", 3, 1.01)
FIG4_SPEC = CaseSpec("random", 30, 1.01)
FIG5_SPEC = CaseSpec("ge", 14, 1.1)


@dataclass(frozen=True)
class PanelResult:
    """One panel: case result + the derived §VII correlation."""

    figure: str
    spec: CaseSpec
    case: CaseResult
    rel_prob_over_m_vs_std: float

    def render(self) -> str:
        """Pearson matrix + heuristic rows, as text."""
        lines = [
            f"{self.figure} — {self.spec.name}: "
            f"{self.case.panel.n_schedules - len(self.case.heuristic_metrics)} random schedules "
            f"+ {sorted(self.case.heuristic_metrics)}",
            "",
            "Pearson coefficients (oriented metrics, random schedules):",
            format_matrix(self.case.pearson, list(METRIC_NAMES)),
            "",
            f"corr( R(γ)/E(M), σ_M ) = {self.rel_prob_over_m_vs_std:+.3f}   (paper §VII: ≈ ±0.998)",
            "",
            "Heuristic rows (raw metric values):",
            self.case.panel.rows_table(only_labeled=True),
        ]
        return "\n".join(lines)


def run_panel(
    figure: str,
    spec: CaseSpec,
    scale: Scale | str | None = None,
    seed: int = 20070912,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    force: bool = False,
    backend: ExecutionBackend | None = None,
    fast_conv: bool = False,
) -> PanelResult:
    """Evaluate one panel case at the given scale.

    The case runs through the campaign layer on any execution backend:
    with ``cache`` set, a previously computed artifact for the same
    spec/scale/seed is reused instead of recomputing (``force``
    overrides).  ``fast_conv`` opts into the fast precision policy (its
    artifact hashes to a different key, so caches never collide).
    """
    scale = get_scale(scale)
    campaign_case = CampaignCase(
        spec=spec,
        base_seed=seed,
        n_random=scale.n_random(spec.n_tasks),
        grid_n=scale.grid_n,
        fast_conv=fast_conv,
    )
    campaign = Campaign(
        (campaign_case,), jobs=jobs, cache=cache, force=force, backend=backend
    )
    case = campaign.run()[0]
    return PanelResult(
        figure=figure,
        spec=spec,
        case=case,
        # §VII: R(γ)/E(M) against σ_M over the random schedules only.
        rel_prob_over_m_vs_std=case_contribution(0, campaign_case, case).rel_corr,
    )


def run_fig3(
    scale: Scale | str | None = None, seed: int = 20070912, **campaign_opts
) -> PanelResult:
    """Figure 3 panel (Cholesky 10 tasks / 3 procs / UL 1.01)."""
    return run_panel("Fig. 3", FIG3_SPEC, scale, seed, **campaign_opts)


def run_fig4(
    scale: Scale | str | None = None, seed: int = 20070912, **campaign_opts
) -> PanelResult:
    """Figure 4 panel (random 30 tasks / 8 procs / UL 1.01)."""
    return run_panel("Fig. 4", FIG4_SPEC, scale, seed, **campaign_opts)


def run_fig5(
    scale: Scale | str | None = None, seed: int = 20070912, **campaign_opts
) -> PanelResult:
    """Figure 5 panel (Gaussian elimination ≈103 tasks / 16 procs / UL 1.1)."""
    return run_panel("Fig. 5", FIG5_SPEC, scale, seed, **campaign_opts)
