"""The benchmark's inputs: case-set expressions and the serve request mix.

Every input is a pure function of the workload seed.  The program only
ever sees the generated expressions and queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: The fig-6 suite's base seed, and the seed the golden manifest covers.
SUITE_SEED = 20070913

#: The four quick-suite random_n100_m16 graphs (both ULs, instances 0-1).
_DENSE_GRAPHS = "graph[rand100] x ul[1.01,1.1] x seed[0-1]"


def serve_warm_expr() -> str:
    """The serve warm set: the 12 fixed-structure quick cases, suite seed."""
    return f"graph[chol10,chol35,chol84,ge9,ge27,ge90] x ul[1.01,1.1] x base_seed[{SUITE_SEED}]"


def dense_expr(seed: int) -> str:
    """The four random_n100_m16 graphs, each with a 2-random + HEFT panel.

    A full quick-suite random_n100 case takes 12-20 s, so one of them per
    run would measure the graph more than the program.  A short panel
    keeps the same grid-walk regime (~1 s per schedule walk) and averages
    over four graphs in a pass of about 10 s.
    """
    return f"{_DENSE_GRAPHS} x n_random[2] x heuristic[heft] x base_seed[{seed}]"


def dense_approx_expr(seed: int) -> str:
    """``dense``'s four graphs under the fast policy, 4 random + 3 heuristics.

    Seven schedules give each Pearson matrix enough points to mean
    something (``pearson_err``) in a pass of about 6 s.
    """
    return f"{_DENSE_GRAPHS} x n_random[4] x fast_conv[1] x base_seed[{seed}]"


def exact_twin_expr(seed: int) -> str:
    """``dense_approx_expr`` under the exact policy (pearson_err's oracle)."""
    return f"{_DENSE_GRAPHS} x n_random[4] x base_seed[{seed}]"


#: Campaign workload name → expression builder.
CAMPAIGN_EXPRS = {
    "dense": dense_expr,
    "dense-approx": dense_approx_expr,
}

# ---------------------------------------------------------------------- #
# the serve mix
# ---------------------------------------------------------------------- #

#: Requests per mix block, and how many of them are sweeps and misses.
BLOCK = 200
SWEEPS_PER_BLOCK = 4
MISSES_PER_BLOCK = 1

#: Miss cases: Cholesky b=5 (35 tasks, 50 random schedules, ~0.6 s of
#: compute), so the fleet's 0.05 s idle scan and the 0.01 s artifact poll
#: stay a small share of miss latency.
MISS_GRAPH = ("cholesky", 5, 1.1)
#: Warm-up misses that prove the fleet is live during set-up (cheaper).
WARMUP_GRAPH = ("cholesky", 3, 1.1)


def cold_base_seed(seed: int, k: int, warmup: bool = False) -> int:
    """A base seed no other request of this run (nor the warm set) uses."""
    return SUITE_SEED + 1 + seed * 10_000 + (9_000 if warmup else 0) + k


def query(kind: str, param: int, ul: float, instance: int = 0,
          base_seed: int = SUITE_SEED) -> dict[str, str]:
    """The ``/case`` query parameters naming one quick-scale case."""
    return {
        "kind": kind,
        "param": str(param),
        "ul": repr(ul),
        "instance": str(instance),
        "base_seed": str(base_seed),
    }


@dataclass(frozen=True)
class Op:
    """One request of the mix: ``kind`` is hit, sweep or miss."""

    kind: str
    params: dict[str, str]


def serve_blocks(
    seed: int, warm: list[dict[str, str]], sweep_expr: str
) -> Iterator[list[Op]]:
    """Endless seeded blocks of ``BLOCK`` requests with a fixed composition.

    Every block holds the same number of hits, sweeps and misses, in a
    seeded order; hits pick a warm case uniformly, and each miss names a
    fresh case no earlier request touched.
    """
    rng = random.Random(seed)
    misses = 0
    while True:
        kinds = (
            ["miss"] * MISSES_PER_BLOCK
            + ["sweep"] * SWEEPS_PER_BLOCK
            + ["hit"] * (BLOCK - MISSES_PER_BLOCK - SWEEPS_PER_BLOCK)
        )
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            if kind == "hit":
                block.append(Op("hit", rng.choice(warm)))
            elif kind == "sweep":
                block.append(Op("sweep", {"expr": sweep_expr, "format": "ndjson"}))
            else:
                kind_, param, ul = MISS_GRAPH
                block.append(
                    Op("miss", query(kind_, param, ul, base_seed=cold_base_seed(seed, misses)))
                )
                misses += 1
        yield block
