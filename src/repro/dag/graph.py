"""The :class:`TaskGraph` container.

Tasks are integers ``0 … n−1``; edges carry a non-negative communication
*volume* (data elements; the time cost additionally depends on the platform's
rate matrix τ and latency matrix L, see :mod:`repro.platform`).

The container is cheap to build incrementally (builders call
:meth:`TaskGraph.add_edge`) and freezes lazily: the first structural query
caches predecessor/successor lists and a topological order, and any later
mutation invalidates the caches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TaskGraph"]


class TaskGraph:
    """Directed acyclic task graph with communication volumes.

    Parameters
    ----------
    n_tasks:
        Number of tasks; tasks are identified by ``0 … n_tasks−1``.
    edges:
        Optional iterable of ``(u, v, volume)`` triples.
    name:
        Human-readable label used in reports (e.g. ``"cholesky_b5"``).
    """

    def __init__(
        self,
        n_tasks: int,
        edges: Iterable[tuple[int, int, float]] = (),
        name: str = "",
    ):
        if n_tasks <= 0:
            raise ValueError(f"a task graph needs at least one task, got {n_tasks}")
        self.name = name
        self._n = int(n_tasks)
        self._volumes: dict[tuple[int, int], float] = {}
        self._preds: tuple[tuple[int, ...], ...] | None = None
        self._succs: tuple[tuple[int, ...], ...] | None = None
        self._topo: np.ndarray | None = None
        self._csr = None
        for u, v, volume in edges:
            self.add_edge(u, v, volume)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int, volume: float = 0.0) -> None:
        """Add (or overwrite) the dependency ``u → v`` with ``volume``."""
        self._check_task(u)
        self._check_task(v)
        if u == v:
            raise ValueError(f"self-dependency on task {u}")
        if volume < 0:
            raise ValueError(f"negative communication volume on ({u}, {v})")
        self._volumes[(u, v)] = float(volume)
        self._invalidate()

    def _check_task(self, t: int) -> None:
        if not 0 <= t < self._n:
            raise ValueError(f"task {t} out of range [0, {self._n})")

    def _invalidate(self) -> None:
        self._preds = None
        self._succs = None
        self._topo = None
        self._csr = None

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return len(self._volumes)

    def volume(self, u: int, v: int) -> float:
        """Communication volume of edge ``u → v`` (KeyError if absent)."""
        return self._volumes[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the dependency ``u → v`` exists."""
        return (u, v) in self._volumes

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, volume)`` triples."""
        for (u, v), vol in self._volumes.items():
            yield u, v, vol

    def _build_adjacency(self) -> None:
        preds: list[list[int]] = [[] for _ in range(self._n)]
        succs: list[list[int]] = [[] for _ in range(self._n)]
        for u, v in self._volumes:
            preds[v].append(u)
            succs[u].append(v)
        self._preds = tuple(tuple(sorted(p)) for p in preds)
        self._succs = tuple(tuple(sorted(s)) for s in succs)

    def predecessors(self, v: int) -> tuple[int, ...]:
        """Direct predecessors of ``v``."""
        if self._preds is None:
            self._build_adjacency()
        return self._preds[v]  # type: ignore[index]

    def successors(self, v: int) -> tuple[int, ...]:
        """Direct successors of ``v``."""
        if self._succs is None:
            self._build_adjacency()
        return self._succs[v]  # type: ignore[index]

    def entry_tasks(self) -> tuple[int, ...]:
        """Tasks with no predecessor."""
        return tuple(v for v in range(self._n) if not self.predecessors(v))

    def exit_tasks(self) -> tuple[int, ...]:
        """Tasks with no successor."""
        return tuple(v for v in range(self._n) if not self.successors(v))

    def topological_order(self) -> np.ndarray:
        """A topological order of the tasks (cached; Kahn's algorithm).

        Raises
        ------
        ValueError
            If the graph contains a cycle.
        """
        if self._topo is None:
            indeg = np.zeros(self._n, dtype=int)
            for _, v in self._volumes:
                indeg[v] += 1
            stack = [v for v in range(self._n) if indeg[v] == 0]
            order: list[int] = []
            while stack:
                v = stack.pop()
                order.append(v)
                for s in self.successors(v):
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        stack.append(s)
            if len(order) != self._n:
                raise ValueError("task graph contains a cycle")
            self._topo = np.asarray(order, dtype=np.intp)
        return self._topo

    def csr(self):
        """Flat CSR adjacency + level decomposition (cached).

        Returns the :class:`~repro.dag._csr.GraphCSR` the rank computations
        and the vectorized scheduler core consume; invalidated on mutation
        like the other structure caches.
        """
        if self._csr is None:
            from repro.dag._csr import GraphCSR

            self._csr = GraphCSR.build(
                self._n, [(u, v, vol) for (u, v), vol in self._volumes.items()]
            )
        return self._csr

    def validate(self) -> None:
        """Check acyclicity and volume sanity (raises ValueError on failure)."""
        self.topological_order()
        for (u, v), vol in self._volumes.items():
            if not np.isfinite(vol) or vol < 0:
                raise ValueError(f"invalid volume {vol!r} on edge ({u}, {v})")

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def as_networkx(self) -> nx.DiGraph:
        """Copy as a :class:`networkx.DiGraph` with ``volume`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(range(self._n))
        for (u, v), vol in self._volumes.items():
            g.add_edge(u, v, volume=vol)
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, name: str | None = None) -> "TaskGraph":
        """Build from a :class:`networkx.DiGraph` with integer nodes 0…n−1.

        Missing ``volume`` attributes default to 0.
        """
        n = g.number_of_nodes()
        if sorted(g.nodes) != list(range(n)):
            raise ValueError("nodes must be integers 0 … n−1 (use relabeling first)")
        graph = cls(n, name=name if name is not None else str(g.name or ""))
        for u, v, data in g.edges(data=True):
            graph.add_edge(u, v, float(data.get("volume", 0.0)))
        graph.validate()
        return graph

    def reversed(self) -> "TaskGraph":
        """Graph with all edges flipped (used by bottom-level computations)."""
        out = TaskGraph(self._n, name=self.name + "_rev" if self.name else "")
        for (u, v), vol in self._volumes.items():
            out.add_edge(v, u, vol)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"TaskGraph({label} n={self._n}, edges={self.n_edges})"
