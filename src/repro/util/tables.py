"""Plain-text rendering of result tables and matrices.

The experiment harness reports everything as monospace text (the paper's
figures are scatter matrices and log plots; we report the underlying numbers
as tables so two runs can be diffed).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_table", "format_matrix"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = "{:.4g}",
) -> str:
    """Render ``rows`` as an aligned monospace table with ``headers``."""
    rendered: list[list[str]] = [list(map(str, headers))]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float) or isinstance(cell, np.floating):
                cells.append(float_fmt.format(float(cell)))
            else:
                cells.append(str(cell))
        rendered.append(cells)
    n_cols = max(len(r) for r in rendered)
    widths = [0] * n_cols
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    for i, row in enumerate(rendered):
        line = "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
        lines.append(line)
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(row))))
    return "\n".join(lines)


def format_matrix(
    matrix: np.ndarray,
    labels: Sequence[str],
    float_fmt: str = "{:+.3f}",
    lower: np.ndarray | None = None,
) -> str:
    """Render a square matrix with row/column ``labels``.

    When ``lower`` is given, the strict lower triangle of the output shows
    ``lower`` instead of ``matrix`` — this mirrors the paper's Figure 6 where
    the upper triangle holds mean Pearson coefficients and the lower triangle
    their standard deviations.
    """
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[0]
    if matrix.shape != (k, k):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    if len(labels) != k:
        raise ValueError("labels length must match matrix size")
    headers = [""] + list(labels)
    rows = []
    for i in range(k):
        row: list[object] = [labels[i]]
        for j in range(k):
            value = matrix[i, j]
            if lower is not None and i > j:
                value = lower[i, j]
            if i == j:
                row.append("·")
            else:
                row.append(float_fmt.format(float(value)))
        rows.append(row)
    return format_table(headers, rows)
