"""Gated maximum-affinity bipartite assignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class Matching:
    """Result of one assignment: matched (row, col) pairs sorted by row,
    plus the rows and columns left unmatched, and the affinity total."""

    pairs: tuple
    unmatched_rows: tuple
    unmatched_cols: tuple
    total: float


def solve(values, min_affinity: float = 0.0) -> Matching:
    """Maximum-total partial matching using only entries above min_affinity.

    Rows and columns may stay unmatched; an unmatched pair contributes
    nothing, so entries at or below the gate are never used. Among
    maximum-total matchings the lexicographically smallest pair sequence
    is returned, which makes the result unique and reproducible.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"affinity matrix must be 2D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("affinity matrix contains non-finite entries")
    n, m = arr.shape
    allowed = np.ascontiguousarray(arr > min_affinity)
    chosen = kernels.assignment_lex(arr, allowed).tolist()
    pairs = tuple((r, c) for r, c in enumerate(chosen) if c >= 0)
    used_cols = {c for _, c in pairs}
    unmatched_rows = tuple(r for r, c in enumerate(chosen) if c < 0)
    unmatched_cols = tuple(c for c in range(m) if c not in used_cols)
    total = float(sum(arr[r, c] for r, c in pairs))
    return Matching(pairs=pairs, unmatched_rows=unmatched_rows,
                    unmatched_cols=unmatched_cols, total=total)
