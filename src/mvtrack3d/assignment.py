"""Gated maximum-affinity bipartite assignment, for one matrix or a stack.

A frame's association scores every camera at once, so `solve` takes the
stack of their matrices and settles them together. Nearly every matrix
the tracker builds has one obvious answer: each row's best cell is its
own column and beats every alternative by far. One numpy pass over the
stack finds those; only a matrix where rows contest a column, or where
some row's best is nearly tied, goes on to the lexicographic Hungarian
solve of kernels.assignment_lex, each on its own matrix.
"""

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


def solve(values, min_affinity: float = 0.0, counts=None):
    """Maximum-total partial matching using only entries above min_affinity.

    Rows and columns may stay unmatched; an unmatched pair contributes
    nothing, so entries at or below the gate are never used. Among
    maximum-total matchings the lexicographically smallest pair sequence
    is returned, which makes the result unique and reproducible. An entry
    of -inf is never matched; NaN and +inf raise ValueError.

    values (n, m) gives one Matching. A stack (K, n, m) gives a list of K
    Matchings, matrix k over its first counts[k] columns (all m when
    counts is None); the columns past them are padding and never read.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"affinity matrix must be 2D or a 3D stack, got "
                         f"shape {arr.shape}")
    stack = arr if arr.ndim == 3 else arr[None]
    k, n, m = stack.shape
    counts = [m] * k if counts is None else [int(p) for p in counts]
    real = np.arange(m) < np.array(counts, dtype=np.int64)[:, None, None]
    if not ((stack < np.inf) | ~real).all():
        raise ValueError("affinity matrix contains NaN or +inf entries")
    allowed = (stack > min_affinity) & real
    chosen, picked, unique = _unique_best(stack, allowed,
                                          real & (stack > -np.inf))
    for i in np.flatnonzero(~unique).tolist():
        p = counts[i]
        chosen[i] = kernels.assignment_lex(
            np.ascontiguousarray(stack[i, :, :p]),
            np.ascontiguousarray(allowed[i, :, :p]))
        picked[i] = np.where(chosen[i] >= 0,
                             stack[i, np.arange(n), chosen[i]], 0.0)
    matchings = [_matching(row, vals, p) for row, vals, p
                 in zip(chosen.tolist(), picked.tolist(), counts)]
    return matchings if arr.ndim == 3 else matchings[0]


def _unique_best(stack, allowed, finite):
    """Chosen column per row (-1 unmatched) of each matrix of the stack
    whose maximum-total matching is unique by a wide margin, the values
    at those cells (0 if unmatched), and the mask of those matrices; the
    others need the full solve. allowed marks the permitted cells and
    finite the real cells that are finite.

    Each row takes the best of its permitted cells and of staying
    unmatched (value 0). If those picks land on distinct columns, they
    form a maximum-total matching, and when each row's pick beats its
    runner-up by more than the margin, every other matching totals less
    by more than the margin. assignment_lex returns that matching too:
    its tie-break pass moves rows only along tight cells (reduced cost
    <= tol = 1e-9·(1 + Σ|values|)) and may leave empty only a column
    whose dual lies within tol of 0, so every matching it can reach
    totals within about 2n·tol of the optimum, and with no other
    matching that close it finds no move. Each matched value exceeds the
    margin, so its early stop, once the chosen total is within tol of
    the optimum, cannot fire before the last matched row. The margin,
    4(n+1)·tol, leaves room for rounding in the Hungarian duals.
    """
    k, n, m = stack.shape
    # columns: the m cells, staying unmatched, and a runner-up of -inf
    options = np.full((k, n, m + 2), -np.inf)
    np.copyto(options[..., :m], stack, where=allowed)
    options[..., m] = 0.0
    pick = options.argmax(axis=-1)
    top = np.sort(options, axis=-1)
    best = top[..., -1]
    scale = 1.0 + np.abs(stack).sum(axis=(1, 2), where=finite)
    margin = 4e-9 * (n + 1) * scale
    unique = (best - top[..., -2] > margin[:, None]).all(axis=1)
    # distinct picks: each unmatched row gets a negative id of its own
    ids = np.sort(np.where(pick < m, pick, -1 - np.arange(n)), axis=-1)
    unique &= (ids[:, 1:] != ids[:, :-1]).all(axis=1)
    return np.where(pick < m, pick, -1), best, unique


def _matching(chosen, picked, p) -> Matching:
    """The Matching of one matrix from its chosen column per row (-1
    unmatched), the values at those cells (0 if unmatched) and its
    column count p."""
    used = set(chosen)
    return Matching(
        pairs=tuple([(r, c) for r, c in enumerate(chosen) if c >= 0]),
        unmatched_rows=tuple([r for r, c in enumerate(chosen) if c < 0]),
        unmatched_cols=tuple([c for c in range(p) if c not in used]),
        total=float(sum(picked)))
