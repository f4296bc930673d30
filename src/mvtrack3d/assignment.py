"""Gated maximum-affinity bipartite assignment, for one matrix or a stack.

A frame's association scores every camera at once, so `solve` takes the
stack of their matrices and settles them together. Nearly every matrix
the tracker builds has one obvious answer: each row's best cell is its
own column and beats every alternative by far. One numpy pass over the
stack finds those; only a matrix where rows contest a column, or where
some row's best is nearly tied, goes on to kernels.assignment_lex, each
on its own matrix: a Hungarian solve, then forced re-solves that break
ties toward the lexicographically smallest matching. A stack's padding
columns become -inf cells, which the pass neither matches nor counts in
the tie scale. The pass is a fixed handful of numpy calls whatever the
stack's size, since at the tracker's sizes the calls cost more than the
work, and its answer is one array: each row's chosen column, -1 where
the row stays unmatched. The matched pairs are its cells >= 0, the
columns left unmatched those no row chose, and the total the sum of the
values the pairs pick.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def solve(values, min_affinity: float = 0.0, counts=None) -> np.ndarray:
    """Maximum-total partial matching using only entries above min_affinity.

    Rows and columns may stay unmatched; an unmatched pair contributes
    nothing, so entries at or below the gate are never used. Among
    maximum-total matchings the lexicographically smallest pair sequence
    is returned, which makes the result unique and reproducible. An entry
    of -inf is never matched; NaN and +inf raise ValueError.

    Returns the int64 column chosen by each row, -1 for a row left
    unmatched: (n,) for values (n, m), and (K, n) for a stack (K, n, m),
    matrix k over its first counts[k] columns (all m when counts is
    None); the columns past them are padding and never read.

    The one pass: each row takes the best of its permitted cells and of
    staying unmatched (value 0). If those picks land on distinct columns,
    they form a maximum-total matching, and when each row's pick beats
    its runner-up by more than the margin, every other matching totals
    less by more than the margin. assignment_lex returns that matching
    too: its tie-break moves a row to another column only if a solve
    with the row held there still totals within tol = 1e-9·(1 +
    Σ|values|), over the finite real cells, of the optimum. Such a solve
    finds another matching, and none comes that close, so every one
    fails. Each matched value exceeds the margin, so its early stop,
    once the chosen total is within tol of the optimum, cannot fire
    before the last matched row. The margin, 4(n+1)·tol, leaves room for
    rounding in the Hungarian solve. Any other matrix goes to
    assignment_lex.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"affinity matrix must be 2D or a 3D stack, got "
                         f"shape {arr.shape}")
    stack = arr if arr.ndim == 3 else arr[None]
    k, n, m = stack.shape
    counts = [m] * k if counts is None else [int(p) for p in counts]
    if min(counts, default=m) < m:
        # padding becomes -inf cells, which no pass matches or counts
        stack = np.where(np.arange(m) < np.array(counts)[:, None, None],
                         stack, -np.inf)
    if np.count_nonzero(stack < np.inf) < stack.size:
        raise ValueError("affinity matrix contains NaN or +inf entries")
    # columns: the m cells, staying unmatched, and a runner-up of -inf
    options = np.full((k, n, m + 2), -np.inf)
    np.copyto(options[..., :m], stack, where=stack > min_affinity)
    options[..., m] = 0.0
    picks = options.argmax(axis=-1)
    options.sort(axis=-1)
    scale = 1.0 + np.abs(stack).sum(axis=(1, 2), where=stack > -np.inf)
    tied = (options[..., -1] - options[..., -2]
            <= 4e-9 * (n + 1) * scale[:, None]).any(axis=1)
    matched = picks < m
    chosen = np.where(matched, picks, -1)
    # an unmatched row's id is its own negative number, so only two rows
    # on one column sort next to each other with equal ids
    ids = np.sort(np.where(matched, picks, -1 - np.arange(n)), axis=1)
    clashed = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
    for i in np.flatnonzero(clashed | tied).tolist():
        real = np.ascontiguousarray(stack[i, :, :counts[i]])
        chosen[i] = kernels.assignment_lex(real, real > min_affinity)
    return chosen if arr.ndim == 3 else chosen[0]
