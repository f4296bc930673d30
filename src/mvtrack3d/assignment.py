"""Gated maximum-affinity bipartite assignment, for one matrix or a stack.

One rule keeps a cell out of a matching: a cell at or below the gate is
never matched and does not scale the tie tolerance, which _scales
computes for both paths below. A frame's association scores every
camera at once, so `solve` takes the stack of their matrices and
settles them together. Nearly every matrix the tracker builds has one
obvious answer: each row's best cell is its own column and beats every
alternative by far. One numpy pass over the stack finds those; only a
matrix where rows contest a column, or where some row's best is nearly
tied, goes on to assignment_lex, each on its own matrix: a Hungarian
solve (kernels.hungarian_min), then forced re-solves that break ties
toward the lexicographically smallest matching. The pass is a fixed
handful of numpy calls whatever the stack's size, since at the
tracker's sizes the calls cost more than the work, and its answer is
one array: each row's chosen column, -1 where the row stays unmatched.
The matched pairs are its cells >= 0, the columns left unmatched those
no row chose, and the total the sum of the values the pairs pick.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def _scales(stack, allowed):
    """1 + Σ|v| over the permitted cells of each matrix of a (K, n, m)
    stack: the tie tolerance of matrix k is 1e-9 times its scale."""
    return 1.0 + np.abs(stack).sum(axis=(1, 2), where=allowed)


def solve(values, min_affinity: float = 0.0) -> np.ndarray:
    """Maximum-total partial matching using only entries above min_affinity.

    Rows and columns may stay unmatched; an unmatched pair contributes
    nothing, so entries at or below the gate are never used, and they do
    not count in the tie tolerance either. Among maximum-total matchings
    the lexicographically smallest pair sequence is returned, which makes
    the result unique and reproducible. An entry of -inf lies below every
    gate; NaN and +inf raise ValueError.

    Returns the int64 column chosen by each row, -1 for a row left
    unmatched: (n,) for values (n, m), and (K, n) for a stack (K, n, m),
    each matrix solved on its own.

    The one pass: each row takes the best of its permitted cells and of
    staying unmatched (value 0). If those picks land on distinct columns,
    they form a maximum-total matching, and when each row's pick beats
    its runner-up by more than the margin, every other matching totals
    less by more than the margin. assignment_lex returns that matching
    too: its tie-break moves a row to another column only if a solve
    with the row held there still totals within tol = 1e-9·scale of the
    optimum, where scale is _scales over the permitted cells. Such a
    solve finds another matching, and none comes that close, so every
    one fails. Each matched value exceeds the margin, so its early stop,
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
    if np.count_nonzero(stack < np.inf) < stack.size:
        raise ValueError("affinity matrix contains NaN or +inf entries")
    allowed = stack > min_affinity
    # columns: the m cells, staying unmatched, and a runner-up of -inf
    options = np.full((k, n, m + 2), -np.inf)
    np.copyto(options[..., :m], stack, where=allowed)
    options[..., m] = 0.0
    picks = options.argmax(axis=-1)
    options.sort(axis=-1)
    margin = 4e-9 * (n + 1) * _scales(stack, allowed)
    tied = (options[..., -1] - options[..., -2]
            <= margin[:, None]).any(axis=1)
    matched = picks < m
    chosen = np.where(matched, picks, -1)
    # an unmatched row's id is its own negative number, so only two rows
    # on one column sort next to each other with equal ids
    ids = np.sort(np.where(matched, picks, -1 - np.arange(n)), axis=1)
    clashed = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
    for i in np.flatnonzero(clashed | tied).tolist():
        chosen[i] = assignment_lex(stack[i], allowed[i])
    return chosen if arr.ndim == 3 else chosen[0]


def assignment_lex(values, allowed):
    """Maximum-total partial matching over the permitted cells, ties
    broken toward the lexicographically smallest (row, col) pair sequence.

    Returns chosen column per row, -1 for unmatched. A cell that is not
    permitted is never matched and does not count in the tolerance,
    tol = 1e-9·scale with scale from _scales over the permitted cells;
    the tolerance is scale-relative, so value gaps far below 1e-9 of the
    matrix magnitude may tie. One Hungarian solve (kernels.hungarian_min)
    of the n x (m+n) cost gives the optimal total and its duals: -value
    on the permitted cells of the m real columns, then a dummy column per
    row, 0 on its own row (row i on column m+i stays unmatched), and the
    scale, above any total, everywhere else. Rows are then fixed in order
    until the fixed pairs reach the optimal total: row r takes the first
    permitted column below its current one, and not held by an earlier
    row, for which a solve with the earlier rows held to their columns
    and r held to it still reaches the optimum within tol, or keeps its
    column. Under the first solve's duals (v <= 0, and 0 on the columns
    it leaves empty), a matching costs the optimum plus the reduced costs
    of its cells plus -v over the columns it leaves empty, each term
    >= 0, so within tol of the optimum it uses only cells of reduced
    cost <= tol, and only those are tried.
    """
    n = values.shape[0]
    m = values.shape[1]
    chosen = np.full(n, -1, np.int64)
    if n == 0 or m == 0:
        return chosen
    scale = float(_scales(values[None], allowed[None])[0])
    tol = 1e-9 * scale
    cost = np.full((n, m + n), scale)
    np.negative(values, out=cost[:, :m], where=allowed)
    cost.ravel()[m::m + n + 1] = 0.0   # row i's dummy column m+i
    cols, u, v = kernels.hungarian_min(cost)
    rows = np.arange(n)
    optimum = cost[rows, cols].sum()
    tight = (cost[:, :m] - u[:, None] - v[None, :m] <= tol) & allowed
    col_of = cols.tolist()
    vals = values.tolist()
    target = 0.0
    for i in range(n):
        if col_of[i] < m:
            target += vals[i][col_of[i]]
    chosen_sum = 0.0
    for r in range(n):
        if abs(chosen_sum - target) <= tol:
            break
        held = col_of[:r]
        for c in np.flatnonzero(tight[r, :min(col_of[r], m)]).tolist():
            if c in held:
                continue
            forced = cost.copy()
            forced[:r + 1] = scale
            forced[rows[:r], held] = cost[rows[:r], held]
            forced[r, c] = cost[r, c]
            trial = kernels.hungarian_min(forced)[0]
            if forced[rows, trial].sum() <= optimum + tol:
                col_of = trial.tolist()
                break
        if col_of[r] < m:
            chosen[r] = col_of[r]
            chosen_sum += vals[r][col_of[r]]
    return chosen
