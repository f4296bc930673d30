"""Gated maximum-affinity bipartite assignment."""

import numpy as np
import pytest
import scipy.optimize

from mvtrack3d import kernels
from mvtrack3d.assignment import Matching, solve

from helpers import exhaustive_assignment_lex, exhaustive_assignment_total


def total_of(matching: Matching, values) -> float:
    arr = np.asarray(values, float)
    return float(sum(arr[r, c] for r, c in matching.pairs))


def test_single_cell():
    m = solve(np.array([[0.9]]))
    assert m.pairs == ((0, 0),)
    assert m.unmatched_rows == ()
    assert m.unmatched_cols == ()
    assert m.total == pytest.approx(0.9)


def test_diagonally_dominant_matrix_matches_identity():
    values = np.array([
        [0.9, 0.1, 0.1],
        [0.2, 0.8, 0.1],
        [0.1, 0.2, 0.7],
    ])
    m = solve(values)
    assert m.pairs == ((0, 0), (1, 1), (2, 2))


def test_gate_excludes_low_entries():
    values = np.array([
        [0.9, 0.0],
        [0.3, 0.05],
    ])
    m = solve(values, min_affinity=0.1)
    assert m.pairs == ((0, 0),)
    assert m.unmatched_rows == (1,)
    assert m.unmatched_cols == (1,)
    # the gate is strict: entries equal to it do not match
    m = solve(np.array([[0.1]]), min_affinity=0.1)
    assert m.pairs == ()


def test_all_entries_below_gate():
    m = solve(-np.ones((3, 4)))
    assert m.pairs == ()
    assert m.unmatched_rows == (0, 1, 2)
    assert m.unmatched_cols == (0, 1, 2, 3)
    assert m.total == 0.0


def test_empty_inputs():
    m = solve(np.zeros((0, 3)))
    assert m.pairs == ()
    assert m.unmatched_cols == (0, 1, 2)
    m = solve(np.zeros((2, 0)))
    assert m.pairs == ()
    assert m.unmatched_rows == (0, 1)


def test_input_validation():
    with pytest.raises(ValueError):
        solve(np.zeros(3))
    with pytest.raises(ValueError):
        solve(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        solve(np.array([[np.inf, 1.0], [1.0, 1.0]]))


def test_deterministic_tie_break_is_lexicographic():
    m = solve(np.ones((2, 2)))
    assert m.pairs == ((0, 0), (1, 1))
    m = solve(np.array([[0.5, 0.5]]))
    assert m.pairs == ((0, 0),)
    # two optima with equal totals: {(0,0),(1,1)} vs {(0,1),(1,0)}
    m = solve(np.array([[0.6, 0.4], [0.4, 0.6]]))
    assert m.pairs == ((0, 0), (1, 1))
    m = solve(np.array([[0.4, 0.6], [0.6, 0.4]]))
    assert m.pairs == ((0, 1), (1, 0))


def test_saturated_column_may_be_vacated_for_a_free_one():
    # every optimum covers column 0 or column 1 with row 0, and the
    # smallest sequence moves row 0 onto column 0 and row 3 off it, which
    # takes an exchange through the free columns
    values = np.array([[0.5, 1.0], [-1.0, -1.0], [-1.0, 0.75], [0.25, -1.0]])
    assert solve(values, min_affinity=-0.5).pairs == ((0, 0), (2, 1))


TALL_AND_WIDE = [(1, 8), (8, 1), (3, 8), (8, 3)]


def test_tie_break_matches_exhaustive_lexicographic_search(rng):
    # grid values, small integers and constant matrices tie often, and a
    # negative gate admits zero-valued cells that add nothing to the total
    for k in range(1500):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if k % 5 == 0:
            shape = TALL_AND_WIDE[(k // 5) % len(TALL_AND_WIDE)]
        kind = int(rng.integers(3))
        if kind == 0:
            values = rng.integers(-2, 5, shape) * 0.25
        elif kind == 1:
            values = rng.integers(0, 3, shape).astype(float)
        else:
            values = np.full(shape, float(rng.integers(-2, 5)) * 0.25)
        gate = float(rng.choice([-0.5, -0.25, 0.0, 0.25]))
        assert solve(values, min_affinity=gate).pairs == \
            exhaustive_assignment_lex(values, gate)


def test_hungarian_duals_certify_the_assignment(rng):
    # square costs and wide ones, where every row is assigned and some
    # columns stay free
    for k in range(600):
        n = int(rng.integers(1, 9))
        size = n if k % 2 == 0 else n + int(rng.integers(1, 9))
        if rng.random() < 0.5:
            cost = rng.uniform(-1.0, 1.0, (n, size))
        else:
            cost = rng.integers(-2, 3, (n, size)).astype(float)
        scale = 1.0 + float(np.abs(cost).sum())
        cost[rng.random((n, size)) < 0.3] = scale
        tol = 1e-9 * scale
        col, u, v = kernels.hungarian_min(cost)
        assert len(set(col.tolist())) == n
        assert set(col.tolist()) <= set(range(size))
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -tol
        assert np.abs(reduced[np.arange(n), col]).max() <= tol
        free = np.setdiff1d(np.arange(size), col)
        assert np.all(v[free] == 0.0)
        ri, ci = scipy.optimize.linear_sum_assignment(cost)
        assert cost[np.arange(n), col].sum() == \
            pytest.approx(cost[ri, ci].sum(), abs=tol)


def test_matching_structure_and_gate_soundness(rng):
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        values = rng.uniform(-1.0, 1.0, size=(rows, cols))
        gate = float(rng.uniform(-0.5, 0.5))
        m = solve(values, min_affinity=gate)
        seen_r = [r for r, _ in m.pairs]
        seen_c = [c for _, c in m.pairs]
        assert len(set(seen_r)) == len(seen_r)
        assert len(set(seen_c)) == len(seen_c)
        assert sorted(seen_r + list(m.unmatched_rows)) == list(range(rows))
        assert sorted(seen_c + list(m.unmatched_cols)) == list(range(cols))
        for r, c in m.pairs:
            assert values[r, c] > gate
        assert m.total == pytest.approx(total_of(m, values), abs=1e-12)
        for r, c in m.pairs:
            assert dict(m.pairs).get(r) == c


def test_total_equals_exhaustive_search(rng):
    for _ in range(2000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        values = rng.uniform(-1.0, 1.0, size=(rows, cols))
        m = solve(values)
        expected = exhaustive_assignment_total(values, gate=0.0)
        assert m.total == pytest.approx(expected, abs=1e-9)


def test_total_matches_scipy_on_dense_positive_matrices(rng):
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        values = rng.uniform(0.1, 1.0, size=(rows, cols))
        m = solve(values)
        ri, ci = scipy.optimize.linear_sum_assignment(values, maximize=True)
        assert m.total == pytest.approx(float(values[ri, ci].sum()), abs=1e-9)
        assert len(m.pairs) == min(rows, cols)


def test_positive_scaling_preserves_matching(rng):
    for _ in range(100):
        values = rng.uniform(-1.0, 1.0, size=(4, 5))
        base = solve(values)
        scaled = solve(values * 17.3)
        assert base.pairs == scaled.pairs
