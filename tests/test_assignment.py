"""Gated maximum-affinity bipartite assignment."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

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
    # -inf lies below every gate, so it is never matched
    m = solve(np.array([[-np.inf, 1.0], [2.0, -np.inf]]), min_affinity=-np.inf)
    assert m.pairs == ((0, 1), (1, 0))
    assert m.total == 3.0


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


# -- a frame's stack of matrices ------------------------------------------


@st.composite
def _stacks(draw):
    """A (K, T, P) stack, the real column count of each matrix, a gate and
    whether the stack must raise. Grid values tie often. An "obvious"
    stack, as the tracker's scores are, lifts one distinct cell in each
    of min(T, P) rows and permits no cell in the other rows. A nudge then
    sets, in an obvious stack, one lifted row's runner-up, or its best
    against staying unmatched, a multiple of that matrix's tol below
    the best: an exact tie, half a tol, or just under or just over the
    margin 4(n+1)·tol of the one-pass test. The runner-up sits left of
    the best where it can, where the tie-break would move the row, and
    the unmatched nudge goes to the last lifted row, where the
    tie-break's early stop would drop it."""
    k = draw(st.integers(1, 3))
    t = draw(st.integers(0, 5))
    p_max = draw(st.integers(0, 5))
    counts = draw(st.lists(st.integers(0, p_max), min_size=k, max_size=k))
    gate = draw(st.sampled_from([-0.5, -0.25, 0.0, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(-2, 5, (k, t, p_max)) * 0.25
    nudge = draw(st.sampled_from(["none", "runner-up", "unmatched"]))
    obvious = nudge != "none" or draw(st.booleans())
    lifted = []
    for i in range(k):
        p = counts[i]
        if obvious:
            rows = np.sort(rng.permutation(t)[:p])
            values[i, np.setdiff1d(np.arange(t), rows), :p] = min(gate, 0.0)
            values[i, rows, rng.permutation(p)[:len(rows)]] += 2.0
            lifted += [(i, int(r)) for r in rows]
        # the padding holds values that would change every answer if read
        values[i, :, p:] = 9.0
    if lifted and nudge != "none":
        i, r = (lifted[draw(st.integers(0, len(lifted) - 1))]
                if nudge == "runner-up" else lifted[-1])
        p = counts[i]
        factor = draw(st.sampled_from(
            [0.0, 0.5, 4 * (t + 1) * (1 - 1e-3), 4 * (t + 1) * (1 + 1e-3)]))
        tol = 1e-9 * (1.0 + np.abs(values[i, :, :p]).sum())
        best = int(values[i, r, :p].argmax())
        if nudge == "runner-up" and p >= 2:
            other = int(rng.integers(best)) if best else 1
            values[i, r, other] = values[i, r, best] - factor * tol
        else:
            values[i, r, :p] = min(gate, 0.0)
            values[i, r, best] = factor * tol
    cells = [i for i in range(k) if counts[i]]
    bad = draw(st.booleans()) and t > 0 and bool(cells)
    if bad:
        i = cells[draw(st.integers(0, len(cells) - 1))]
        values[i, draw(st.integers(0, t - 1)),
               draw(st.integers(0, counts[i] - 1))] = np.nan
    return values, counts, gate, bad


@settings(max_examples=400, deadline=None)
@given(case=_stacks())
def test_stack_matches_the_full_solve_of_each_matrix(case):
    values, counts, gate, bad = case
    if bad:
        with pytest.raises(ValueError):
            solve(values, gate, counts)
        return
    matchings = solve(values, gate, counts)
    assert len(matchings) == len(counts)
    for i, (m, p) in enumerate(zip(matchings, counts)):
        real = np.ascontiguousarray(values[i, :, :p])
        chosen = kernels.assignment_lex(real, real > gate).tolist()
        assert m.pairs == tuple((r, c) for r, c in enumerate(chosen) if c >= 0)
        assert m.unmatched_rows == tuple(r for r, c in enumerate(chosen)
                                         if c < 0)
        assert m.unmatched_cols == tuple(c for c in range(p)
                                         if c not in chosen)
        assert m.total == solve(real, gate).total
        if np.all(real == np.round(real * 4) / 4):
            # no nudge: every gap is a multiple of 0.25 or an exact tie
            assert m.pairs == exhaustive_assignment_lex(real, gate)


def test_tied_matrix_of_a_stack_takes_the_full_solve(monkeypatch):
    calls = []
    hungarian = kernels.hungarian_min

    def counted(cost):
        calls.append(cost.shape)
        return hungarian(cost)

    monkeypatch.setattr(kernels, "hungarian_min", counted)
    # matrix 0 has one obvious answer; in matrix 1 both rows tie on both
    # real columns, and its padded third column is never read
    values = np.array([
        [[0.9, 0.1, 0.0], [0.1, 0.8, 0.2]],
        [[0.5, 0.5, 9.0], [0.5, 0.5, 9.0]],
    ])
    first, second = solve(values, 0.0, [3, 2])
    assert first.pairs == ((0, 0), (1, 1))
    assert first.unmatched_cols == (2,)
    assert second.pairs == ((0, 0), (1, 1))
    assert second.unmatched_cols == ()
    assert second.total == 1.0
    assert calls == [(2, 4)]   # matrix 1 alone, its 2 real columns + 2 dummies
