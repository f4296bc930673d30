"""Gated maximum-affinity bipartite assignment."""

import sys
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from mvtrack3d import assignment, kernels
from mvtrack3d.assignment import solve

from helpers import (
    exhaustive_assignment_lex,
    exhaustive_assignment_total,
    reference_solve,
)


def pairs(chosen) -> tuple:
    """The matched (row, col) pairs of solve's answer, sorted by row:
    the cells that hold a column."""
    (rows,) = np.nonzero(chosen >= 0)
    return tuple(zip(rows.tolist(), chosen[rows].tolist()))


def unmatched_rows(chosen) -> tuple:
    return tuple(np.flatnonzero(chosen < 0).tolist())


def unmatched_cols(chosen, m: int) -> tuple:
    """The columns of an m-column matrix that no row chose."""
    return tuple(c for c in range(m) if c not in chosen.tolist())


def total_of(chosen, values) -> float:
    """The sum of the values the matched pairs pick, in row order."""
    arr = np.asarray(values, float)
    return float(sum(arr[r, c] for r, c in pairs(chosen)))


def test_single_cell():
    m = solve(np.array([[0.9]]))
    assert m.dtype == np.int64 and m.shape == (1,)
    assert pairs(m) == ((0, 0),)
    assert unmatched_rows(m) == ()
    assert unmatched_cols(m, 1) == ()
    assert total_of(m, [[0.9]]) == pytest.approx(0.9)


def test_diagonally_dominant_matrix_matches_identity():
    values = np.array([
        [0.9, 0.1, 0.1],
        [0.2, 0.8, 0.1],
        [0.1, 0.2, 0.7],
    ])
    m = solve(values)
    assert pairs(m) == ((0, 0), (1, 1), (2, 2))


def test_gate_excludes_low_entries():
    values = np.array([
        [0.9, 0.0],
        [0.3, 0.05],
    ])
    m = solve(values, min_affinity=0.1)
    assert pairs(m) == ((0, 0),)
    assert unmatched_rows(m) == (1,)
    assert unmatched_cols(m, 2) == (1,)
    # the gate is strict: entries equal to it do not match
    m = solve(np.array([[0.1]]), min_affinity=0.1)
    assert pairs(m) == ()


def test_all_entries_below_gate():
    values = -np.ones((3, 4))
    m = solve(values)
    assert pairs(m) == ()
    assert unmatched_rows(m) == (0, 1, 2)
    assert unmatched_cols(m, 4) == (0, 1, 2, 3)
    assert total_of(m, values) == 0.0


def test_empty_inputs():
    m = solve(np.zeros((0, 3)))
    assert m.shape == (0,)
    assert pairs(m) == ()
    assert unmatched_cols(m, 3) == (0, 1, 2)
    m = solve(np.zeros((2, 0)))
    assert pairs(m) == ()
    assert unmatched_rows(m) == (0, 1)


def test_input_validation():
    with pytest.raises(ValueError):
        solve(np.zeros(3))
    with pytest.raises(ValueError):
        solve(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        solve(np.array([[np.inf, 1.0], [1.0, 1.0]]))
    # -inf lies below every gate, so it is never matched
    values = np.array([[-np.inf, 1.0], [2.0, -np.inf]])
    m = solve(values, min_affinity=-np.inf)
    assert pairs(m) == ((0, 1), (1, 0))
    assert total_of(m, values) == 3.0


def test_deterministic_tie_break_is_lexicographic():
    m = solve(np.ones((2, 2)))
    assert pairs(m) == ((0, 0), (1, 1))
    m = solve(np.array([[0.5, 0.5]]))
    assert pairs(m) == ((0, 0),)
    # two optima with equal totals: {(0,0),(1,1)} vs {(0,1),(1,0)}
    m = solve(np.array([[0.6, 0.4], [0.4, 0.6]]))
    assert pairs(m) == ((0, 0), (1, 1))
    m = solve(np.array([[0.4, 0.6], [0.6, 0.4]]))
    assert pairs(m) == ((0, 1), (1, 0))


def test_saturated_column_may_be_vacated_for_a_free_one():
    # every optimum covers column 0 or column 1 with row 0, and the
    # smallest sequence moves row 0 onto column 0 and row 3 off it, onto
    # its dummy column, while row 2 takes column 1
    values = np.array([[0.5, 1.0], [-1.0, -1.0], [-1.0, 0.75], [0.25, -1.0]])
    assert pairs(solve(values, min_affinity=-0.5)) == ((0, 0), (2, 1))


def test_every_solve_goes_through_the_module_hungarian(monkeypatch):
    # the first solve puts row 0 on column 1, so the tie-break solves again
    # with row 0 held to column 0; a profiler counts every run of the
    # solver's code, however it is reached, and the wrapper must see each
    values = np.array([[0.5, 1.0], [-1.0, -1.0], [-1.0, 0.75], [0.25, -1.0]])
    hungarian = kernels.hungarian_min
    seen = []
    ran = []

    def recorded(cost):
        seen.append(cost.shape)
        return hungarian(cost)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is hungarian.__code__:
            ran.append(event)

    monkeypatch.setattr(kernels, "hungarian_min", recorded)
    sys.setprofile(profile)
    try:
        chosen = solve(values, min_affinity=-0.5)
    finally:
        sys.setprofile(None)
    assert pairs(chosen) == ((0, 0), (2, 1))
    assert len(seen) >= 2
    assert len(ran) == len(seen)
    assert seen == [(4, 2 + 4)] * len(seen)


def test_refused_cells_do_not_widen_the_tie_tolerance():
    # a large refused cell must neither enter the tolerance nor let the
    # tie-break's early stop drop a real match: summed over every finite
    # cell, the tolerance exceeds the gaps here and the answers read
    # [-1] and [0, -1]
    for values, want in [
        ([[0.999, 1.0, -1e9]], [1]),
        ([[0.5, 0.999, 1.0], [0.2, -1e9, 0.1]], [2, 0]),
    ]:
        chosen = solve(values)
        assert chosen.tolist() == want
        assert total_of(chosen, values) == exhaustive_assignment_total(values)


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
        assert pairs(solve(values, min_affinity=gate)) == \
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
        assert m.dtype == np.int64 and m.shape == (rows,)
        assert ((m >= -1) & (m < cols)).all()
        seen_r = [r for r, _ in pairs(m)]
        seen_c = [c for _, c in pairs(m)]
        assert len(set(seen_r)) == len(seen_r)
        assert len(set(seen_c)) == len(seen_c)
        assert sorted(seen_r + list(unmatched_rows(m))) == list(range(rows))
        assert sorted(seen_c + list(unmatched_cols(m, cols))) == \
            list(range(cols))
        for r, c in pairs(m):
            assert values[r, c] > gate


def test_total_equals_exhaustive_search(rng):
    for _ in range(2000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        values = rng.uniform(-1.0, 1.0, size=(rows, cols))
        m = solve(values)
        expected = exhaustive_assignment_total(values, gate=0.0)
        assert total_of(m, values) == pytest.approx(expected, abs=1e-9)


def test_total_matches_scipy_on_dense_positive_matrices(rng):
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        values = rng.uniform(0.1, 1.0, size=(rows, cols))
        m = solve(values)
        ri, ci = scipy.optimize.linear_sum_assignment(values, maximize=True)
        assert total_of(m, values) == pytest.approx(
            float(values[ri, ci].sum()), abs=1e-9)
        assert len(pairs(m)) == min(rows, cols)


def test_positive_scaling_preserves_matching(rng):
    for _ in range(100):
        values = rng.uniform(-1.0, 1.0, size=(4, 5))
        base = solve(values)
        scaled = solve(values * 17.3)
        assert np.array_equal(base, scaled)


# -- a frame's stack of matrices ------------------------------------------


@st.composite
def _stacks(draw):
    """A (K, T, P) stack, the real column count of each matrix, a gate and
    whether the stack must raise. Each matrix past its real columns is
    padded with -inf cells, which lie below every gate. Grid values tie
    often. An "obvious" stack, as the tracker's scores are, lifts one
    distinct cell in each of min(T, P) rows and permits no cell in the
    other rows. A nudge then sets, in an obvious stack, one lifted row's
    runner-up, or its best against staying unmatched, a multiple of that
    matrix's tol below the best: an exact tie, half a tol, or just under
    or just over the margin 4(n+1)·tol of the one-pass test, where tol
    is 1e-9·(1 + Σ|v|) over the permitted cells as they stand after the
    nudge. The runner-up sits left of the best where it can, where the
    tie-break would move the row, and the unmatched nudge goes to the
    last lifted row, where the tie-break's early stop would drop it."""
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
        values[i, :, p:] = -np.inf
    if lifted and nudge != "none":
        i, r = (lifted[draw(st.integers(0, len(lifted) - 1))]
                if nudge == "runner-up" else lifted[-1])
        p = counts[i]
        factor = draw(st.sampled_from(
            [0.0, 0.5, 4 * (t + 1) * (1 - 1e-3), 4 * (t + 1) * (1 + 1e-3)]))
        real = values[i, :, :p]
        best = int(real[r].argmax())
        # tol counts the nudged cell at its final value up to factor·tol,
        # far inside the 1e-3 that separates a factor from the margin
        if nudge == "runner-up" and p >= 2:
            other = int(rng.integers(best)) if best else 1
            real[r, other] = real[r, best]
            tol = 1e-9 * (1.0 + np.abs(real[real > gate]).sum())
            real[r, other] = real[r, best] - factor * tol
        else:
            real[r] = min(gate, 0.0)
            tol = 1e-9 * (1.0 + np.abs(real[real > gate]).sum())
            real[r, best] = factor * tol
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
            solve(values, gate)
        return
    matchings = solve(values, gate)
    assert matchings.dtype == np.int64
    assert matchings.shape == values.shape[:2]
    for i, (m, p) in enumerate(zip(matchings, counts)):
        real = np.ascontiguousarray(values[i, :, :p])
        chosen = assignment.assignment_lex(real, real > gate).tolist()
        assert pairs(m) == tuple((r, c) for r, c in enumerate(chosen)
                                 if c >= 0)
        assert unmatched_rows(m) == tuple(r for r, c in enumerate(chosen)
                                          if c < 0)
        assert unmatched_cols(m, p) == tuple(c for c in range(p)
                                             if c not in chosen)
        # a padded matrix solves as its real part alone does
        alone = solve(real, gate)
        assert np.array_equal(m, alone)
        assert np.array_equal(solve(values[i], gate), alone)
        assert total_of(m, real) == total_of(alone, real)
        if np.all(real == np.round(real * 4) / 4):
            # no nudge: every gap is a multiple of 0.25 or an exact tie
            assert pairs(m) == exhaustive_assignment_lex(real, gate)


def test_tied_matrix_of_a_stack_takes_the_full_solve(monkeypatch):
    calls = []
    hungarian = kernels.hungarian_min

    def counted(cost):
        calls.append(cost.shape)
        return hungarian(cost)

    monkeypatch.setattr(kernels, "hungarian_min", counted)
    # matrix 0 has one obvious answer; in matrix 1 both rows tie on both
    # real columns, and its padded third column holds -inf cells
    values = np.array([
        [[0.9, 0.1, 0.0], [0.1, 0.8, 0.2]],
        [[0.5, 0.5, -np.inf], [0.5, 0.5, -np.inf]],
    ])
    first, second = solve(values, 0.0)
    assert pairs(first) == ((0, 0), (1, 1))
    assert unmatched_cols(first, 3) == (2,)
    assert pairs(second) == ((0, 0), (1, 1))
    assert unmatched_cols(second, 2) == ()
    assert total_of(second, values[1]) == 1.0
    # matrix 1 alone, its 3 columns + 2 dummies
    assert calls == [(2, 3 + 2)]


# Cell values that tie after rounding: quarters are exact, tenths are not,
# and 0.1 + 0.2 lies one ulp above 0.3.
_TIED_CELLS = [-0.5, -0.25, 0.0, 0.1, 0.2, 0.25, 0.3, 0.1 + 0.2, 0.5, 1.0]


@st.composite
def _solve_inputs(draw):
    """Any input solve accepts or refuses: a 2D matrix or a (K, n, m)
    stack, a gate, and cells drawn from tied values, random floats, -inf,
    NaN and +inf."""
    stacked = draw(st.booleans())
    k = draw(st.integers(1, 3)) if stacked else 1
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(_TIED_CELLS, (k, n, m))
    else:
        values = rng.normal(0.0, 1.0, (k, n, m))
    if m and draw(st.booleans()):
        # an obvious answer: one lifted cell per row, in distinct columns
        lift = rng.permutation(max(m, n))[:n]
        for i in range(k):
            rows = np.flatnonzero(lift < m)
            values[i, rows, lift[rows]] += 3.0
    cells = n * m * k
    for special in (-np.inf, np.nan, np.inf):
        if cells and draw(st.booleans()):
            flat = values.reshape(-1)
            flat[rng.integers(0, cells, draw(st.integers(1, 3)))] = special
    gate = draw(st.sampled_from([0.0, 0.1, -0.5, -np.inf]))
    return (values if stacked else values[0]), gate


def _fields(chosen):
    return chosen.dtype, chosen.shape, chosen.tobytes()


@settings(max_examples=1500, deadline=None)
@given(case=st.one_of(_solve_inputs(), _stacks().map(
    lambda case: (case[0], case[2]))))
def test_solve_agrees_with_the_masked_reference(case):
    """solve gives, bit for bit, the chosen columns of the reference whose
    one-pass test scales by the permitted cells alone, and ValueError in
    the same cases. It sends the same matrices to the Hungarian solve,
    which the margin nudges of _stacks probe, and leaves the caller's
    values as they were."""
    values, gate = case
    before = values.tobytes()
    calls = []
    hungarian = kernels.hungarian_min

    def counted(cost):
        calls.append(cost.tobytes())
        return hungarian(cost)

    with mock.patch.object(kernels, "hungarian_min", counted):
        try:
            want = reference_solve(values, gate)
        except ValueError:
            with pytest.raises(ValueError):
                solve(values, gate)
            return
        want_calls = calls[:]
        calls.clear()
        got = solve(values, gate)
    assert calls == want_calls
    assert values.tobytes() == before
    assert _fields(got) == _fields(want)
