"""Exact Gaussian-rational matrix routines: rank, nullspace, invert.

The routines eliminate on sparse rows; a dense Gauss-Jordan elimination
kept here is the oracle they must reproduce entry for entry.  Its pivots
and kernel basis together determine the reduced row echelon form, so rank
and nullspace pin the whole elimination.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlab.exterior import GaussRational
from kahlerlab.rational_linalg import (
    identity,
    invert,
    nullspace,
    rank,
    zeros,
)


def _gr(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def _random_matrix(rng, rows, cols, bound=4):
    return [
        [
            GaussRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _dense(rows, cols):
    """Dense copy of sparse rows {column: entry}."""
    return [[row.get(c, GaussRational(0)) for c in range(cols)] for row in rows]


def _matvec(m, v):
    out = []
    for row in m:
        acc = GaussRational(0)
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def _matmul(a, b):
    rows, inner_dim, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            acc = GaussRational(0)
            for t in range(inner_dim):
                acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def test_identity_and_zeros_shapes():
    eye = identity(3)
    assert len(eye) == 3 and all(len(row) == 3 for row in eye)
    assert eye[0][0] == _gr(1) and eye[0][1] == _gr(0)
    z = zeros(2, 4)
    assert all(entry == _gr(0) for row in z for entry in row)


def test_rref_fixed_example():
    m = [
        [_gr(1), _gr(2), _gr(3)],
        [_gr(2), _gr(4), _gr(6)],
        [_gr(1), _gr(0), _gr(1)],
    ]
    # reduced rows [1, 0, 1] and [0, 1, 1]: pivots 0 and 1, kernel (-1, -1, 1)
    assert rank(m) == 2
    assert nullspace(m) == [[_gr(-1), _gr(-1), _gr(1)]]


def test_invert_fixed_complex_matrix():
    m = [
        [GaussRational(1), GaussRational(0, 1)],
        [GaussRational(0), GaussRational(2)],
    ]
    inv = _dense(invert(m), 2)
    assert _matmul(m, inv) == identity(2)
    assert _matmul(inv, m) == identity(2)


def test_invert_rejects_singular():
    m = [
        [_gr(1), _gr(2)],
        [_gr(2), _gr(4)],
    ]
    with pytest.raises(ValueError):
        invert(m)


def test_random_square_matrices_round_trip():
    rng = random.Random(20240817)
    for trial in range(25):
        size = rng.randint(1, 5)
        m = _random_matrix(rng, size, size)
        r = rank(m)
        assert 0 <= r <= size
        basis = nullspace(m)
        assert len(basis) == size - r
        for vec in basis:
            assert _matvec(m, vec) == [GaussRational(0)] * size
            assert any(not entry.is_zero() for entry in vec)
        if r == size:
            inv = _dense(invert(m), size)
            assert _matmul(m, inv) == identity(size)
            assert _matmul(inv, m) == identity(size)


def test_random_rectangular_nullspace_dimension():
    rng = random.Random(7)
    for trial in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, bound=2)
        r = rank(m)
        basis = nullspace(m)
        assert len(basis) == cols - r
        for vec in basis:
            assert _matvec(m, vec) == [GaussRational(0)] * rows


# ---- dense oracle ------------------------------------------------------------


def _oracle_rref(m):
    """Dense Gauss-Jordan elimination, first nonzero entry as pivot."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inverse()
        a[r] = [v * inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _oracle_nullspace(m, cols):
    red, pivots = _oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [GaussRational(0)] * cols
        vec[fc] = GaussRational(1)
        for r, pc in enumerate(pivots):
            if red[r][fc]:
                vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def _oracle_invert(m):
    size = len(m)
    aug = [row[:] + ident_row for row, ident_row in zip(m, identity(size))]
    red, pivots = _oracle_rref(aug)
    if pivots[:size] != list(range(size)):
        return None
    return [row[size:] for row in red]


_ENTRIES = st.builds(
    lambda x, y, d: GaussRational(Fraction(x, d), Fraction(y, d)),
    st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 5)),
)


@st.composite
def _matrices(draw):
    """Dense, sparse, rank-deficient, zero-row and rectangular matrices."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 7))
    fill = draw(st.sampled_from((0.0, 0.15, 0.4, 1.0)))
    zero = GaussRational(0)
    m = [
        [draw(_ENTRIES) if draw(st.floats(0, 1)) < fill else zero for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows >= 3 and draw(st.booleans()):
        # a row that is a combination of two others
        f, g = draw(_ENTRIES), draw(_ENTRIES)
        m[2] = [f * a + g * b for a, b in zip(m[0], m[1])]
    if rows >= 2 and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [zero] * cols
    return m, cols


def _sparse_rows(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_sparse_elimination_matches_the_dense_oracle(case):
    m, cols = case
    _, want_pivots = _oracle_rref(m)
    for given_rows in (m, _sparse_rows(m)):
        assert rank(given_rows) == len(want_pivots)
        assert nullspace(given_rows, cols) == _oracle_nullspace(m, cols)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_sparse_inverse_matches_the_dense_oracle(case):
    m, cols = case
    square = [row[: len(m)] for row in m[:cols]]
    want = _oracle_invert(square)
    for given_rows in (square, _sparse_rows(square)):
        if want is None:
            with pytest.raises(ValueError):
                invert(given_rows)
        else:
            assert _dense(invert(given_rows), len(square)) == want
