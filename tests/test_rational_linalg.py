"""Exact Gaussian-rational elimination: rank, whole and per component.

`rank` eliminates forward on sparse rows; a dense Gauss-Jordan elimination
kept here is the oracle, for it and for `component_rank`.  Its pivot count
is the rank, and its pivot columns are where the rank of the column
prefixes goes up.  The kernel and round-trip checks read the oracle's
reduced rows.
"""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlab.exterior import GaussRational
from kahlerlab.rational_linalg import component_rank, rank


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


def _matvec(m, v):
    out = []
    for row in m:
        acc = GaussRational(0)
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def _kernel(m, cols):
    """A kernel basis read off the oracle's reduced rows: one vector per
    free column."""
    reduced, pivots = _oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [GaussRational(0)] * cols
        vec[fc] = GaussRational(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def test_rref_fixed_example():
    m = [
        [_gr(1), _gr(2), _gr(3)],
        [_gr(2), _gr(4), _gr(6)],
        [_gr(1), _gr(0), _gr(1)],
    ]
    # reduced rows [1, 0, 1] and [0, 1, 1]: pivots 0 and 1, kernel (-1, -1, 1)
    assert rank(m) == 2
    reduced, pivots = _oracle_rref(m)
    assert (reduced[:2], pivots) == ([[_gr(1), _gr(0), _gr(1)], [_gr(0), _gr(1), _gr(1)]], [0, 1])
    assert _kernel(m, 3) == [[_gr(-1), _gr(-1), _gr(1)]]


def test_random_square_matrices_round_trip():
    """Every row is the combination of the reduced rows weighted by its own
    entries in the pivot columns."""
    rng = random.Random(20240817)
    for trial in range(25):
        size = rng.randint(1, 5)
        m = _random_matrix(rng, size, size)
        reduced, pivots = _oracle_rref(m)
        assert 0 <= rank(m) == len(pivots) <= size
        for row in m:
            back = [GaussRational(0)] * size
            for red, pc in zip(reduced, pivots):
                back = [x + row[pc] * y for x, y in zip(back, red)]
            assert back == row


def test_random_rectangular_nullspace_dimension():
    rng = random.Random(7)
    for trial in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, bound=2)
        basis = _kernel(m, cols)
        assert len(basis) == cols - rank(m)
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


def _prefix_pivots(rows, cols):
    """The columns c where rank of the columns 0..c exceeds that of 0..c-1."""
    ranks = [rank([{j: v for j, v in row.items() if j < c} for row in rows])
             for c in range(cols + 1)]
    return [c for c in range(cols) if ranks[c + 1] > ranks[c]]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_sparse_elimination_matches_the_dense_oracle(case):
    m, cols = case
    _, want_pivots = _oracle_rref(m)
    assert rank(m) == rank(_sparse_rows(m)) == len(want_pivots)
    assert _prefix_pivots(_sparse_rows(m), cols) == want_pivots


# ---- rank per connected component -------------------------------------------


@st.composite
def _block_diagonal(draw):
    """Blocks on disjoint rows and columns, some repeated, with the rows and
    the columns of the whole matrix then permuted."""
    blocks = draw(st.lists(_matrices(), min_size=1, max_size=4))
    blocks += [blocks[0]] * draw(st.integers(0, 2))
    cols = sum(c for _, c in blocks)
    zero = GaussRational(0)
    m, offset = [], 0
    for block, c in blocks:
        m += [[zero] * offset + row + [zero] * (cols - offset - c) for row in block]
        offset += c
    perm = draw(st.permutations(range(cols)))
    m = [[row[p] for p in perm] for row in m]
    return draw(st.permutations(m)), cols


@settings(max_examples=200, deadline=None)
@given(_block_diagonal())
def test_component_rank_matches_the_whole_matrix_and_the_oracle(case):
    m, _ = case
    want = len(_oracle_rref(m)[1])
    assert component_rank(_sparse_rows(m)) == rank(m) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_component_rank_of_every_lefschetz_power_table(n):
    """Every L^j table: per component against the whole matrix, and against
    the dense oracle while it stays cheap (n <= 3)."""
    from kahlerlab.kaehler import _power_table

    for k in range(2 * n + 1):
        for j in range((2 * n - k) // 2 + 1):
            rows = list(_power_table(n, k, j).rows().values())
            got = component_rank(rows)
            assert got == rank(rows), (k, j)
            if n <= 3:
                cols = comb(2 * n, k)
                dense = [[row.get(c, GaussRational(0)) for c in range(cols)] for row in rows]
                assert got == len(_oracle_rref(dense)[1]), (k, j)
