"""Exact certificates of injectivity, against a dense oracle.

`independent_columns` (distinct leading rows) and the left-inverse
certificate of the hard-Lefschetz checks, the table identity x o a = id
(`_equal_tables(_composed(x, a), identity)`), are checked against a dense
Gauss-Jordan elimination kept here as the oracle: its pivot count is the
rank.  The kernel and round-trip checks read the oracle's reduced rows.
"""

import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kahlerlab.exterior import GaussRational, _composed, _equal_tables, _gaussian, _table
from kahlerlab.harness import _scalar
from kahlerlab.kaehler import _left_inverse_table, _power_table
from kahlerlab.rational_linalg import independent_columns


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
        assert len(pivots) <= size
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


def _as_table(m, cols, k=0):
    """The table of the matrix m, rows x cols: input c to output r."""
    entries = [(r, c, v) for r, row in enumerate(m) for c, v in enumerate(row) if v]
    den = lcm(1, *(v._d for *_, v in entries))
    return _table(k, len(m), [r for r, _, _ in entries], [c for _, c, _ in entries],
                  _gaussian([v._x * (den // v._d) for *_, v in entries],
                            [v._y * (den // v._d) for *_, v in entries]), den, None)


def _identity(inputs):
    """The identity on inputs 0..inputs-1, a table of the kind `_as_table`
    builds."""
    ids = list(range(inputs))
    return _table(0, inputs, ids, ids, _gaussian([1] * inputs), 1, None)


def _dense_rows(table, cols):
    """The nonzero rows of a table's matrix, each as a list of cols entries."""
    return [[row.get(c, GaussRational(0)) for c in range(cols)]
            for row in table.rows().values()]


def _oracle_inverse(m):
    """The inverse of a square matrix, read off the reduced rows of [m | 1];
    None if m is singular."""
    size = len(m)
    one = [[GaussRational(int(i == j)) for j in range(size)] for i in range(size)]
    reduced, pivots = _oracle_rref([row + e for row, e in zip(m, one)])
    return [row[size:] for row in reduced] if pivots[:size] == list(range(size)) else None


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_independent_columns_implies_full_column_rank_in_the_oracle(case):
    m, cols = case
    if independent_columns(_as_table(m, cols), cols):
        assert len(_oracle_rref(m)[1]) == cols


@st.composite
def _staircase(draw):
    """A matrix whose columns have pairwise distinct last nonzero rows,
    with anything above them."""
    m, cols = draw(_matrices())
    rows = len(m)
    assume(rows >= cols)
    zero = GaussRational(0)
    leads = draw(st.permutations(range(rows)))[:cols]
    nonzero = _ENTRIES.filter(bool)
    for c, lead in enumerate(leads):
        m[lead][c] = draw(nonzero)
        for r in range(lead + 1, rows):
            m[r][c] = zero
    return m, cols


@settings(max_examples=200, deadline=None)
@given(_staircase())
def test_distinct_leading_rows_pass_and_a_repeated_or_missing_one_fails(case):
    m, cols = case
    table = _as_table(m, cols)
    assert independent_columns(table, cols)
    assert len(_oracle_rref(m)[1]) == cols
    # one column more than the table has inputs: that column is empty
    assert not independent_columns(table, cols + 1)
    # fewer columns than the table has inputs
    assert not independent_columns(table, cols - 1)
    if cols >= 2:  # the last column a copy of the first: a repeated leading row
        copy = [row[:-1] + row[:1] for row in m]
        assert not independent_columns(_as_table(copy, cols), cols)


@st.composite
def _square(draw):
    size = draw(st.integers(1, 6))
    fill = draw(st.sampled_from((0.4, 1.0)))
    zero = GaussRational(0)
    return [[draw(_ENTRIES) if draw(st.floats(0, 1)) < fill else zero for _ in range(size)]
            for _ in range(size)]


@settings(max_examples=200, deadline=None)
@given(_square(), st.data())
def test_the_oracle_inverse_is_a_left_inverse_and_a_perturbed_one_is_not(m, data):
    inverse = _oracle_inverse(m)
    assume(inverse is not None)
    size = len(m)
    a = _as_table(m, size)
    assert _equal_tables(_composed(_as_table(inverse, size), a), _identity(size))
    r, c = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    inverse[r][c] = inverse[r][c] + 1
    assert not _equal_tables(_composed(_as_table(inverse, size), a), _identity(size))


def test_a_left_inverse_must_cover_every_input():
    # x o a is the identity on the first input of a, and x drops the second
    one, zero = GaussRational(1), GaussRational(0)
    x = _as_table([[one, zero]], 2)
    assert not _equal_tables(_composed(x, _as_table([[one, zero], [zero, one]], 2)),
                             _identity(2))
    assert _equal_tables(_composed(x, _as_table([[one], [zero]], 1)), _identity(1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_certificates_on_every_lefschetz_power_table(n):
    """L^j on degree k is injective exactly when j = 0 or k + j <= n: the
    dense oracle says so while it stays cheap (n <= 3), and for k + j <= n
    X_k o L^(n-k-j) is a left inverse of L^j."""
    for k in range(2 * n + 1):
        for j in range((2 * n - k) // 2 + 1):
            power = _power_table(n, k, j)
            if k + j <= n:
                x = _composed(_left_inverse_table(n, k), _power_table(n, k + 2 * j, n - k - j))
                assert _equal_tables(_composed(x, power), _scalar(n, k, 1)), (k, j)
            if n <= 3:
                cols = comb(2 * n, k)
                rank = len(_oracle_rref(_dense_rows(power, cols))[1])
                assert (rank == cols) == (j == 0 or k + j <= n), (k, j)
