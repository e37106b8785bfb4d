"""Spectral lower-bound constants: pinned values, symmetries, minimality.

The minimality audit of the degree constant against its bidegree family
genuinely fails at a specific set of (n, k) pairs; that set itself is
pinned here so any drift in the formulas is caught.
"""

from fractions import Fraction
from math import ceil, factorial, floor

import pytest
from hypothesis import given, strategies as st

from kahlerlab.bounds import (
    BoundConstant,
    c_k,
    c_pq,
    constant_table,
    function_bound,
    middle_k_bound,
    middle_pq_bound,
    primitive_remark_bound,
    spectral_bound,
    verify_ck_is_min,
)


def test_bidegree_constant_pinned_values():
    assert c_pq(3, 1, 0) == Fraction(4, 81)
    assert c_pq(2, 0, 1) == Fraction(1, 4)
    assert c_pq(2, 2, 1) == Fraction(1, 4)
    assert c_pq(2, 0, 0) == Fraction(1, 4)
    assert c_pq(3, 0, 0) == Fraction(1, 4)
    assert c_pq(4, 2, 0) == Fraction(1, 64)
    assert c_pq(1, 0, 0) == Fraction(1, 4)


def test_degree_constant_pinned_values():
    assert c_k(3, 1) == Fraction(4, 81)
    assert c_k(2, 0) == Fraction(1, 4)
    assert c_k(1, 0) == Fraction(1, 4)
    assert c_k(4, 2) == Fraction(4, 81)
    assert c_k(3, 5) == c_k(3, 1)
    assert c_k(2, 4) == c_k(2, 0)


def test_degree_constant_closed_form():
    # the two-factor product form, reflected through the middle degree
    for n in range(1, 51):
        for k in range(2 * n + 1):
            if k == n:
                continue
            j = k if k < n else 2 * n - k
            expected = Fraction(factorial(n - j) ** 4, 4) * Fraction(
                factorial(ceil(j / 2) + 1) ** 4, factorial(n - floor(j / 2)) ** 4
            )
            assert c_k(n, k) == expected


def test_reflection_symmetry_is_exact():
    for n in range(1, 7):
        for k in range(2 * n + 1):
            if k == n:
                continue
            assert c_k(n, k) == c_k(n, 2 * n - k)
        for p in range(n + 1):
            for q in range(n + 1):
                if p + q == n:
                    continue
                assert c_pq(n, p, q) == c_pq(n, n - p, n - q)


def test_degree_constant_degrades_with_dimension():
    for k in range(0, 8):
        for n in range(max(k + 1, 1), 9):
            assert c_k(n + 1, k) <= c_k(n, k)


def test_bidegree_constant_degrades_with_dimension():
    for p in range(4):
        for q in range(4):
            k = p + q
            for n in range(max(k + 1, 1), 8):
                assert c_pq(n + 1, p, q) <= c_pq(n, p, q)


def test_middle_degree_raises():
    for n in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="middle degree"):
            c_k(n, n)
        with pytest.raises(ValueError, match="middle degree"):
            c_pq(n, 0, n)
        with pytest.raises(ValueError, match="middle degree"):
            verify_ck_is_min(n, n)


def test_out_of_range_arguments():
    with pytest.raises(ValueError):
        c_k(2, 5)
    with pytest.raises(ValueError):
        c_k(2, -1)
    with pytest.raises(ValueError):
        c_pq(2, 3, 0)
    with pytest.raises(ValueError):
        c_pq(2, 0, -1)
    with pytest.raises(ValueError):
        c_k(0, 0)
    with pytest.raises(ValueError):
        middle_pq_bound(2, 1, 0)
    # the bidegree asked for is named, not a neighbour of it
    with pytest.raises(ValueError, match=r"bidegree \(3,-1\) out of range for n=2"):
        middle_pq_bound(2, 3, -1)
    with pytest.raises(ValueError, match=r"bidegree \(-1,3\) out of range for n=2"):
        middle_pq_bound(2, -1, 3)


def test_middle_substitute_pinned_values():
    assert middle_pq_bound(2, 1, 1) == Fraction(1, 4)
    assert middle_pq_bound(2, 2, 0) == Fraction(1, 4)
    assert middle_pq_bound(2, 0, 2) == Fraction(1, 4)
    assert middle_pq_bound(3, 1, 2) == Fraction(1, 4)
    assert middle_pq_bound(1, 1, 0) == Fraction(1, 4)
    assert middle_k_bound(1) == Fraction(1, 4)
    assert middle_k_bound(2) == Fraction(1, 4)
    assert middle_k_bound(3) == Fraction(1, 4)


def test_middle_substitutes_take_the_adjacent_minimum():
    for n in range(1, 6):
        if n > 1:
            assert middle_k_bound(n) == min(c_k(n, n - 1), c_k(n, n + 1))
        for p in range(n + 1):
            q = n - p
            candidates = []
            if q - 1 >= 0:
                candidates.append(c_pq(n, p, q - 1))
            if q + 1 <= n:
                candidates.append(c_pq(n, p, q + 1))
            assert middle_pq_bound(n, p, q) == min(candidates)


def test_minimality_spot_check_passes_at_small_parameters():
    rep = verify_ck_is_min(3, 1)
    assert rep.passed
    assert rep.degree_value == Fraction(4, 81)
    assert rep.minimum == Fraction(4, 81)
    assert rep.argmin == (1, 0)
    assert verify_ck_is_min(2, 1).passed
    assert verify_ck_is_min(1, 0).passed
    assert verify_ck_is_min(3, 2).passed


def test_minimality_failing_set_is_exactly_pinned():
    failing = set()
    for n in range(1, 7):
        for k in range(2 * n + 1):
            if k == n:
                continue
            rep = verify_ck_is_min(n, k)
            assert rep.minimum <= rep.degree_value
            if not rep.passed:
                failing.add((n, k))
                assert rep.minimum < rep.degree_value
    assert failing == {
        (4, 2),
        (4, 6),
        (5, 2),
        (5, 3),
        (5, 7),
        (5, 8),
        (6, 2),
        (6, 3),
        (6, 4),
        (6, 8),
        (6, 9),
        (6, 10),
    }


def test_minimality_rules_hold_exhaustively_up_to_dimension_50():
    """The rules acceptance 3b audits over n <= 6, over every n <= 50, k != n.

    With j = min(k, 2n-k): the family minimum never exceeds c_k; c_k is the
    minimum exactly when j <= 1 or n-j = 1, and otherwise the argmin is the
    unbalanced end; c_k never exceeds the conjugation-closed family minimum,
    with equality exactly when j is even or n-j = 1.
    """
    undercut = 0
    broken = []
    for n in range(1, 51):
        for k in range(2 * n + 1):
            if k == n:
                continue
            rep = verify_ck_is_min(n, k)
            j = min(k, 2 * n - k)
            conjugation_min = min(
                max(c_pq(n, p, k - p), c_pq(n, k - p, p))
                for p in range(max(0, k - n), min(k, n) + 1)
            )
            unbalanced_end = (j, 0) if k < n else (k - n, n)
            undercut += not rep.passed
            rules = {
                "minimum <= degree value": rep.minimum <= rep.degree_value,
                "audit passes iff j <= 1 or n-j = 1": rep.passed == (j <= 1 or n - j == 1),
                "undercut argmin at the unbalanced end": rep.passed
                or rep.argmin == unbalanced_end,
                "c_k <= conjugation-closed minimum": rep.degree_value <= conjugation_min,
                "equality iff j even or n-j = 1": (rep.degree_value == conjugation_min)
                == (j % 2 == 0 or n - j == 1),
            }
            broken.extend(f"(n={n},k={k}) {rule}" for rule, held in rules.items() if not held)
    assert not broken, "; ".join(broken[:10])
    assert undercut == 2256


def test_minimality_counterexample_detail():
    rep = verify_ck_is_min(4, 2)
    assert not rep.passed
    assert rep.degree_value == Fraction(4, 81)
    assert rep.minimum == Fraction(1, 64)
    assert rep.argmin == (2, 0)


def test_function_and_primitive_bounds():
    assert function_bound(3, Fraction(1)) == Fraction(9, 4)
    assert function_bound(2, Fraction(1, 2)) == Fraction(2)
    assert primitive_remark_bound(3, 1, Fraction(1)) == Fraction(1)
    assert primitive_remark_bound(5, 2, Fraction(1, 2)) == Fraction(9, 2)
    with pytest.raises(ValueError):
        primitive_remark_bound(3, 3, Fraction(1))
    with pytest.raises(ValueError):
        function_bound(2, Fraction(0))
    with pytest.raises(ValueError):
        function_bound(2, Fraction(-1))


def test_spectral_bound_divides_by_eta():
    assert spectral_bound(Fraction(4, 81), Fraction(2)) == Fraction(2, 81)
    with pytest.raises(ValueError):
        spectral_bound(Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        spectral_bound(Fraction(1), Fraction(0))


def test_constant_table_layout():
    rows = constant_table(2)
    assert len(rows) == 5
    assert [row.k for row in rows] == [0, 1, 2, 3, 4]
    middle = rows[2]
    assert middle.label == "middle degree, adjacent-degree substitute"
    assert middle.value == middle_k_bound(2)
    assert rows[0].value == c_k(2, 0)
    assert rows[0].label == "degree"
    assert rows[0].with_eta(Fraction(2)) == Fraction(1, 8)
    assert isinstance(rows[0], BoundConstant)


def test_constant_table_matches_the_per_degree_constants():
    for n in range(1, 51):
        rows = constant_table(n)
        assert [row.k for row in rows] == list(range(2 * n + 1))
        for row in rows:
            expected = middle_k_bound(n) if row.k == n else c_k(n, row.k)
            assert (row.value, row.n) == (expected, n)
            assert row.label == (
                "middle degree, adjacent-degree substitute" if row.k == n else "degree"
            )


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=20),
)
def test_degree_constant_positive_and_bounded(n, k):
    if k > 2 * n or k == n:
        return
    value = c_k(n, k)
    assert 0 < value
    assert value <= Fraction(factorial(n) ** 2, 4)


@given(st.integers(min_value=1, max_value=8))
def test_function_route_beats_degree_zero_constant(n):
    assert function_bound(n, Fraction(1)) >= c_k(n, 0)
