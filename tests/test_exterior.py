"""Exterior algebra core: scalars, monomials, wedge signs, inner products.

The wedge sign is cross-checked against a brute-force oracle that lists a
monomial as a word of 1-form symbols and counts inversions of the full
concatenation sort.
"""

import random
import tracemalloc
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kahlerlab.exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    Table,
    _bits,
    _cast,
    _combined,
    _composed,
    _conjugation_table,
    _equal_tables,
    _gaussian,
    _masks,
    _maxabs,
    _ones,
    _parts,
    _size,
    _table,
    _wedge_table,
    bidegree_basis,
    bidegree_project,
    conjugate,
    inner,
    monomial_basis,
    norm_sq,
    wedge,
)
from kahlerlab.kaehler import (
    _decomposition_tables,
    _dual_lefschetz_table,
    _inputs,
    _left_inverse_table,
    _power_table,
    _primitive_table,
    _projection_table,
    _star_table,
    _weil_table,
)


def _symbols(mono: Monomial):
    return [(0, a) for a in mono.s] + [(1, a) for a in mono.t]


def _brute_wedge_sign(m1: Monomial, m2: Monomial):
    """None if the product vanishes, else the permutation sign."""
    word = _symbols(m1) + _symbols(m2)
    if len(set(word)) != len(word):
        return None
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def _all_monomials(n: int):
    out = []
    for k in range(2 * n + 1):
        out.extend(monomial_basis(n, k))
    return out


def test_wedge_sign_matches_brute_force_oracle():
    for n in (1, 2, 3):
        monos = _all_monomials(n)
        for m1 in monos:
            a = Form(n, {m1: GaussRational(1)})
            for m2 in monos:
                b = Form(n, {m2: GaussRational(1)})
                got = a.wedge(b)
                sign = _brute_wedge_sign(m1, m2)
                if sign is None:
                    assert got.is_zero()
                else:
                    merged = Monomial(
                        tuple(sorted(m1.s + m2.s)), tuple(sorted(m1.t + m2.t))
                    )
                    assert got == Form(n, {merged: GaussRational(sign)})


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def gauss_rationals(draw):
    return GaussRational(draw(rationals), draw(rationals))


@given(gauss_rationals(), gauss_rationals())
def test_scalar_ring_against_fraction_components(a, b):
    s = a + b
    assert (s.re, s.im) == (a.re + b.re, a.im + b.im)
    d = a - b
    assert (d.re, d.im) == (a.re - b.re, a.im - b.im)
    p = a * b
    assert p.re == a.re * b.re - a.im * b.im
    assert p.im == a.re * b.im + a.im * b.re
    if not b.is_zero():
        q = a / b
        assert q * b == a


@given(gauss_rationals())
def test_scalar_conjugation_and_modulus(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).re == a.abs_sq()
    assert (a * a.conjugate()).im == 0
    assert a.abs_sq() >= 0


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / GaussRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussRational(0).inverse()


def test_scalars_accept_only_rational_components():
    # no float or string reaches the exact layer, not even one that is exact
    for bad in (0.1, 0.5, "1/3", "2", 1j, GaussRational(1)):
        with pytest.raises(TypeError):
            GaussRational(bad)
        with pytest.raises(TypeError):
            GaussRational(1, bad)
    with pytest.raises(TypeError):
        Form(1, {Monomial((1,), ()): 0.1})
    with pytest.raises(TypeError):
        Form.monomial(2, (1,), (2,), 0.5)
    with pytest.raises(TypeError):
        GaussRational(1) * 0.5
    # int, bool, Fraction and numpy integers are rational, and numpy ones
    # are held as Python ints, so products do not wrap at 2^63
    assert GaussRational(np.int64(3), Fraction(-1, 2)) == GaussRational(3, Fraction(-1, 2))
    assert GaussRational(True, np.int32(2)) == GaussRational(1, 2)
    big = GaussRational(np.int64(2 ** 62), Fraction(np.int64(1), np.int64(6)))
    assert big * 4 == GaussRational(2 ** 64, Fraction(2, 3))
    assert all(type(v) is int for v in (big._x, big._y, big._d))


def test_i_power_cycle():
    i = GaussRational(0, 1)
    minus_i = GaussRational(0, -1)
    for e in range(-8, 9):
        expected = GaussRational(1)
        for _ in range(abs(e)):
            expected = expected * (i if e >= 0 else minus_i)
        assert GaussRational.i_power(e) == expected


def test_scalar_rendering():
    assert str(GaussRational(Fraction(3, 2), Fraction(1, 2))) == "3/2+1/2i"
    assert str(GaussRational(0)) == "0"
    assert str(GaussRational(-2, -1)) == "-2-1i"
    assert str(GaussRational(0, 1)) == "1i"


def test_monomial_validation_and_label():
    with pytest.raises(ValueError):
        Form(2, {Monomial((1, 1), ()): GaussRational(1)})
    with pytest.raises(ValueError):
        Form(2, {Monomial((3,), ()): GaussRational(1)})
    with pytest.raises(ValueError):
        Form(2, {Monomial((2, 1), ()): GaussRational(1)})
    mono = Monomial((1, 3), (2,))
    assert mono.degree == 3
    assert mono.bidegree == (2, 1)
    assert "dz" in mono.label()


def _random_form(rng_data, n: int, degrees) -> Form:
    terms = {}
    for k in degrees:
        for mono in monomial_basis(n, k):
            c = rng_data.draw(gauss_rationals())
            if c:
                terms[mono] = c
    return Form(n, terms)


small_forms = st.data()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_wedge_bilinear_and_graded_commutative(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    ka = data.draw(st.integers(min_value=0, max_value=2 * n))
    kb = data.draw(st.integers(min_value=0, max_value=2 * n))
    a = _random_form(data, n, [ka])
    b = _random_form(data, n, [kb])
    c = _random_form(data, n, [kb])
    s = data.draw(gauss_rationals())
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
    assert a.wedge(b * s) == a.wedge(b) * s
    sign = -1 if (ka * kb) % 2 else 1
    assert a.wedge(b) == b.wedge(a) * sign
    assert wedge(a, b) == a.wedge(b)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_associative(data):
    n = 2
    parts = [
        _random_form(data, n, [data.draw(st.integers(min_value=0, max_value=2))])
        for _ in range(3)
    ]
    a, b, c = parts
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_an_involution_swapping_bidegree(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    p = data.draw(st.integers(min_value=0, max_value=n))
    q = data.draw(st.integers(min_value=0, max_value=n))
    terms = {}
    for mono in bidegree_basis(n, p, q):
        c = data.draw(gauss_rationals())
        if c:
            terms[mono] = c
    a = Form(n, terms)
    ca = conjugate(a)
    if not a.is_zero():
        assert ca.bidegree() == (q, p)
    assert conjugate(ca) == a
    b = _random_form(data, n, [p + q])
    assert conjugate(a.wedge(b)) == ca.wedge(conjugate(b))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bidegree_projection_partitions_the_form(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    a = _random_form(data, n, range(2 * n + 1))
    total = Form.zero(n)
    for p in range(n + 1):
        for q in range(n + 1):
            piece = bidegree_project(a, p, q)
            assert bidegree_project(piece, p, q) == piece
            if not piece.is_zero():
                assert piece.bidegree() == (p, q)
            total = total + piece
    assert total == a


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inner_product_structure(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    k = data.draw(st.integers(min_value=0, max_value=2 * n))
    a = _random_form(data, n, [k])
    b = _random_form(data, n, [k])
    c = _random_form(data, n, [k])
    s = data.draw(gauss_rationals())
    assert inner(a, b) == inner(b, a).conjugate()
    assert inner(a + c, b) == inner(a, b) + inner(c, b)
    assert inner(a * s, b) == s * inner(a, b)
    assert inner(a, b * s) == inner(a, b) * s.conjugate()
    nsq = norm_sq(a)
    assert isinstance(nsq, Fraction)
    assert nsq >= 0
    assert (nsq == 0) == a.is_zero()


def test_inner_requires_matching_space():
    a = Form.one(2)
    b = Form.one(3)
    with pytest.raises(ValueError):
        inner(a, b)
    with pytest.raises(ValueError):
        a.wedge(b)


def test_monomials_are_orthonormal():
    n = 2
    monos = _all_monomials(n)
    for i, m1 in enumerate(monos):
        for m2 in monos[i:]:
            a = Form(n, {m1: GaussRational(1)})
            b = Form(n, {m2: GaussRational(1)})
            expected = GaussRational(1 if m1 == m2 else 0)
            assert inner(a, b) == expected


def test_basis_enumeration_counts():
    from math import comb

    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            assert len(monomial_basis(n, k)) == comb(2 * n, k)
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(bidegree_basis(n, p, q)) == comb(n, p) * comb(n, q)


def _reference_mask(n: int, mono: Monomial) -> int:
    return sum(1 << (a - 1) for a in mono.s) | sum(1 << (n + a - 1) for a in mono.t)


@pytest.mark.parametrize("n,highest", [(n, 2 * n + 1) for n in range(8)] + [(32, 3), (33, 3)])
def test_the_masks_are_those_of_the_monomial_basis_in_its_order(n, highest):
    """int64 below 2n = 63, Python ints from there on; empty outside 0..2n."""
    for k in range(-1, highest + 1):
        masks = _masks(n, k)
        assert masks.tolist() == [_reference_mask(n, mono) for mono in monomial_basis(n, k)], k
        assert masks.dtype == (np.int64 if 2 * n < 63 else object), k
        assert all(type(mask) is int for mask in masks.tolist()), k
        assert _ones(masks).dtype == np.int64
        assert _ones(masks).tolist() == [mono.degree for mono in monomial_basis(n, k)], k


def test_form_text_rendering():
    n = 2
    a = Form(n, {Monomial((1,), (2,)): GaussRational(0, Fraction(1, 2))})
    text = str(a)
    assert "dz" in text and "1/2i" in text
    assert str(Form.zero(n)) == "0"


def test_homogeneous_parts_and_degrees():
    n = 2
    a = Form.one(n) + Form(n, {Monomial((1,), (2,)): GaussRational(1)})
    assert a.degree() is None
    assert a.degrees() == {0, 2}
    parts = a.homogeneous_parts()
    assert set(parts) == {0, 2}
    assert parts[0] + parts[2] == a


# ---- compiled wedge against a reference product --------------------------


def _merge_sort(word):
    """Sorted copy of word and the number of inversions merge sort removes."""
    if len(word) <= 1:
        return list(word), 0
    left, inv_left = _merge_sort(word[: len(word) // 2])
    right, inv_right = _merge_sort(word[len(word) // 2:])
    out, inversions, i, j = [], inv_left + inv_right, 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
            inversions += len(left) - i
    return out + left[i:] + right[j:], inversions


def _reference_wedge(a: Form, b: Form) -> Form:
    """a ^ b term pair by term pair, with Fraction components throughout."""
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            word = _symbols(m1) + _symbols(m2)
            if len(set(word)) < len(word):
                continue
            ordered, inversions = _merge_sort(word)
            mono = Monomial(
                tuple(x for side, x in ordered if side == 0),
                tuple(x for side, x in ordered if side == 1),
            )
            sign = -1 if inversions % 2 else 1
            re = sign * (c1.re * c2.re - c1.im * c2.im)
            im = sign * (c1.re * c2.im + c1.im * c2.re)
            old_re, old_im = acc.get(mono, (0, 0))
            acc[mono] = (old_re + re, old_im + im)
    return Form(a.n, {m: GaussRational(re, im) for m, (re, im) in acc.items()})


def _drawn_form(rnd, n, degrees, bound=3, dens=(1,)) -> Form:
    terms = {}
    for k in degrees:
        for mono in monomial_basis(n, k):
            terms[mono] = GaussRational(
                Fraction(rnd.randint(-bound, bound), rnd.choice(dens)),
                Fraction(rnd.randint(-bound, bound), rnd.choice(dens)),
            )
    return Form(n, terms)


def _assert_matches_reference(a: Form, b: Form) -> None:
    """a ^ b on forms, and summed over one-row batch products of each pair of
    homogeneous parts, equals the reference product."""
    got, want = a.wedge(b), _reference_wedge(a, b)
    assert got == want
    assert str(got) == str(want)
    n, via_batches = a.n, Form.zero(a.n)
    for da, pa in a.homogeneous_parts().items():
        for db, pb in b.homogeneous_parts().items():
            via_batches += Batch.of(n, da, [pa]).wedge(Batch.of(n, db, [pb])).form(0)
    assert via_batches == want


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of the products run on the compiled table (batches) and of
    those run by the term-pair loop (forms)."""
    from kahlerlab import exterior

    counts = {"table": 0, "sparse": 0}
    for kind, name in (("table", "_wedge_rows"), ("sparse", "_sparse_product")):
        original = getattr(exterior, name)

        def counted(*args, _kind=kind, _original=original):
            counts[_kind] += 1
            return _original(*args)

        monkeypatch.setattr(exterior, name, counted)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_wedge_matches_reference_for_every_degree_pair(n, evaluations):
    rnd = random.Random(1000 + n)
    for da in range(2 * n + 1):
        for db in range(2 * n + 1):
            a = _drawn_form(rnd, n, [da])
            b = _drawn_form(rnd, n, [db])
            _assert_matches_reference(a, b)
            single = Form(n, {rnd.choice(monomial_basis(n, da)): GaussRational(2, -1)})
            _assert_matches_reference(single, b)
            _assert_matches_reference(b, single)
            _assert_matches_reference(Form.zero(n), b)
            _assert_matches_reference(a, Form.zero(n))
    assert evaluations["sparse"] > 0 and evaluations["table"] > 0


def test_compiled_wedge_matches_reference_on_a_sample_at_n5(evaluations):
    rnd = random.Random(5)
    for da, db in ((1, 1), (2, 3), (5, 5), (1, 8), (4, 2), (0, 6)):
        _assert_matches_reference(_drawn_form(rnd, 5, [da]), _drawn_form(rnd, 5, [db]))
    single = Form.monomial(5, (1, 4), (2,), GaussRational(Fraction(1, 2), 3))
    _assert_matches_reference(single, _drawn_form(rnd, 5, [4]))
    assert evaluations["table"] > 0 and evaluations["sparse"] > 0


def test_compiled_wedge_matches_reference_on_mixed_degree_and_rational_operands():
    rnd = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(3):
            a = _drawn_form(rnd, n, [0, 1, 3], dens=(1, 2, 3, 5))
            b = _drawn_form(rnd, n, [1, 2, 2 * n - 1], dens=(1, 4, 9))
            _assert_matches_reference(a, b)
            _assert_matches_reference(b, a)
            _assert_matches_reference(a, a)


def test_compiled_wedge_falls_back_to_python_ints_beyond_the_certificate(evaluations):
    rnd = random.Random(31)
    bound = 2 ** 31 - 1
    a = _drawn_form(rnd, 4, [2], bound=bound)
    b = _drawn_form(rnd, 4, [3], bound=bound, dens=(1, 3))
    product = Batch.of(4, 2, [a]).wedge(Batch.of(4, 3, [b])).form(0)
    assert evaluations["table"] == 1
    # int64 numerators would have wrapped on this product
    scale = 3 * 3
    assert max(
        max(abs(c.re * scale), abs(c.im * scale)) for c in product.terms.values()
    ) >= 2 ** 63
    _assert_matches_reference(a, b)


def test_compiled_wedge_matches_reference_beyond_64_bit_masks(evaluations):
    n = 32  # 2n = 64 bits per monomial
    a = Form(n, {Monomial((i,), ()): GaussRational(i, 1) for i in range(1, n + 1)})
    a = a + Form(n, {Monomial((), (i,)): GaussRational(1, -i) for i in range(1, n + 1)})
    _assert_matches_reference(a, a.conjugate())
    assert evaluations["table"] == 1 and evaluations["sparse"] == 1


def test_sparse_products_at_large_n_build_no_wedge_table(monkeypatch):
    """Products of few-term forms loop over their term pairs whatever their
    degrees: the table for 10 x 5 at n = 10 alone holds 184 756 * 252
    nonvanishing pairs."""
    from kahlerlab import exterior

    def refuse(*args):
        raise AssertionError("a form product built a wedge table")

    monkeypatch.setattr(exterior, "_wedge_table", refuse)
    half = GaussRational(Fraction(1, 2), -1)
    cases = [
        (Form.monomial(10, range(1, 6), range(1, 6), half)
         + Form.monomial(10, range(6, 11), range(1, 6)),
         Form.monomial(10, (6, 7), (6, 7, 8)) + Form.monomial(10, (1, 2, 3), (9, 10), 3)),
        (Form.monomial(12, range(1, 7), range(7, 13)),
         Form.monomial(12, range(7, 13), range(1, 7), half)),
        (Form.one(10) + Form.monomial(10, (1, 2), (3,)) + Form.monomial(10, (4,), (4, 5, 6, 7), 2),
         Form.monomial(10, (5,), (), half) + Form.monomial(10, (8, 9), (8, 9, 10), -1)),
    ]
    for a, b in cases:
        want = _reference_wedge(a, b)
        assert not want.is_zero() and a.wedge(b) == want
        assert b.wedge(a) == _reference_wedge(b, a)
    top = cases[1][0].wedge(cases[1][1])
    assert len(top.terms) == 1 and top.degree() == 24


def _dense_wedge_table(n: int, da: int, db: int) -> tuple[Table, np.ndarray]:
    """The wedge table and its left column from the dense left x right mask
    matrix: every pair of degree-da and degree-db monomials, kept when
    disjoint."""
    mask_a, mask_b, mask_c = _masks(n, da), _masks(n, db), _masks(n, da + db)
    par_a = np.array([_bits(n, mono)[1] for mono in monomial_basis(n, da)], mask_a.dtype)
    left, right = np.nonzero((mask_a[:, None] & mask_b[None, :]) == 0)
    order_c = np.argsort(mask_c)
    out = order_c[np.searchsorted(mask_c, mask_a[left] | mask_b[right], sorter=order_c)]
    odd = par_a[left] & mask_b[right]
    shift = 1
    while shift < 2 * n:
        odd ^= odd >> shift
        shift *= 2
    sign = (1 - 2 * (odd & 1)).astype(np.int8)
    by_out = np.argsort(out, kind="stable")
    left, right, sign, out = left[by_out], right[by_out], sign[by_out], out[by_out]
    starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]])
    longest = int(np.diff(np.r_[starts, out.size]).max())
    return Table(da + db, len(mask_c), right, sign, starts, out[starts], 1, 2 * longest,
                 db), left


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wedge_tables_by_complement_match_the_dense_mask_matrix(n):
    """Every field of the table and the left column, dtypes included, for
    every degree pair."""
    for da in range(2 * n + 1):
        for db in range(2 * n + 1 - da):
            (got, got_left), (want, want_left) = (_wedge_table(n, da, db),
                                                  _dense_wedge_table(n, da, db))
            for field, x, y in zip((*got._fields, "left"), (*got, got_left),
                                   (*want, want_left)):
                assert np.array_equal(x, y), (da, db, field)
                assert np.asarray(x).dtype == np.asarray(y).dtype, (da, db, field)


def test_the_product_table_holds_no_imaginary_part_per_pair():
    """The signs are real: one int8 per pair, so the 24.6 M cached pairs at
    n = 8 carry one byte of coefficient each, not a complex128."""
    table, left = _wedge_table(4, 3, 4)
    assert table.coef.shape == left.shape and table.coef.size > 1
    assert table.coef.dtype == np.int8 and set(table.coef.tolist()) == {-1, 1}
    assert table.den == 1


def test_the_middle_wedge_table_at_n8_builds_without_the_dense_mask_matrix():
    """(8, 8) at n = 8 has 12870 pairs, one per left monomial; the dense
    mask matrix alone would be 12870^2 entries (166 MB as booleans)."""
    _masks(8, 8), _masks(8, 16)  # the cached bitmasks are not the table's
    tracemalloc.start()
    try:
        table, left = _wedge_table.__wrapped__(8, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert left.size == table.src.size == comb(16, 8) and table.outputs.tolist() == [0]
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ---- batches against the dict path and the reference product -----------------


def gaussian_batch(n, k, re, im, den, bound=None) -> Batch:
    """The batch of numerators re + i im (integer arrays of one shape, in
    the tier their values take) over den."""
    return Batch(n, k, _gaussian(np.asarray(re), np.asarray(im)), den, bound)


def _rational_rows(rnd, n, k, dens=(1, 2, 3, 6), bound=5):
    """Degree-k forms, one per denominator, plus a zero row; every
    coefficient of a row shares that row's denominator."""
    rows = []
    for den in dens:
        terms = {}
        for mono in monomial_basis(n, k):
            if rnd.random() < 0.25:
                continue
            terms[mono] = GaussRational(
                Fraction(rnd.randint(-bound, bound), den),
                Fraction(rnd.randint(-bound, bound), den),
            )
        rows.append(Form(n, terms))
    return rows + [Form.zero(n)]


def _rows_of(batch):
    return [batch.form(t) for t in range(batch.rows)]


def _reference_conjugate(a: Form) -> Form:
    """Conjugate term by term: swap the index sets, reorder sign (-1)^(pq)."""
    return Form(a.n, {
        Monomial(m.t, m.s): c.conjugate() * (-1) ** (len(m.s) * len(m.t))
        for m, c in a.terms.items()
    })


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_wedge_matches_reference_row_by_row(n):
    rnd = random.Random(2000 + n)
    for da in range(2 * n + 1):
        for db in range(2 * n + 1):
            a, b = _rational_rows(rnd, n, da), _rational_rows(rnd, n, db)
            a.reverse()  # pair each denominator with another one
            got = Batch.of(n, da, a).wedge(Batch.of(n, db, b))
            assert got.k == da + db and got.rows == len(a)
            want = [_reference_wedge(x, y) for x, y in zip(a, b)]
            assert _rows_of(got) == want
            assert [str(f) for f in _rows_of(got)] == [str(f) for f in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_conjugation_and_arithmetic_match_the_dict_path(n):
    rnd = random.Random(3000 + n)
    for k in range(2 * n + 1):
        a, b = _rational_rows(rnd, n, k), _rational_rows(rnd, n, k)
        b.reverse()
        ba, bb = Batch.of(n, k, a), Batch.of(n, k, b)
        assert _rows_of(ba) == a
        assert _rows_of(ba.conjugate()) == [_reference_conjugate(x) for x in a]
        assert _rows_of(conjugate(ba)) == [conjugate(x) for x in a]
        assert _rows_of(ba + bb) == [x + y for x, y in zip(a, b)]
        assert _rows_of(ba - bb) == [x - y for x, y in zip(a, b)]
        c = GaussRational(Fraction(2, 3), Fraction(-1, 2))
        assert _rows_of(ba * c) == [x * c for x in a]
        # a constant is a one-row degree-0 batch, on either side
        for r in (Fraction(-5, 7), 3, 0):
            assert _rows_of(ba * r) == [x * r for x in a]
            assert _rows_of(r * ba) == [x * r for x in a]
        scalars = inner(ba, bb)
        assert scalars.k == 0
        assert [s.coefficient(Monomial((), ())) for s in _rows_of(scalars)] == [
            inner(x, y) for x, y in zip(a, b)]
        assert [s.coefficient(Monomial((), ())) for s in _rows_of(norm_sq(ba))] == [
            norm_sq(x) for x in a]
        assert _rows_of(ba * scalars) == [x * inner(x, y) for x, y in zip(a, b)]
        # a difference vanishes exactly on the rows where the forms agree,
        # here with the rows of a over another denominator
        other = Batch.of(n, k, [x * Fraction(1, 35) for x in a[:-1]] + [b[0]]) * 35
        assert other.den != ba.den
        same = (ba - other).is_zero().tolist()
        assert same == [True] * (len(a) - 1) + [b[0] == a[-1]]


def test_batch_rejects_terms_of_another_degree():
    with pytest.raises(ValueError):
        Batch.of(2, 1, [Form.one(2)])


def test_batches_beyond_int64_run_on_python_ints():
    rnd = random.Random(41)
    n, big = 3, 2 ** 27
    a = _rational_rows(rnd, n, 2, bound=big)
    b = _rational_rows(rnd, n, 3, bound=big)
    ba, bb = Batch.of(n, 2, a), Batch.of(n, 3, b)
    assert ba.num.dtype == np.complex128  # the inputs fit below 2^53; their products do not
    product = ba.wedge(bb)
    assert product.num.dtype == object and _maxabs(product.num) >= 2 ** 53
    assert _rows_of(product) == [_reference_wedge(x, y) for x, y in zip(a, b)]
    assert _rows_of(product.conjugate()) == [_reference_conjugate(_reference_wedge(x, y))
                                           for x, y in zip(a, b)]
    assert [s.coefficient(Monomial((), ())) for s in _rows_of(norm_sq(product))] == [
        norm_sq(_reference_wedge(x, y)) for x, y in zip(a, b)]
    huge = Batch.of(n, 2, [x * 2 ** 70 for x in a])
    assert huge.num.dtype == object
    scaled = ba * 2 ** 30  # real scalar whose products pass 2^53
    assert scaled.num.dtype == object
    assert _rows_of(scaled) == [x * 2 ** 30 for x in a]
    assert (Batch.zero(n, 2, 1) * 2 ** 70).is_zero().all()
    assert _rows_of(ba * Fraction(1, 2 ** 70)) == [x * Fraction(1, 2 ** 70) for x in a]
    assert _rows_of(huge.wedge(bb)) == [_reference_wedge(x * 2 ** 70, y) for x, y in zip(a, b)]


def test_real_values_past_2_53_run_in_int64_up_to_2_63():
    """Squared norms are real: past 2^53 they are summed in int64 while
    their bound stays below 2^63, and in Python ints beyond; a difference
    that cancels comes back to complex128 at the next operation."""
    n = 2
    a = gaussian_batch(n, 1, np.array([[2 ** 29, 3, 0, 1], [2 ** 29, -(2 ** 29), 0, 0]]),
                       np.array([[0, 2 ** 28, 5, 0], [1, 0, 0, 2 ** 29]]), 1)
    norms = norm_sq(a)
    assert norms.num.dtype == np.int64 and 2 ** 53 <= norms._bound() < 2 ** 63
    scalars = [s.coefficient(Monomial((), ())) for s in _rows_of(norms)]
    assert scalars == [norm_sq(x) for x in _rows_of(a)]
    squared = norms * norms  # past 2^63
    assert squared.num.dtype == object
    assert [s.coefficient(Monomial((), ())) for s in _rows_of(squared)] == [
        x * x for x in scalars]
    assert (norms - norms * Fraction(1, 3)).num.dtype == np.int64
    cancelled = norms - norms
    assert cancelled.num.dtype == np.int64 and cancelled.is_zero().all()
    assert (cancelled * 5).num.dtype == np.complex128


def test_batch_sums_over_large_denominators_leave_int64():
    # numerators near 2^29 over coprime denominators near 2^25: over their
    # product, the numerators of a sum or a difference pass 2^53
    rnd = random.Random(43)
    n, k, big = 2, 2, 2 ** 29
    a = _rational_rows(rnd, n, k, dens=(2 ** 25 + 1,) * 3, bound=big)
    b = _rational_rows(rnd, n, k, dens=(2 ** 25 + 3,) * 3, bound=big)
    ba, bb = Batch.of(n, k, a), Batch.of(n, k, b)
    assert (ba.den, bb.den) == (2 ** 25 + 1, 2 ** 25 + 3)
    assert ba.num.dtype == bb.num.dtype == np.complex128
    total = ba + bb
    assert total.num.dtype == object and total.den == ba.den * bb.den
    assert _rows_of(total) == [x + y for x, y in zip(a, b)]
    difference = ba - bb
    assert difference.num.dtype == object
    assert difference.is_zero().tolist() == [x == y for x, y in zip(a, b)] == [
        False, False, False, True]


def test_batch_of_puts_every_row_over_the_least_common_denominator():
    rnd = random.Random(47)
    n, k = 3, 2
    forms = _rational_rows(rnd, n, k, dens=(1, 2, 3, 6))
    assert {c._d for x in forms for c in x.terms.values()} == {1, 2, 3, 6}
    batch = Batch.of(n, k, forms)
    assert type(batch.den) is int and batch.den == 6
    assert _rows_of(batch) == forms
    halves = Batch.of(n, k, [x * Fraction(1, 2) for x in forms[:1]])
    assert type(halves.den) is int and halves.den == 2
    assert Batch.of(n, k, []).den == 1 and Batch.of(n, k, [Form.zero(n)]).den == 1


# ---- table algebra against pushing the identity through the tables -----------


def compiled(n: int, k_in: int, k_out: int, columns) -> Table:
    """The reference table of the map sending each degree-k_in monomial mu
    to sum_nu columns[mu][nu] * nu, ranked through {monomial: index} dicts."""
    rank_in, rank_out = ({mono: i for i, mono in enumerate(monomial_basis(n, k))}
                         for k in (k_in, k_out))
    pairs = [(rank_out[nu], rank_in[mu], c)
             for mu, col in columns.items() for nu, c in col.items()]
    den = lcm(1, *(c._d for *_, c in pairs))
    return _table(k_out, _size(n, k_out), [o for o, _, _ in pairs], [s for _, s, _ in pairs],
                  _gaussian([c._x * (den // c._d) for *_, c in pairs],
                            [c._y * (den // c._d) for *_, c in pairs]), den, k_in)


def pushed(op, n, k_in, k_out):
    """The table of a linear map on batches, learned by pushing the identity
    through it: the reference route for composed and combined tables."""
    size = comb(2 * n, k_in)
    units = Batch(n, k_in, np.eye(size, dtype=np.complex128), 1)
    images = op(units)
    assert images.k == k_out
    basis_in = monomial_basis(n, k_in)
    return compiled(n, k_in, k_out, {
        basis_in[j]: images.form(j).terms for j in range(size)
    })


def same_fields(got: Table, want: Table) -> bool:
    """Field by field, dtypes included."""
    return _equal_tables(got, want) and all(
        x.dtype == y.dtype for x, y in zip(got, want) if isinstance(x, np.ndarray))


_COEFFS = st.one_of(st.integers(-4, 4),
                    st.sampled_from([2 ** 26, -(2 ** 52), 2 ** 53 + 1, 2 ** 70 + 1]))


@st.composite
def sparse_tables(draw, n, k_in, k_out, coeffs=_COEFFS):
    """A table with a few pairs, repeats and zeros allowed, over 1..12."""
    size_in, size_out = comb(2 * n, k_in), comb(2 * n, k_out)
    pairs = draw(st.lists(st.tuples(st.integers(0, size_out - 1), st.integers(0, size_in - 1),
                                    coeffs, coeffs), max_size=10))
    out, src = [o for o, *_ in pairs], [s for _, s, *_ in pairs]
    return _table(k_out, size_out, out, src, _gaussian([x for *_, x, _ in pairs],
                                                       [y for *_, y in pairs]),
                  draw(st.integers(1, 12)), k_in)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_composed_tables_match_pushing_the_identity_through_both(data):
    n = data.draw(st.integers(1, 2))
    k0, k1, k2 = (data.draw(st.integers(0, 2 * n)) for _ in range(3))
    inner_table = data.draw(sparse_tables(n, k0, k1))
    outer_table = data.draw(sparse_tables(n, k1, k2))
    got = _composed(outer_table, inner_table)
    assert same_fields(got, pushed(lambda b: outer_table(inner_table(b)), n, k0, k2))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_combined_tables_match_the_summed_images_of_the_identity(data):
    n = data.draw(st.integers(1, 2))
    k_in, k_out = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, 2 * n))
    terms = data.draw(st.lists(st.tuples(
        st.one_of(st.fractions(max_denominator=30).map(lambda f: f.limit_denominator(30)),
                  st.sampled_from([Fraction(2 ** 70, 3), Fraction(-1, 2 ** 65)])),
        sparse_tables(n, k_in, k_out)), min_size=1, max_size=3))

    def summed(b):
        total = terms[0][1](b) * terms[0][0]
        for c, table in terms[1:]:
            total = total + table(b) * c
        return total

    assert same_fields(_combined(terms), pushed(summed, n, k_in, k_out))


def _real_table(k, size, out, src, re, den, k_in):
    """A table of real coefficients re."""
    return _table(k, size, out, src, _gaussian(list(re)), den, k_in)


def test_table_algebra_leaves_int64_only_when_the_entries_do():
    """The complex128 tier holds a table while its entries are below 2^53."""
    n = 2
    big = _table(2, 6, [0, 1, 1], [0, 0, 2],
                 _gaussian([2 ** 30, 3, -(2 ** 30)], [0, 2 ** 30, 1]), 1, 2)
    assert big.coef.dtype == np.complex128
    # products near 2^60 take the object path and stay exact
    square = _composed(big, big)
    assert square.coef.dtype == object and _maxabs(square.coef) >= 2 ** 53
    assert same_fields(square, pushed(lambda b: big(big(b)), n, 2, 2))
    # a sum that cancels the large entries comes back to complex128
    back = _combined([(1, square), (-1, square), (Fraction(1, 2), big)])
    assert back.coef.dtype == np.complex128
    assert same_fields(back, pushed(lambda b: big(b) * Fraction(1, 2), n, 2, 2))
    # repeated pairs are summed, here to 2^53, and zero sums dropped
    repeated = _real_table(0, 1, [0, 0, 0, 0], [0, 0, 0, 0], [2 ** 52, 2 ** 52, 3, -3], 3, 0)
    assert ([part.tolist() for part in _parts(repeated.coef)], repeated.coef.dtype,
            repeated.den) == ([[2 ** 53], [0]], object, 3)
    # and a sum that reaches 2^53 comes back below it once over the least denominator
    halved = _real_table(0, 1, [0, 0], [0, 0], [2 ** 52, 2 ** 52], 4, 0)
    assert ([part.tolist() for part in _parts(halved.coef)], halved.coef.dtype,
            halved.den) == ([[2 ** 51], [0]], np.complex128, 1)
    assert _real_table(0, 1, [0, 0], [0, 0], [1, -1], 3, 0).src.size == 0
    # empty tables compose and combine to the empty table over 1
    empty = _real_table(2, 6, [], [], [], 7, 2)
    for table in (_composed(big, empty), _composed(empty, big), _combined([(3, empty)]),
                  _combined([(0, big)])):
        assert same_fields(table, compiled(n, 2, 2, {}))
    assert same_fields(_composed(_real_table(2, 6, range(6), range(6), [1] * 6, 1, 2), big),
                       _combined([(1, big)]))


def test_conjugation_tables_match_their_monomial_construction():
    """The index-array tables equal, field by field, the tables compiled from
    dz^S ^ dzb^T -> (-1)^(pq) dz^T ^ dzb^S monomial by monomial."""
    for n in range(1, 6):
        for k in range(2 * n + 1):
            want = compiled(n, k, k, {
                mono: {Monomial(mono.t, mono.s): GaussRational((-1) ** (len(mono.s) * len(mono.t)))}
                for mono in monomial_basis(n, k)
            })
            assert same_fields(_conjugation_table(n, k), want), (n, k)


# ---- carried numerator bounds ----------------------------------------------

_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 26), 2 ** 26),
                        st.sampled_from([2 ** 52, -(2 ** 52) - 1, 2 ** 53 - 1, -(2 ** 54) - 5]))


@st.composite
def carried_batches(draw, n, k, rows):
    """A batch whose numerators may lie near 2^53 or beyond, held as
    complex128 or as objects even when they fit, carrying no bound or one
    at least its largest |re| or |im|."""
    size = comb(2 * n, k)
    values = draw(st.lists(_NUMERATORS, min_size=2 * rows * size, max_size=2 * rows * size))
    num = _gaussian(values[0::2], values[1::2]).reshape(rows, size)
    if num.dtype != object and draw(st.booleans()):
        num = _gaussian(*_parts(num), objects=True)
    slack = draw(st.one_of(st.none(), st.just(0), st.integers(0, 2 ** 40),
                           st.integers(0, 90).map(lambda e: 2 ** e)))
    bound = None if slack is None else max(map(abs, values), default=0) + slack
    return Batch(n, k, num, draw(st.sampled_from([1, 3, 2 ** 25 + 1])), bound)


def _measured(a: Batch) -> Batch:
    """The same batch without a carried bound: its numerators are measured."""
    return Batch(a.n, a.k, a.num, a.den)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_carried_bounds_cover_every_result_and_pick_the_measured_dtype(data):
    n = data.draw(st.integers(1, 2))
    k, rows = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(1, 3))
    kc = data.draw(st.integers(0, 2 * n - k))
    a, b = data.draw(carried_batches(n, k, rows)), data.draw(carried_batches(n, k, rows))
    c, s = data.draw(carried_batches(n, kc, rows)), data.draw(carried_batches(n, 0, rows))
    table = data.draw(sparse_tables(n, k, data.draw(st.integers(0, 2 * n))))
    constant = GaussRational(data.draw(_NUMERATORS), Fraction(data.draw(_NUMERATORS), 3))
    ops = {
        "add": lambda a, b, c, s: a + b,
        "sub": lambda a, b, c, s: a - b,
        "neg": lambda a, b, c, s: -a,
        "scale": lambda a, b, c, s: a * s,
        "constant": lambda a, b, c, s: a * constant,
        "wedge": lambda a, b, c, s: a.wedge(c),
        "inner": lambda a, b, c, s: inner(a, b),
        "norm_sq": lambda a, b, c, s: norm_sq(a),
        "conjugate": lambda a, b, c, s: a.conjugate(),
        "table": lambda a, b, c, s: table(a),
        "chain": lambda a, b, c, s: norm_sq((a - b).conjugate().wedge(c) * s) + inner(b, a) * s,
    }
    for name, op in ops.items():
        got = op(a, b, c, s)
        want = op(*map(_measured, (a, b, c, s)))
        assert got.num.dtype == want.num.dtype, name
        assert np.array_equal(got.num, want.num), name
        assert got.den == want.den, name
        assert got._bound() >= _maxabs(got.num), name


# magnitudes on both sides of 2^53, the limit of the complex128 tier
_AT_THE_LIMIT = st.sampled_from([0, 1, 3, 2 ** 26, 2 ** 52, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                                 2 ** 63 + 1]).flatmap(lambda m: st.sampled_from([m, -m]))


@st.composite
def limit_batches(draw, n, k, rows, values=_AT_THE_LIMIT):
    """A batch of numerators from values, in the tier they take."""
    size = comb(2 * n, k)
    values = draw(st.lists(values, min_size=2 * rows * size, max_size=2 * rows * size))
    return Batch(n, k, _gaussian(values[0::2], values[1::2]).reshape(rows, size),
                 draw(st.sampled_from([1, 3, 4])))


def _exact(result):
    """A batch as its shape, denominator and numerators as Python ints; a
    table field by field with its coefficients so; else the value itself."""
    if isinstance(result, Batch):
        return result.n, result.k, result.den, [part.tolist() for part in _parts(result.num)]
    if isinstance(result, Table):
        return result._replace(coef=[part.tolist() for part in _parts(result.coef)],
                               **{f: getattr(result, f).tolist()
                                  for f in ("src", "starts", "outputs")})
    return result.tolist() if isinstance(result, np.ndarray) else result


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_the_fast_tier_matches_the_python_int_tier_bit_for_bit(data):
    """Every batch operation, table application and table composition, on
    numerators either side of 2^53, gives the same exact result as with
    every array forced to Python ints (both limits patched to 0).  A result
    lands in complex128 only under a bound below 2^53, and always when its
    operands are small; in int64 only as a batch of real values under a
    bound below 2^63."""
    from kahlerlab import exterior

    n = data.draw(st.integers(1, 2))
    k, rows = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(1, 3))
    kc = data.draw(st.integers(0, 2 * n - k))
    values = data.draw(st.sampled_from([st.integers(-3, 3), _AT_THE_LIMIT]))
    a, b = (data.draw(limit_batches(n, k, rows, values)) for _ in range(2))
    c, s = (data.draw(limit_batches(n, degree, rows, values)) for degree in (kc, 0))
    table = data.draw(sparse_tables(n, k, data.draw(st.integers(0, 2 * n)), values))
    other = data.draw(sparse_tables(n, table.k, data.draw(st.integers(0, 2 * n)), values))
    constant = GaussRational(data.draw(values), Fraction(data.draw(values), 3))
    forms = [a.form(t) for t in range(rows)]
    ops = {
        "add": lambda: a + b, "sub": lambda: a - b, "neg": lambda: -a,
        "scale": lambda: a * s, "constant": lambda: a * constant, "wedge": lambda: a.wedge(c),
        "inner": lambda: inner(a, b), "norm_sq": lambda: norm_sq(a),
        "conjugate": lambda: a.conjugate(), "table": lambda: table(a),
        "star": lambda: _star_table(n, k)(a), "power": lambda: _power_table(n, k, 1)(a),
        "stacked": lambda: Batch.stacked([a, -a]), "of": lambda: Batch.of(n, k, forms),
        "is_zero": lambda: (a - b).is_zero(), "terms": lambda: [a.terms(t) for t in range(rows)],
        "composed": lambda: _composed(other, table), "combined": lambda: _combined(
            [(constant.re, table), (-1, table)]),
    }
    small = max(_maxabs(x.num) for x in (a, b, c, s)) < 2 ** 20 and max(
        _maxabs(table.coef), _maxabs(other.coef), abs(constant._x), abs(constant._y)) < 2 ** 20
    for name, op in ops.items():
        got = op()
        limits = exterior._EXACT_LIMIT, exterior._INT64_LIMIT
        exterior._EXACT_LIMIT = exterior._INT64_LIMIT = 0
        try:
            want = op()
        finally:
            exterior._EXACT_LIMIT, exterior._INT64_LIMIT = limits
        assert _exact(got) == _exact(want), name
        if isinstance(got, (Batch, Table)):
            coef = got.num if isinstance(got, Batch) else got.coef
            reference = want.num if isinstance(want, Batch) else want.coef
            # forced: every sum and product on Python ints; zeros that no
            # pair was summed into, and negations, keep their tier
            assert reference.dtype == object or not reference.any() or name == "neg", name
            bound = got._bound() if isinstance(got, Batch) else _maxabs(coef)
            assert bound >= _maxabs(coef), name
            if coef.dtype == np.complex128:
                assert bound < 2 ** 53, name
            elif coef.dtype == np.int64:
                assert isinstance(got, Batch) and not got.num.imag.any(), name
                assert bound < 2 ** 63 and not small, name
            else:
                assert coef.dtype == object and not small, name


def test_a_chain_whose_carried_bound_passes_int64_still_computes_in_int64():
    """Ten degree-1 factors at n = 5 multiply their carried bounds by each
    product's gain; norm_sq then measures the product instead of leaving
    the complex128 tier, as the numerators themselves stay far below 2^53."""
    n, rows = 5, 4
    rng = np.random.default_rng(9)
    factors = [gaussian_batch(n, 1, rng.integers(-3, 4, (rows, 2 * n)),
                              rng.integers(-3, 4, (rows, 2 * n)), 1, 3) for _ in range(2 * n)]
    product = factors[0]
    for factor in factors[1:]:
        product = product.wedge(factor)
        assert product.num.dtype == np.complex128
    cols = product.num.shape[1]
    assert 2 * cols * product._bound() ** 2 >= 2 ** 53
    assert 2 * cols * _maxabs(product.num) ** 2 < 2 ** 53
    got = norm_sq(product)
    assert got.num.dtype == np.complex128 and got._bound() < 2 ** 53
    assert np.array_equal(got.num, norm_sq(_measured(product)).num)


def test_batch_products_refuse_factors_of_another_shape():
    a = Batch.of(2, 1, [Form.monomial(2, (1,))])
    two = Batch.of(2, 0, [Form.one(2), Form.one(2)])
    with pytest.raises(ValueError, match="batch mismatch"):
        a * two  # one row against two
    three = Batch.of(2, 1, [Form.monomial(2, (1,))] * 3)
    with pytest.raises(ValueError, match="batch mismatch"):
        three * two  # three rows against two
    with pytest.raises(ValueError, match="batch mismatch"):
        three * Batch.of(3, 0, [Form.one(3)] * 3)  # another dimension
    with pytest.raises(ValueError, match="batch mismatch"):
        three * three  # not of degree 0
    # one row multiplies every row; as many rows multiply row by row
    five = Batch.of(2, 0, [Form.one(2) * 5])
    assert _rows_of(three * five) == [Form.monomial(2, (1,), (), 5)] * 3
    assert _rows_of(a * five) == [Form.monomial(2, (1,), (), 5)]


def test_batch_of_refuses_a_form_of_another_dimension():
    with pytest.raises(ValueError, match="batch mismatch"):
        Batch.of(3, 1, [Form.monomial(2, (1,))])
    with pytest.raises(ValueError, match="batch mismatch"):
        Batch.of(3, 1, [Form.monomial(3, (1,)), Form.zero(2)])


def _kernel_tables(n: int):
    """Every table the Kaehler operators apply at dimension n, with the
    width of its input rows."""
    for k in range(2 * n + 1):
        yield f"conjugation k={k}", _conjugation_table(n, k), _size(n, k)
        yield f"star k={k}", _star_table(n, k), _size(n, k)
        yield f"weil k={k}", _weil_table(n, k), _size(n, k)
        yield f"Lambda k={k}", _dual_lefschetz_table(n, k), _size(n, k)
        yield f"projection k={k}", _projection_table(n, k), _size(n, k)
        for j in range(n + 1):
            yield f"L^{j} k={k}", _power_table(n, k, j), _size(n, k)
        for r, part in _decomposition_tables(n, k):
            yield f"part {r} k={k}", part, _size(n, k)
        if k <= n:
            yield f"left inverse k={k}", _left_inverse_table(n, k), _size(n, 2 * n - k)
            basis = _primitive_table(n, k)
            yield f"primitive basis k={k}", basis, _inputs(basis)


def _kernel_rows(rng, n: int, k: int, width: int, big: bool) -> Batch:
    """Seven rows of the given width: small numerators over den = 6 with a
    zero row, or numerators from 2^52 in every row, complex128 whose
    images pass 2^53 under any gain of at least 2."""
    if big:
        magnitude = rng.integers(2 ** 52, 2 ** 52 + 1000, (2, 7, width))
        values = magnitude * rng.choice([-1, 1], (2, 7, width))
        values[:, :, 0] = 2 ** 52  # so every row of every width >= 1 is large
    else:
        values = rng.integers(-3, 4, (2, 7, width))
        values[:, 2] = 0
    return gaussian_batch(n, k, values[0], values[1], 1 if big else 6)


def _same_batch(got: Batch, want: Batch, name: str) -> None:
    assert (got.n, got.k, got.den) == (want.n, want.k, want.den), name
    assert got.num.dtype == want.num.dtype and got.num.shape == want.num.shape, name
    assert np.array_equal(got.num, want.num), name


def _row_by_row(op, *batches: Batch) -> Batch:
    """op on one-row batches, one per row, with the rows stacked again."""
    rows = [op(*(Batch(b.n, b.k, b.num[t:t + 1], b.den) for b in batches))
            for t in range(batches[0].rows)]
    return Batch(rows[0].n, rows[0].k, np.vstack([r.num for r in rows]), rows[0].den)


# chunk sizes, in (rows x pairs) entries, as a function of the pairs:
# one row per chunk, and chunks of three rows, which split seven unevenly
_CHUNKINGS = (lambda pairs: 1, lambda pairs: 3 * pairs + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_applications_match_across_chunk_boundaries(n, monkeypatch):
    from kahlerlab import exterior

    rng = np.random.default_rng(70 + n)
    for name, table, width in _kernel_tables(n):
        for big in (False, True):
            # rows of the table's input degree; of a basis table, k is None
            a = _kernel_rows(rng, n, table.k_in, width, big)
            whole = table(a)
            assert whole.num.dtype == (object if big and table.src.size else np.complex128), name
            _same_batch(_row_by_row(table, a), whole, name)
            for chunking in _CHUNKINGS:
                monkeypatch.setattr(exterior, "_CHUNK_ENTRIES", chunking(table.src.size))
                _same_batch(table(a), whole, name)
            monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_products_match_across_chunk_boundaries(n, monkeypatch):
    from kahlerlab import exterior

    rng = np.random.default_rng(80 + n)
    for da in range(2 * n + 1):
        for db in range(2 * n + 1):
            pairs = _wedge_table(n, da, db)[1].size if da + db <= 2 * n else 0
            for big in (False, True):
                a = _kernel_rows(rng, n, da, _size(n, da), big)
                b = _kernel_rows(rng, n, db, _size(n, db), big)
                name = f"n={n} ({da}, {db}) big={big}"
                whole = a.wedge(b)
                assert whole.num.dtype == (object if big and pairs else np.complex128), name
                _same_batch(_row_by_row(wedge, a, b), whole, name)
                for chunking in _CHUNKINGS:
                    monkeypatch.setattr(exterior, "_CHUNK_ENTRIES", chunking(pairs))
                    _same_batch(a.wedge(b), whole, name)
                monkeypatch.undo()


def test_stacked_batches_keep_every_row_and_slices_give_them_back():
    n = 2
    rnd = random.Random(5)
    parts = [Batch.of(n, 2, [_drawn_form(rnd, n, [2]) for _ in range(rows)]) for rows in (1, 3, 2)]
    whole = Batch.stacked(parts)
    assert (whole.k, whole.rows, whole.den) == (2, 6, parts[0].den)
    assert [whole.form(t) for t in range(6)] == [p.form(t) for p in parts for t in range(p.rows)]
    assert [whole[1:4].form(t) for t in range(3)] == [parts[1].form(t) for t in range(3)]
    assert whole._bound() >= _maxabs(whole.num)
    for other in (Batch.zero(n, 1, 2), Batch.zero(n, 2, 2, den=parts[0].den + 1),
                  Batch.zero(n + 1, 2, 2)):
        with pytest.raises(ValueError, match="batch mismatch"):
            Batch.stacked([parts[0], other])


def test_zero_rows_and_empty_tables_give_the_zero_batch():
    """An empty map, or a batch of no rows, gives complex128 zeros over the
    product of the denominators, whatever the numerators and their tier."""
    n = 3
    for table, k_in, rows in ((_projection_table(n, 4), 4, 7), (_dual_lefschetz_table(n, 1), 1, 7),
                              (_star_table(n, 2), 2, 0), (_projection_table(n, 4), 4, 0)):
        for big in (3, 2 ** 70):
            a = gaussian_batch(n, k_in, np.full((rows, _size(n, k_in)), big, dtype=object),
                               np.zeros((rows, _size(n, k_in)), dtype=object), 5)
            _same_batch(table(a), Batch.zero(n, table.k, rows, 5 * table.den), f"{k_in} {rows}")
    for da, db in ((1, 2), (3, 3), (0, 6), (4, 4)):
        a = Batch.zero(n, da, 0, 2)
        b = Batch(n, db, np.zeros((0, _size(n, db)), dtype=object), 3, 2 ** 80)
        _same_batch(a.wedge(b), Batch.zero(n, da + db, 0, 6), f"({da}, {db})")
