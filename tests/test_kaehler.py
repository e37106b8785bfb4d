"""Hodge star, Lefschetz operators, primitive decomposition, pairings.

The star operator is checked monomial-by-monomial against its defining
relation a ^ conj(*b) = <a,b> dV, which pins it uniquely, then the
classical structure facts are asserted on top.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import numpy as np
import pytest

from kahlerlab.exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    _combined,
    _compiled,
    _composed,
    _conjugation_table,
    _equal_tables,
    _images,
    _pair_outputs,
    _parts,
    bidegree_project,
    conjugate,
    inner,
    monomial_basis,
    norm_sq,
)
from kahlerlab.kaehler import (
    PrimitiveDecomposition,
    _decomposition_coefficient,
    _decomposition_tables,
    _dual_lefschetz_table,
    _inputs,
    _left_inverse_table,
    _power_table,
    _primitive_table,
    _projection_table,
    _star_table,
    _weil_table,
    dual_lefschetz,
    hodge_star,
    hr_pairing,
    is_primitive,
    kahler_form,
    lefschetz_L,
    lefschetz_power,
    norm_ratio,
    primitive_basis,
    primitive_bidegree_basis,
    primitive_decompose,
    primitive_dimension,
    primitive_projection,
    recompose,
    star_inverse,
    volume_form,
    weil_operator,
)
from kahlerlab.rational_linalg import independent_columns

from test_exterior import gaussian_batch, pushed, same_fields
from test_rational_linalg import _dense_rows, _oracle_rref

I = GaussRational(0, 1)


def _mono_form(n, mono):
    return Form(n, {mono: GaussRational(1)})


def test_star_satisfies_its_defining_relation_exhaustively():
    for n in (1, 2, 3):
        dv = volume_form(n)
        for k in range(2 * n + 1):
            basis = monomial_basis(n, k)
            stars = [hodge_star(_mono_form(n, m)) for m in basis]
            for m1 in basis:
                a = _mono_form(n, m1)
                for m2, sb in zip(basis, stars):
                    b = _mono_form(n, m2)
                    lhs = a.wedge(conjugate(sb))
                    assert lhs == dv * inner(a, b)


def test_star_fixed_values():
    assert hodge_star(Form.one(2)) == volume_form(2)
    assert hodge_star(volume_form(2)) == Form.one(2)
    w = kahler_form(2)
    assert hodge_star(w) == w
    n = 1
    dz = _mono_form(n, Monomial((1,), ()))
    assert hodge_star(dz) == dz * GaussRational(0, -1)
    assert hodge_star(conjugate(dz)) == conjugate(dz) * I


def test_double_star_is_degree_parity():
    for n in (1, 2):
        for k in range(2 * n + 1):
            sign = GaussRational(-1 if k % 2 else 1)
            for mono in monomial_basis(n, k):
                a = _mono_form(n, mono)
                assert hodge_star(hodge_star(a)) == a * sign
                assert star_inverse(hodge_star(a)) == a
                assert hodge_star(star_inverse(a)) == a


def test_star_preserves_norm():
    n = 2
    a = _mono_form(n, Monomial((1,), (2,))) * GaussRational(2, 1) + kahler_form(n)
    for part in a.homogeneous_parts().values():
        assert norm_sq(hodge_star(part)) == norm_sq(part)


def test_volume_form_is_omega_power_over_factorial():
    for n in (1, 2, 3):
        w = kahler_form(n)
        power = Form.one(n)
        for _ in range(n):
            power = power.wedge(w)
        assert power == volume_form(n) * GaussRational(factorial(n))
        assert inner(w, w) == GaussRational(n)


def test_kahler_form_requires_positive_dimension():
    with pytest.raises(ValueError):
        kahler_form(0)
    with pytest.raises(ValueError):
        volume_form(-1)


def test_dual_lefschetz_fixed_values():
    n = 2
    assert dual_lefschetz(_mono_form(n, Monomial((1,), (1,)))) == Form.one(n) * (
        GaussRational(0, -1)
    )
    assert dual_lefschetz(kahler_form(n)) == Form.one(n) * GaussRational(n)
    assert dual_lefschetz(Form.one(n)).is_zero()
    assert dual_lefschetz(_mono_form(n, Monomial((1, 2), ()))).is_zero()


def test_dual_lefschetz_is_adjoint_to_lefschetz():
    n = 2
    for k in range(2 * n - 1):
        for m1 in monomial_basis(n, k + 2):
            a = _mono_form(n, m1)
            la = dual_lefschetz(a)
            for m2 in monomial_basis(n, k):
                b = _mono_form(n, m2)
                assert inner(la, b) == inner(a, lefschetz_L(b))


def test_commutator_identity_on_every_degree():
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            l_lam = _composed(_power_table(n, k - 2, 1), _dual_lefschetz_table(n, k))
            lam_l = _composed(_dual_lefschetz_table(n, k + 2), _power_table(n, k, 1))
            commutator = _combined([(1, l_lam), (-1, lam_l)])
            assert _equal_tables(commutator, _combined([(k - n, _power_table(n, k, 0))]))
            assert commutator.src.size == (comb(2 * n, k) if k != n else 0)


def test_lefschetz_power_matches_iterated_wedge():
    n = 3
    a = _mono_form(n, Monomial((1,), (2,)))
    w = kahler_form(n)
    assert lefschetz_power(a, 0) == a
    assert lefschetz_power(a, 2) == w.wedge(w.wedge(a))
    with pytest.raises(ValueError):
        lefschetz_power(a, -1)


def test_primitive_dimension_formula_and_basis_sizes():
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            expected = (
                comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
                if k <= n
                else 0
            )
            assert primitive_dimension(n, k) == expected
            basis = primitive_basis(n, k)
            assert len(basis) == expected
            for b in basis:
                assert is_primitive(b)
                assert b.degree() == k
            # the same basis, compiled once into a table on the basis indices
            table = _primitive_table(n, k)
            assert table is _primitive_table(n, k)
            assert _images(n, table, _inputs(table)) == list(basis)


def test_primitive_bidegree_basis_refines_the_degree_basis():
    n = 3
    for k in range(n + 1):
        total = 0
        for p in range(k + 1):
            q = k - p
            if q > n:
                continue
            basis = primitive_bidegree_basis(n, p, q)
            total += len(basis)
            for b in basis:
                assert b.bidegree() == (p, q)
                assert is_primitive(b)
        assert total == primitive_dimension(n, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_tableau_basis_is_signed_primitive_and_injective_under_the_top_power(n):
    """Per bidegree: every basis form is homogeneous and killed by the dual
    Lefschetz table, with entries +-1; the counts are those of the
    primitive (p, q)-forms, and L^(n-k) keeps each degree's basis forms
    independent: they have distinct leading rows and X_k o L^(n-k) gives
    them back, and the dense oracle agrees while it stays cheap (n <= 3)."""
    for k in range(2 * n + 1):
        table = _primitive_table(n, k)
        count = _inputs(table)
        assert table.den == 1 and set(table.coef.tolist()) <= {-1, 1}
        assert _composed(_dual_lefschetz_table(n, k), table).src.size == 0
        column_p = np.array([len(mono.s) for mono in monomial_basis(n, k)])
        pair_p = column_p[_pair_outputs(table)]
        index_p = np.zeros(count, dtype=np.int64)
        index_p[table.src] = pair_p
        assert np.array_equal(index_p[table.src], pair_p)  # one bidegree per form
        for p in range(max(0, k - n), min(k, n) + 1):
            q = k - p
            want = comb(n, p) * comb(n, q) - (comb(n, p - 1) * comb(n, q - 1) if p and q else 0)
            assert np.count_nonzero(index_p == p) == (want if k <= n else 0)
        if k <= n:
            image = _composed(_power_table(n, k, n - k), table)
            assert independent_columns(table, count)
            assert _equal_tables(_composed(_left_inverse_table(n, k), image), table)
            if n <= 3:
                assert len(_oracle_rref(_dense_rows(image, count))[1]) == count


def test_tableau_basis_fixture_at_dimension_two():
    # blocks (A, B) = ({1}, {2}) and ({2}, {1}) with j = 0, then the one
    # standard tableau 1|2 on F = {1, 2}: e_{2} - e_{1}
    assert primitive_bidegree_basis(2, 1, 1) == (
        _mono_form(2, Monomial((1,), (2,))),
        _mono_form(2, Monomial((2,), (1,))),
        _mono_form(2, Monomial((2,), (2,))) - _mono_form(2, Monomial((1,), (1,))),
    )


def test_primitive_decompose_fixture():
    n = 2
    a = _mono_form(n, Monomial((1,), (1,)))
    dec = primitive_decompose(a)
    assert dec.k == 2
    assert set(dec.parts) == {0, 1}
    half = GaussRational(Fraction(1, 2))
    assert dec.part(1) == Form.one(n) * GaussRational(0, Fraction(-1, 2))
    expected0 = (
        _mono_form(n, Monomial((1,), (1,))) - _mono_form(n, Monomial((2,), (2,)))
    ) * half
    assert dec.part(0) == expected0
    assert dec.part(5).is_zero()
    assert recompose(dec) == a


def test_primitive_decompose_round_trips_every_monomial():
    for n in (1, 2):
        for k in range(2 * n + 1):
            for mono in monomial_basis(n, k):
                a = _mono_form(n, mono)
                dec = primitive_decompose(a)
                assert recompose(dec) == a
                for r, part in dec.parts.items():
                    assert is_primitive(part)
                    assert part.degree() == k - 2 * r


def test_primitive_decompose_requires_homogeneous_input():
    a = Form.one(2) + kahler_form(2)
    with pytest.raises(ValueError):
        primitive_decompose(a)


def test_recompose_validates_parts():
    n = 2
    bad_degree = PrimitiveDecomposition(n, 2, {0: Form.one(n)})
    with pytest.raises(ValueError):
        recompose(bad_degree)
    not_primitive = PrimitiveDecomposition(n, 2, {0: kahler_form(n)})
    with pytest.raises(ValueError):
        recompose(not_primitive)
    negative = PrimitiveDecomposition(n, 2, {-1: Form.one(n)})
    with pytest.raises(ValueError):
        recompose(negative)
    empty = PrimitiveDecomposition(n, 2, {})
    assert recompose(empty).is_zero()


def test_primitive_projection_is_an_idempotent_orthogonal_projector():
    n = 2
    k = 2
    basis = monomial_basis(n, k)
    for mono in basis:
        a = _mono_form(n, mono)
        pa = primitive_projection(a)
        assert is_primitive(pa)
        assert primitive_projection(pa) == pa
        assert pa == primitive_decompose(a).part(0)
        for other in basis:
            b = _mono_form(n, other)
            assert inner(pa, b) == inner(a, primitive_projection(b))
    assert primitive_projection(kahler_form(n)).is_zero()


def test_weil_operator_rotates_by_bidegree():
    n = 2
    a = (
        _mono_form(n, Monomial((1, 2), ()))
        + _mono_form(n, Monomial((1,), (2,))) * GaussRational(3)
    )
    out = weil_operator(a)
    for p in range(n + 1):
        for q in range(n + 1):
            piece = bidegree_project(a, p, q)
            assert bidegree_project(out, p, q) == piece * GaussRational.i_power(p - q)


def test_star_on_primitive_power_fixture():
    n = 2
    for b in primitive_basis(n, 1):
        lhs = hodge_star(lefschetz_power(b, 0))
        scale = GaussRational.i_power(1 * 2) * GaussRational(
            Fraction(factorial(0), factorial(n - 1 - 0))
        )
        rhs = lefschetz_power(weil_operator(b), n - 1) * scale
        assert lhs == rhs


def test_primitive_power_norm_scaling():
    n = 3
    k = 2
    for b in primitive_basis(n, k):
        top = lefschetz_power(b, n - k)
        assert norm_ratio(top, b) == Fraction(factorial(n - k) ** 2)


def test_hr_pairing_fixed_values():
    assert hr_pairing(Form.one(2), Form.one(2)) == GaussRational(2)
    n = 1
    dz = _mono_form(n, Monomial((1,), ()))
    assert I * hr_pairing(dz, conjugate(dz)) == GaussRational(1)


def test_hr_pairing_matches_inner_product_on_primitives():
    n = 2
    for k in range(n + 1):
        for p in range(k + 1):
            q = k - p
            if q > n:
                continue
            rot = GaussRational.i_power(p - q)
            for a in primitive_bidegree_basis(n, p, q):
                for b in primitive_bidegree_basis(n, p, q):
                    lhs = rot * hr_pairing(a, conjugate(b))
                    assert lhs == inner(a, b) * GaussRational(factorial(n - k))


def test_hr_pairing_is_bilinear_not_sesquilinear():
    n = 2
    a = _mono_form(n, Monomial((1,), ()))
    b = _mono_form(n, (Monomial((2,), ())))
    s = GaussRational(0, 1)
    assert hr_pairing(a * s, conjugate(b)) == s * hr_pairing(a, conjugate(b))
    assert hr_pairing(a, conjugate(b) * s) == hr_pairing(a, conjugate(b)) * s


def test_hr_pairing_rejects_mismatched_arguments():
    with pytest.raises(ValueError):
        hr_pairing(Form.one(2), Form.one(3))
    with pytest.raises(ValueError):
        hr_pairing(Form.one(2), kahler_form(2))
    with pytest.raises(ValueError):
        hr_pairing(Form.one(2) + kahler_form(2), Form.one(2) + kahler_form(2))


def test_table_rows_give_the_rank_of_l_and_the_nullity_of_the_dual():
    n = 2
    lef = _power_table(n, 0, 1)
    assert (lef.k, lef.size) == (2, comb(2 * n, 2))
    assert lef.rows() == {lef.outputs[a]: {0: I} for a in range(n)}
    assert len(_oracle_rref(_dense_rows(lef, 1))[1]) == 1
    for k in range(2, 2 * n + 1):
        lam = _dual_lefschetz_table(n, k)
        nullity = comb(2 * n, k) - len(_oracle_rref(_dense_rows(lam, comb(2 * n, k)))[1])
        expected = primitive_dimension(n, k) if k <= n else 0
        assert nullity == expected


def test_a_table_refuses_a_batch_of_another_degree():
    # conjugation on degree 1 once turned a degree-2 batch into a wrong
    # degree-1 one, and the star on degree 2 met a degree-1 batch with a bare
    # IndexError; a primitive basis table takes basis indices, not forms
    n = 2
    for table, k in ((_conjugation_table(n, 1), 2), (_star_table(n, 2), 1),
                     (_primitive_table(n, 1), 1), (_dual_lefschetz_table(n, 3), 2)):
        with pytest.raises(ValueError, match="batch mismatch"):
            table(Batch.zero(n, k, 3))
    a = Batch.of(n, 1, [Form.monomial(n, (1,), (), GaussRational(2, 1))])
    assert _conjugation_table(n, 1)(a).k == 1 and _star_table(n, 1)(a).k == 3
    assert (_primitive_table(n, 1).k_in, _star_table(n, 2).k_in,
            _dual_lefschetz_table(n, 3).k_in) == (None, 2, 3)


def test_norm_ratio_rejects_zero_denominator():
    with pytest.raises(ValueError):
        norm_ratio(Form.one(2), Form.zero(2))
    assert norm_ratio(kahler_form(2), Form.one(2)) == Fraction(2)


# ---- compiled operators against the inverse-times-vector route ----------------


@lru_cache(maxsize=None)
def _reference_decomposition_data(n, k):
    """Blocks L^r P^(k-2r) and the dense inverse of their column matrix."""
    basis_k = monomial_basis(n, k)
    blocks, columns = [], []
    for r in range(max(0, k - n), k // 2 + 1):
        prim = primitive_basis(n, k - 2 * r)
        blocks.append((r, prim))
        columns += [lefschetz_power(b, r) for b in prim]
    matrix = [[col.coefficient(mono) for col in columns] for mono in basis_k]
    return basis_k, blocks, _dense_inverse(matrix)


def _dense_inverse(matrix):
    """Inverse of a nonsingular square matrix: the right half of the dense
    Gauss-Jordan reduction of [matrix | 1]."""
    size = len(matrix)
    one, zero = GaussRational(1), GaussRational(0)
    reduced, pivots = _oracle_rref(
        [row + [one if i == j else zero for j in range(size)] for i, row in enumerate(matrix)]
    )
    assert pivots[:size] == list(range(size))
    return [row[size:] for row in reduced]


def _matvec(m, v):
    out = []
    for row in m:
        acc = GaussRational(0)
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def _reference_decompose(a):
    if a.is_zero():
        return {}
    k = a.degree()
    basis_k, blocks, inv = _reference_decomposition_data(a.n, k)
    x = iter(_matvec(inv, [a.coefficient(mono) for mono in basis_k]))
    parts = {}
    for r, prim in blocks:
        acc = Form.zero(a.n)
        for b in prim:
            acc = acc + b * next(x)
        if not acc.is_zero():
            parts[r] = acc
    return parts


@lru_cache(maxsize=None)
def _reference_projection_data(n, k):
    basis = primitive_basis(n, k)
    gram_t = [[inner(bj, bi) for bj in basis] for bi in basis]
    return basis, _dense_inverse(gram_t)


def _reference_projection(a):
    out = Form.zero(a.n)
    for k, part in a.homogeneous_parts().items():
        basis, inv = _reference_projection_data(a.n, k)
        coeffs = _matvec(inv, [inner(part, b) for b in basis])
        for c, b in zip(coeffs, basis):
            out = out + b * c
    return out


def _reference_dual_lefschetz(a):
    """sum over degree k-2 monomials nu of <a, L nu> nu, per degree k."""
    out = Form.zero(a.n)
    for k in a.degrees():
        for nu in monomial_basis(a.n, k - 2):
            out = out + _mono_form(a.n, nu) * inner(a, lefschetz_L(_mono_form(a.n, nu)))
    return out


def _coefficients(rng, n, k, kind):
    basis = monomial_basis(n, k)
    if kind == "large":
        big = 2 ** 31
        return Form(n, {
            mono: GaussRational(big - rng.randint(0, 9), rng.randint(-big, big))
            for mono in basis
        })
    terms = {}
    for mono in basis:
        if rng.random() < 0.3:
            continue
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        den = rng.choice((1, 2, 3, 7, 12)) if kind == "rational" else 1
        terms[mono] = GaussRational(Fraction(x, den), Fraction(y, den))
    return Form(n, terms)


def _assert_same(got, want):
    assert got == want
    assert str(got) == str(want)


_COMPILED_CASES = [(n, k) for n in (1, 2, 3, 4) for k in range(2 * n + 1)]
_COMPILED_CASES += [(5, 0), (5, 3), (5, 5), (5, 8)]


@pytest.mark.parametrize("n,k", _COMPILED_CASES)
def test_compiled_operators_match_the_inverse_times_vector_route(n, k):
    rng = random.Random(1000 * n + k)
    for kind in ("integer", "rational", "large"):
        a = _coefficients(rng, n, k, kind)
        dec = primitive_decompose(a)
        want = _reference_decompose(a)
        assert sorted(dec.parts) == sorted(want)
        for r, part in want.items():
            _assert_same(dec.parts[r], part)
        _assert_same(primitive_projection(a), _reference_projection(a))
        _assert_same(dual_lefschetz(a), _reference_dual_lefschetz(a))
    # mixed-degree inputs: every degree up to k, plus the top one
    mixed = Form.zero(n)
    for j in sorted({0, k // 2, k, 2 * n}):
        mixed = mixed + _coefficients(rng, n, j, "rational")
    _assert_same(primitive_projection(mixed), _reference_projection(mixed))
    _assert_same(dual_lefschetz(mixed), _reference_dual_lefschetz(mixed))


# ---- compiled tables on batches against the dict path and the references -------


def _batch_rows(rng, n, k, bound=5):
    """Degree-k forms with row denominators 1, 2, 3 and 6, and a zero row."""
    rows = []
    for den in (1, 2, 3, 6):
        terms = {}
        for mono in monomial_basis(n, k):
            if rng.random() < 0.25:
                continue
            terms[mono] = GaussRational(
                Fraction(rng.randint(-bound, bound), den),
                Fraction(rng.randint(-bound, bound), den),
            )
        rows.append(Form(n, terms))
    return rows + [Form.zero(n)]


def _forms(batch):
    return [batch.form(t) for t in range(batch.rows)]


def _reference_weil(a):
    return Form(a.n, {
        m: c * GaussRational.i_power(len(m.s) - len(m.t)) for m, c in a.terms.items()
    })


def _reference_power(a, j):
    out = a
    for _ in range(j):
        out = kahler_form(a.n).wedge(out)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_tables_on_batches_match_the_references_row_by_row(n):
    rng = random.Random(7000 + n)
    for k in range(2 * n + 1):
        forms = _batch_rows(rng, n, k)
        batch = Batch.of(n, k, forms)
        for j in range(n + 2):
            power = lefschetz_power(batch, j)
            assert power.k == k + 2 * j
            assert _forms(power) == [_reference_power(a, j) for a in forms]
        assert _forms(lefschetz_L(batch)) == [lefschetz_L(a) for a in forms]
        assert _forms(dual_lefschetz(batch)) == [_reference_dual_lefschetz(a) for a in forms]
        assert _forms(hodge_star(batch)) == [hodge_star(a) for a in forms]
        assert _forms(star_inverse(hodge_star(batch))) == forms
        assert _forms(weil_operator(batch)) == [_reference_weil(a) for a in forms]
        assert _forms(primitive_projection(batch)) == [_reference_projection(a) for a in forms]
        parts = primitive_decompose(batch).parts
        for t, a in enumerate(forms):
            want = _reference_decompose(a)
            got = {r: part.form(t) for r, part in parts.items() if not part.form(t).is_zero()}
            assert got == want
            assert {r: str(p) for r, p in got.items()} == {r: str(p) for r, p in want.items()}
        if k <= n:
            other = Batch.of(n, k, _batch_rows(rng, n, k))
            pairing = hr_pairing(batch, other)
            assert [p.coefficient(Monomial((), ())) for p in _forms(pairing)] == [
                hr_pairing(a, b) if not (a.is_zero() or b.is_zero()) else GaussRational(0)
                for a, b in zip(forms, _forms(other))
            ]


def test_compiled_tables_on_python_int_batches_match_the_references():
    rng = random.Random(77)
    n, k = 3, 3
    forms = [a * GaussRational(2 ** 62 + 1, 3) for a in _batch_rows(rng, n, k)]
    batch = Batch.of(n, k, forms)
    assert batch.num.dtype == object
    assert _forms(dual_lefschetz(batch)) == [_reference_dual_lefschetz(a) for a in forms]
    assert _forms(primitive_projection(batch)) == [_reference_projection(a) for a in forms]
    assert _forms(lefschetz_power(batch, 2)) == [_reference_power(a, 2) for a in forms]
    assert _forms(hodge_star(hodge_star(batch))) == [-a for a in forms]


# ---- compiled tables: least denominators; the decomposition beyond references --


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_compiled_table_is_over_its_least_common_denominator(n):
    """gcd(den, numerators) = 1 for every table, so that the bound a pass
    derives from the numerators is never inflated by a common factor;
    and the projector is the r = 0 decomposition table."""
    tables = []
    for k in range(2 * n + 1):
        tables += [_conjugation_table(n, k), _star_table(n, k), _weil_table(n, k),
                   _projection_table(n, k)]
        tables += [_power_table(n, k, j) for j in range(1, (2 * n - k) // 2 + 1)]
        if k >= 2:
            tables.append(_dual_lefschetz_table(n, k))
        decomposition = _decomposition_tables(n, k)
        tables += [table for _, table in decomposition]
        if k <= n:
            assert decomposition[0][0] == 0
            assert _projection_table(n, k) is decomposition[0][1]
        else:
            assert _projection_table(n, k).src.size == 0
    for table in tables:
        re, im = _parts(table.coef)
        assert gcd(table.den, *re.tolist(), *im.tolist()) == 1


@pytest.mark.parametrize("k", [3, 6, 9])
def test_decomposition_at_dimension_six_recomposes_into_primitive_parts(k):
    """At n = 6, where no dense inverse reference is affordable: the parts
    a_r of a seeded batch have degree k - 2r, are primitive, and sum_r L^r a_r
    gives a back."""
    n = 6
    rng = np.random.default_rng(600 + k)
    shape = (4, comb(2 * n, k))
    a = gaussian_batch(n, k, rng.integers(-9, 10, shape), rng.integers(-9, 10, shape), 6)
    parts = primitive_decompose(a).parts
    assert sorted(parts) == list(range(max(0, k - n), k // 2 + 1))
    total = None
    for r, part in parts.items():
        assert part.k == k - 2 * r
        assert dual_lefschetz(part).is_zero().all()
        term = lefschetz_power(part, r)
        total = term if total is None else total + term
    assert (total - a).is_zero().all()


# ---- compiled tables against pushing the identity through the operators -------


def _reference_star_table(n, k):
    """The star by its defining relation, wedging unit forms: *mu is the
    multiple of the swapped complement nu with mu ^ conj(*mu) = dV."""
    full = range(1, n + 1)
    v = volume_form(n).coefficient(Monomial(tuple(full), tuple(full)))
    columns = {}
    for mu in monomial_basis(n, k):
        nu = Monomial(tuple(a for a in full if a not in mu.t), tuple(a for a in full if a not in mu.s))
        pairing = _mono_form(n, mu).wedge(conjugate(_mono_form(n, nu))).terms
        (c,) = pairing.values()
        columns[mu] = {nu: (v / c).conjugate()}
    return _compiled(n, k, 2 * n - k, columns)


def _reference_decomposition_tables(n, k):
    """The parts a_r = sum_t c_(r,t) L^t Lambda^(r+t) a, learned by pushing
    the identity of degree k through the dual Lefschetz and L^t batches."""
    def part(r):
        def op(units):
            chain = [units]
            while chain[-1].k >= 2:
                chain.append(dual_lefschetz(chain[-1]))
            total = None
            for t in range((k - 2 * r) // 2 + 1):
                term = lefschetz_power(chain[r + t], t) * _decomposition_coefficient(n - k, r, t)
                total = term if total is None else total + term
            return total
        return pushed(op, n, k, k - 2 * r)
    return [(r, part(r)) for r in range(max(0, k - n), k // 2 + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_decomposition_and_projector_tables_match_the_pushed_identity(n):
    for k in range(2 * n + 1):
        assert same_fields(_star_table(n, k), _reference_star_table(n, k))
        want = _reference_decomposition_tables(n, k)
        got = _decomposition_tables(n, k)
        assert [r for r, _ in got] == [r for r, _ in want]
        assert all(same_fields(a, b) for (_, a), (_, b) in zip(got, want))
        if k <= n:
            assert same_fields(_projection_table(n, k), want[0][1])
