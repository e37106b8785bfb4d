"""Bounded symmetric domain invariants and the lambda_0 bound tables."""

from fractions import Fraction

import pytest

from kahlerlab.bounds import c_k, middle_k_bound
from kahlerlab.domains import (
    BoundReport,
    DegreeBound,
    DomainFactor,
    classical_table,
    degree_k_bounds,
    domain,
    eta_min_sq,
    factor_invariants,
    hsc_upper_bound,
    kh_length_sq,
    lambda0_bound,
    parse_product,
    type_I,
    type_II,
    type_III,
    type_IV,
    type_V,
    type_VI,
)


def test_factor_invariants_tables():
    assert factor_invariants(type_I(2, 3)) == (6, 5, 2)
    assert factor_invariants(type_I(1, 4)) == (4, 5, 1)
    assert factor_invariants(type_II(5)) == (10, 8, 2)
    assert factor_invariants(type_II(6)) == (15, 10, 3)
    assert factor_invariants(type_III(3)) == (6, 4, 3)
    assert factor_invariants(type_IV(7)) == (7, 7, 2)
    assert factor_invariants(type_V()) == (16, 12, 2)
    assert factor_invariants(type_VI()) == (27, 18, 3)


def test_factor_parameter_validation():
    with pytest.raises(ValueError):
        type_I(0, 3)
    with pytest.raises(ValueError):
        type_I(3, 2)
    with pytest.raises(ValueError):
        type_II(1)
    with pytest.raises(ValueError):
        type_III(0)
    with pytest.raises(ValueError):
        type_IV(2)
    with pytest.raises(ValueError):
        DomainFactor("V", m=3)
    with pytest.raises(ValueError):
        DomainFactor("I", p=2, q=3, m=1)
    with pytest.raises(ValueError):
        DomainFactor("VII")
    with pytest.raises(ValueError):
        domain()


def test_factor_parameters_must_be_integers():
    # a float or a bool would make a factor labelled IV(3.5) or I(True,2)
    with pytest.raises(ValueError, match="integers? 3 <= m, got m=3.5"):
        DomainFactor("IV", m=3.5)
    with pytest.raises(ValueError, match="got p=True, q=2"):
        type_I(True, 2)
    factor = DomainFactor("IV", m=3)
    assert factor.label() == "IV(3)" and factor_invariants(factor) == (3, 3, 2)


def _closed_form_lambda0(factor: DomainFactor) -> Fraction:
    f = factor.family
    if f == "I":
        p, q = factor.p, factor.q
        return Fraction((p * q) ** 2, 2 * p * (p + q))
    if f == "II":
        m = factor.m
        return Fraction(m * m * (m - 1), 16 * (m // 2))
    if f == "III":
        m = factor.m
        return Fraction(m * (m + 1), 8)
    if f == "IV":
        return Fraction(factor.m, 4)
    return Fraction(16, 3) if f == "V" else Fraction(27, 4)


def test_lambda0_closed_forms_over_wide_ranges():
    factors = [type_I(p, q) for p in range(1, 13) for q in range(p, 13)]
    factors += [type_II(m) for m in range(2, 16)]
    factors += [type_III(m) for m in range(1, 16)]
    factors += [type_IV(m) for m in range(3, 25)]
    factors += [type_V(), type_VI()]
    for factor in factors:
        spec = domain(factor)
        assert lambda0_bound(spec) == _closed_form_lambda0(factor), factor.label()


def test_lambda0_pinned_values():
    assert lambda0_bound(domain(type_IV(5))) == Fraction(5, 4)
    assert lambda0_bound(domain(type_V())) == Fraction(16, 3)
    assert lambda0_bound(domain(type_VI())) == Fraction(27, 4)
    assert lambda0_bound(domain(type_III(1))) == Fraction(1, 4)
    assert lambda0_bound(domain(type_I(1, 1))) == Fraction(1, 4)


def test_unit_ball_chain():
    n = 4
    ball = domain(type_I(1, n))
    assert ball.dimension == n
    assert kh_length_sq(ball) == n + 1
    assert hsc_upper_bound(ball, ricci=Fraction(n + 1)) == Fraction(2)
    assert lambda0_bound(ball, ricci=Fraction(n + 1)) == Fraction(n * n, 2)


def test_length_sq_additivity_and_ricci_linearity():
    a = type_I(2, 3)
    b = type_IV(5)
    prod = domain(a, b)
    assert kh_length_sq(prod) == kh_length_sq(domain(a)) + kh_length_sq(domain(b))
    assert prod.dimension == 11
    assert lambda0_bound(prod, ricci=Fraction(3)) == 3 * lambda0_bound(prod)
    assert hsc_upper_bound(prod, ricci=Fraction(3)) == 3 * hsc_upper_bound(prod)
    assert eta_min_sq(prod) == kh_length_sq(prod) / 2
    with pytest.raises(ValueError):
        lambda0_bound(prod, ricci=Fraction(0))


def test_eta_min_sq_is_half_length_sq():
    for factor in (type_I(2, 2), type_II(4), type_III(3), type_IV(6), type_V()):
        spec = domain(factor)
        assert eta_min_sq(spec) == kh_length_sq(spec) / 2


def test_parse_product_round_trips():
    for text, expected in [
        ("I(2,3)", domain(type_I(2, 3))),
        ("IV(5)", domain(type_IV(5))),
        ("V", domain(type_V())),
        ("I(1,2)xIV(3)", domain(type_I(1, 2), type_IV(3))),
        ("II(4) * VI", domain(type_II(4), type_VI())),
    ]:
        spec = parse_product(text)
        assert spec == expected
        assert parse_product(spec.label()) == spec


def test_parse_product_rejects_malformed_input():
    for bad in ("VII", "I(2)", "I", "IV", "IV(2,3)", "V(1)", "", "I(3,2)x", "Q(1)"):
        with pytest.raises(ValueError):
            parse_product(bad)


def test_degree_k_bounds_rows():
    spec = domain(type_I(2, 3))
    rows = degree_k_bounds(spec)
    n = spec.dimension
    assert rows[0].k == 0 and rows[0].route == "function route (sharper)"
    assert rows[0].value == Fraction(9, 5)
    assert rows[1].k == 0 and rows[1].route == "degree constant"
    assert rows[1].value == Fraction(1, 20)
    middle = [r for r in rows if r.route == "middle degree substitute"]
    assert len(middle) == 1 and middle[0].k == n
    assert {r.k for r in rows} == set(range(2 * n + 1))
    assert len(rows) == 2 * n + 2


def test_degree_k_bounds_disc():
    disc = domain(type_III(1))
    rows = degree_k_bounds(disc)
    assert rows[0].value == Fraction(1, 4)
    assert rows[1].value == Fraction(1, 4)
    assert rows[2].value == Fraction(1, 4)
    assert rows[2].route == "middle degree substitute"


@pytest.mark.parametrize("label", [
    "III(1)", "I(2,3)xIV(5)", "II(5)xIII(3)xI(1,4)", "VxI(3,8)", "IV(20)xIII(6)xI(1,9)",
])
@pytest.mark.parametrize("ricci", [Fraction(1), Fraction(3, 2)])
def test_degree_k_bounds_match_the_per_degree_constants(label, ricci):
    spec = parse_product(label)
    n = spec.dimension
    scale = 2 * ricci / kh_length_sq(spec)
    rows = degree_k_bounds(spec, ricci)
    assert rows[0] == DegreeBound(0, lambda0_bound(spec, ricci), "function route (sharper)")
    assert [row.k for row in rows[1:]] == list(range(2 * n + 1))
    for row in rows[1:]:
        if row.k == n:
            expected = DegreeBound(n, middle_k_bound(n) * scale, "middle degree substitute")
        else:
            expected = DegreeBound(row.k, c_k(n, row.k) * scale, "degree constant")
        assert row == expected


def test_bound_report_build():
    rep = BoundReport.build(domain(type_IV(5)), ricci=Fraction(2))
    assert rep.dimension == 5
    assert rep.length_sq == 10
    assert rep.hsc_bound == Fraction(2, 5)
    assert rep.lambda0 == Fraction(5, 2)
    assert rep.eta_sq == Fraction(5)


# every classical factor with parameters at most 6, family by family
SWEEP_LABELS = [
    "I(1,1)", "I(1,2)", "I(1,3)", "I(1,4)", "I(1,5)", "I(1,6)",
    "I(2,2)", "I(2,3)", "I(2,4)", "I(2,5)", "I(2,6)",
    "I(3,3)", "I(3,4)", "I(3,5)", "I(3,6)",
    "I(4,4)", "I(4,5)", "I(4,6)", "I(5,5)", "I(5,6)", "I(6,6)",
    "II(2)", "II(3)", "II(4)", "II(5)", "II(6)",
    "III(1)", "III(2)", "III(3)", "III(4)", "III(5)", "III(6)",
    "IV(3)", "IV(4)", "IV(5)", "IV(6)", "V", "VI",
]


def test_classical_table_default_sweep():
    table = classical_table()
    assert [rep.spec.label() for rep in table] == SWEEP_LABELS
    for rep in table:
        assert parse_product(rep.spec.label()) == rep.spec
    by_label = {rep.spec.label(): rep for rep in table}
    assert by_label["IV(5)"].lambda0 == Fraction(5, 4)
    assert by_label["I(1,1)"].lambda0 == Fraction(1, 4)
    for rep in table:
        assert rep.lambda0 > 0
        assert rep.eta_sq == rep.length_sq / 2

    assert classical_table(Fraction(2))[SWEEP_LABELS.index("IV(5)")].lambda0 == Fraction(5, 2)
