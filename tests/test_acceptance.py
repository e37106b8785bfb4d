"""Acceptance gate: the eight headline checks, one test per check.

Each test prints a single self-describing pass/fail line.  Check 3b audits
the degree constant c_k against its bidegree family {c_pq : p+q = k}.
c_k is the constant of the near-middle bidegree (ceil(k/2), floor(k/2)),
not the family minimum: below the middle degree

    c_pq(n,p,q) = 1/4 * prod_{i=1..p} ((i+1)/(n-k+i))^4,

every factor is at most 1 (equal to 1 only when n-k = 1), so the constant
falls as p grows and the unbalanced end (k, 0) undercuts c_k once k >= 2
and n-k >= 2.  3b checks the four rules this closed form implies,
including the one that bounds what c_k may claim: on a Kaehler manifold
complex conjugation maps (p,q)-forms isometrically onto (q,p)-forms and
commutes with the Laplacian, so a bound for one bidegree holds for the
other, and c_k must not exceed the conjugation-closed family minimum.
"""

import time
from fractions import Fraction

import pytest

from kahlerlab.bounds import c_k, c_pq, middle_k_bound, verify_ck_is_min
from kahlerlab.domains import (
    domain,
    eta_min_sq,
    kh_length_sq,
    lambda0_bound,
    type_I,
    type_II,
    type_III,
    type_IV,
    type_V,
    type_VI,
)
from kahlerlab.exterior import Form, GaussRational
from kahlerlab.harness import RandomSpec, check_star_primitive, run_all, run_suite
from kahlerlab.kaehler import (
    hodge_star,
    kahler_form,
    lefschetz_L,
    lefschetz_power,
    norm_ratio,
    primitive_basis,
)
from kahlerlab.spectral import (
    RealHyperbolic,
    lambda0_estimate,
    richardson_extrapolate,
    sharpness_report,
)

SEED = 42


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_1_exact_identity_suites_all_dimensions():
    """Every identity suite passes exactly at n = 1..4, 100 trials, seed 42."""
    t0 = time.perf_counter()
    reports = []
    for n in (1, 2, 3, 4):
        reports.extend(run_all(n, 100, RandomSpec(seed=SEED)))
    elapsed = time.perf_counter() - t0
    failures = [r for r in reports if not r.passed]
    ok = not failures and elapsed < 60.0
    _line(
        "1",
        ok,
        f"identity suites n=1..4, 100 trials each, {len(reports)} reports, "
        f"{elapsed:.1f}s",
    )
    assert not failures, "\n".join(r.to_json() for r in failures)
    assert elapsed < 60.0, f"identity suites took {elapsed:.1f}s"


def test_2_inequality_suites_with_saturation_witnesses():
    """Two-sided power bounds and wedge-norm bounds: >= 10^4 trials, no
    violations, and both saturation witnesses hit their bound exactly."""
    n = 3
    pinch = run_suite("prop33", n, 2500, RandomSpec(seed=SEED))
    wedge = run_suite("federer", n, 700, RandomSpec(seed=SEED))
    # sweep sizes: 4 bidegree combinations and 16 degree pairs at n = 3
    pinch_total = 2500 * 4
    wedge_total = 700 * 16
    w = kahler_form(n)
    upper_ratio = norm_ratio(lefschetz_L(w), w)
    prim = primitive_basis(n, 2)[0]
    lower_ratio = norm_ratio(lefschetz_power(prim, 1), prim)
    ok = (
        pinch.passed
        and wedge.passed
        and pinch_total >= 10 ** 4
        and wedge_total >= 10 ** 4
        and upper_ratio == Fraction(4)
        and lower_ratio == Fraction(1)
    )
    _line(
        "2",
        ok,
        f"pinch suite {pinch_total} trials, wedge suite {wedge_total} trials, "
        f"saturation ratios {upper_ratio} and {lower_ratio}",
    )
    assert pinch.passed, pinch.to_json()
    assert wedge.passed, wedge.to_json()
    assert pinch_total >= 10 ** 4 and wedge_total >= 10 ** 4
    assert upper_ratio == Fraction(4)
    assert lower_ratio == Fraction(1)


def test_3a_constant_table_fixtures():
    """Hand-evaluated constant fixtures and the reflection symmetry."""
    ok = (
        c_k(3, 1) == Fraction(4, 81)
        and c_k(2, 0) == Fraction(1, 4)
        and c_k(3, 5) == c_k(3, 1)
        and c_pq(3, 1, 0) == Fraction(4, 81)
        and middle_k_bound(3) == Fraction(1, 4)
    )
    _line("3a", ok, "pinned constant fixtures and reflection symmetry")
    assert c_k(3, 1) == Fraction(4, 81)
    assert c_k(2, 0) == Fraction(1, 4)
    assert c_k(3, 5) == c_k(3, 1)
    assert c_pq(3, 1, 0) == Fraction(4, 81)
    assert middle_k_bound(3) == Fraction(1, 4)


def test_3b_degree_constant_minimality_over_family():
    """Audit c_k(n,k) against {c_pq(n,p,q) : p+q = k} for all n <= 6, k != n.

    With j = min(k, 2n-k), the degree reflected below the middle:

    1. the family minimum never exceeds c_k, since c_k is a family member;
    2. c_k is the family minimum exactly when j <= 1 (its bidegree
       (ceil(j/2), floor(j/2)) is then the unbalanced end itself) or n-j = 1
       (every factor of the closed form is 1), which leaves twelve undercut
       pairs;
    3. every undercut has its argmin at the unbalanced end, (j, 0) below
       the middle and its reflection (k-n, n) above it, because c_pq falls
       strictly as p grows once n-j >= 2;
    4. c_k <= min over p+q = k of max(c_pq(n,p,q), c_pq(n,q,p)): conjugation
       carries a bound for (p,q)-forms to (q,p)-forms, so each conjugate
       pair supports the larger of its two constants, and that minimum sits
       at (floor(k/2), ceil(k/2)).  Equality holds exactly when j is even
       (the two near-middle bidegrees coincide) or n-j = 1.
    """
    t0 = time.perf_counter()
    undercut = []
    broken = []
    for n in range(1, 7):
        for k in range(2 * n + 1):
            if k == n:
                continue
            report = verify_ck_is_min(n, k)
            j = min(k, 2 * n - k)
            family = [(p, k - p) for p in range(max(0, k - n), min(k, n) + 1)]
            conjugation_min = min(
                max(c_pq(n, p, q), c_pq(n, q, p)) for p, q in family
            )
            ck = report.degree_value
            unbalanced_end = (j, 0) if k < n else (k - n, n)
            if not report.passed:
                undercut.append((n, k))
            rules = {
                "minimum <= degree value": report.minimum <= report.degree_value,
                "audit passes iff j <= 1 or n-j = 1": report.passed
                == (j <= 1 or n - j == 1),
                "undercut argmin at the unbalanced end": report.passed
                or report.argmin == unbalanced_end,
                "c_k <= conjugation-closed minimum": ck <= conjugation_min,
                "equality iff j even or n-j = 1": (ck == conjugation_min)
                == (j % 2 == 0 or n - j == 1),
            }
            broken.extend(
                f"(n={n},k={k}) {rule}" for rule, held in rules.items() if not held
            )
    elapsed = time.perf_counter() - t0
    ok = not broken and len(undercut) == 12 and elapsed < 1.0
    _line(
        "3b",
        ok,
        f"degree constant against its bidegree family over n <= 6 "
        f"({len(undercut)} undercut pairs, {len(broken)} broken rules, "
        f"{elapsed:.2f}s)",
    )
    assert elapsed < 1.0
    assert not broken, "; ".join(broken)
    assert len(undercut) == 12, undercut


def test_4_domain_tables_closed_forms():
    """Classical domain bottoms match the closed forms for all parameters
    up to 50, plus the pinned spot values and eta_min_sq = L^2/2."""
    checked = 0
    for p in range(1, 51):
        for q in range(p, 51):
            spec = domain(type_I(p, q))
            assert lambda0_bound(spec) == Fraction((p * q) ** 2, 2 * p * (p + q))
            checked += 1
    for m in range(2, 51):
        spec = domain(type_II(m))
        assert lambda0_bound(spec) == Fraction(m * m * (m - 1), 16 * (m // 2))
        checked += 1
    for m in range(1, 51):
        spec = domain(type_III(m))
        assert lambda0_bound(spec) == Fraction(m * (m + 1), 8)
        checked += 1
    for m in range(3, 51):
        spec = domain(type_IV(m))
        assert lambda0_bound(spec) == Fraction(m, 4)
        checked += 1
    assert lambda0_bound(domain(type_V())) == Fraction(16, 3)
    assert lambda0_bound(domain(type_VI())) == Fraction(27, 4)
    assert lambda0_bound(domain(type_IV(5))) == Fraction(5, 4)
    for factor in (type_I(3, 7), type_II(6), type_III(4), type_IV(9),
                   type_V(), type_VI()):
        spec = domain(factor)
        assert eta_min_sq(spec) == kh_length_sq(spec) / 2
        checked += 1
    _line("4", True, f"domain closed forms, {checked + 2} cases")


def test_5_disc_bottom_extrapolates_to_one_quarter():
    """Hyperbolic disc Dirichlet values decrease in R, exceed 1/4, and the
    a + b/R^2 fit over R in {25, 50, 100} (N = 1000 R) lands in
    [0.249, 0.251]."""
    t0 = time.perf_counter()
    model = RealHyperbolic(2)
    samples = []
    for radius in (25.0, 50.0, 100.0):
        res = lambda0_estimate(model, radius, int(1000 * radius))
        assert res.residual <= 1e-10
        samples.append((radius, res.lambda_min))
    elapsed = time.perf_counter() - t0
    values = [v for _, v in samples]
    extrapolated = richardson_extrapolate(samples)
    ok = (
        values[0] > values[1] > values[2] > 0.25
        and 0.249 <= extrapolated <= 0.251
        and elapsed < 120.0
    )
    _line(
        "5",
        ok,
        f"disc bottom {values[2]:.8f} at R=100, extrapolated "
        f"{extrapolated:.6f}, {elapsed:.0f}s",
    )
    assert values[0] > values[1] > values[2] > 0.25
    assert values[0] == pytest.approx(0.2642111332, rel=1e-6)
    assert values[1] == pytest.approx(0.2537390066, rel=1e-6)
    assert values[2] == pytest.approx(0.2509602034, rel=1e-6)
    assert 0.249 <= extrapolated <= 0.251
    assert elapsed < 120.0, f"disc study took {elapsed:.0f}s"


def test_6_ball_sharpness_across_dimensions():
    """Einstein-normalized ball bottoms extrapolate to n^2/2 within 1% for
    n = 1, 2, 3, and the n = 1 case agrees with the disc after transport."""
    ratios = {}
    ch1_scaled = None
    for n in (1, 2, 3):
        rep = sharpness_report(n)
        ratios[n] = rep.ratio
        assert rep.passed, f"n={n} ratio {rep.ratio}"
        if n == 1:
            ch1_scaled = rep.extrapolated_scaled
    disc = RealHyperbolic(2)
    disc_samples = [
        (r, lambda0_estimate(disc, r, 30000).lambda_min) for r in (15.0, 20.0, 30.0)
    ]
    disc_extrapolated = richardson_extrapolate(disc_samples)
    transport = ch1_scaled / (2.0 * disc_extrapolated)
    ok = all(0.99 <= r <= 1.01 for r in ratios.values()) and 0.99 <= transport <= 1.01
    _line(
        "6",
        ok,
        "ball ratios "
        + ", ".join(f"n={n}: {r:.6f}" for n, r in ratios.items())
        + f", disc transport {transport:.6f}",
    )
    for n, ratio in ratios.items():
        assert 0.99 <= ratio <= 1.01, f"n={n} ratio {ratio}"
    assert 0.99 <= transport <= 1.01


def test_7_grid_convergence_second_order_with_tiny_residuals():
    """Observed eigenvalue convergence order in [1.8, 2.2] at R = 20 under
    N -> 2N -> 4N, residuals at or below 1e-10 and Temple brackets at most
    1e-10 either side throughout."""
    model = RealHyperbolic(2)
    radius = 20.0
    values = []
    for cells in (800, 1600, 3200):
        res = lambda0_estimate(model, radius, cells)
        assert res.residual <= 1e-10, f"N={cells} residual {res.residual}"
        half_width = (res.bracket_hi - res.bracket_lo) / 2
        assert res.bracket_lo <= res.lambda_min <= res.bracket_hi
        assert half_width <= 1e-10, f"N={cells} bracket half-width {half_width}"
        values.append(res.lambda_min)
    import math

    order = math.log2((values[0] - values[1]) / (values[1] - values[2]))
    ok = 1.8 <= order <= 2.2
    _line("7", ok, f"grid order {order:.4f} at R=20")
    assert 1.8 <= order <= 2.2, f"observed order {order}"


def test_8_flipped_star_sign_is_detected():
    """Deliberately negating the star operator must trip the harness at
    n = 2; a silent pass would mean the identity checks are vacuous."""

    def flipped(a: Form) -> Form:
        return hodge_star(a) * GaussRational(-1)

    report = check_star_primitive(2, 10, RandomSpec(seed=SEED), star_fn=flipped)
    ok = (not report.passed) and len(report.failures) >= 1
    _line("8", ok, f"flipped star trips {len(report.failures)} checks at n=2")
    assert not report.passed
    assert len(report.failures) >= 1
    record = report.failures[0]
    assert record.lhs != record.rhs
    clean = check_star_primitive(2, 10, RandomSpec(seed=SEED))
    assert clean.passed
