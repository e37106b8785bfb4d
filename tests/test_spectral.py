"""Radial eigensolver: assembly, certified bracket, refinement, extrapolation.

Small dense assemblies are cross-checked against numpy's symmetric
eigensolver, and the Temple brackets and the LAPACK Sturm count against a
Python Sturm count in long double; model scaling laws are exact by
construction and asserted exactly.
"""

import math

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack

from kahlerlab.spectral import (
    BisectionResult,
    ComplexHyperbolic,
    EigenResult,
    RealHyperbolic,
    assemble_tridiagonal,
    lambda0_estimate,
    richardson_extrapolate,
    sharpness_report,
    smallest_eigenvalue,
    smallest_eigenvalue_detailed,
)


def _dense(diag, off):
    n = len(diag)
    m = np.diag(np.asarray(diag, dtype=float))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = off[i]
    return m


def test_bisection_fixed_matrices():
    assert smallest_eigenvalue(np.array([3.0]), np.array([])) == pytest.approx(3.0)
    diag = np.array([2.0, 2.0])
    off = np.array([-1.0])
    assert smallest_eigenvalue(diag, off) == pytest.approx(1.0, abs=1e-11)
    diag = np.array([5.0, -1.0, 7.0])
    off = np.array([0.0, 0.0])
    assert smallest_eigenvalue(diag, off) == pytest.approx(-1.0, abs=1e-11)


def test_bisection_matches_dense_oracle_on_random_matrices():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        diag = rng.normal(size=n) * 3.0
        off = rng.normal(size=n - 1)
        expected = np.linalg.eigvalsh(_dense(diag, off))[0]
        got = smallest_eigenvalue(diag, off)
        assert got == pytest.approx(expected, abs=1e-10, rel=1e-10)


def test_bisection_result_brackets_the_value():
    diag = np.array([2.0, 3.0, 4.0])
    off = np.array([-1.0, -0.5])
    res = smallest_eigenvalue_detailed(diag, off)
    assert isinstance(res, BisectionResult)
    assert res.lo <= res.value <= res.hi
    assert res.hi - res.lo <= 1e-11
    assert res.iterations == 1


def test_bisection_input_validation():
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([1.0, 2.0]), np.array([]))


def test_model_validation():
    with pytest.raises(ValueError):
        RealHyperbolic(1)
    with pytest.raises(ValueError):
        RealHyperbolic(3, curvature=0.0)
    with pytest.raises(ValueError):
        RealHyperbolic(3, curvature=-2.0)
    with pytest.raises(ValueError):
        ComplexHyperbolic(0)
    assert RealHyperbolic(4).spectral_bottom == pytest.approx(9.0 / 4.0)
    assert ComplexHyperbolic(3).spectral_bottom == pytest.approx(9.0)
    assert RealHyperbolic(2).describe()["kind"] == "real_hyperbolic"
    assert ComplexHyperbolic(1).describe() == {"kind": "complex_hyperbolic", "n": 1}


def test_assembly_validation():
    model = RealHyperbolic(2)
    with pytest.raises(ValueError):
        assemble_tridiagonal(model, 0.0, 100)
    with pytest.raises(ValueError):
        assemble_tridiagonal(model, -1.0, 100)
    with pytest.raises(ValueError):
        assemble_tridiagonal(model, 5.0, 1)
    with pytest.raises(ValueError, match="overflow"):
        assemble_tridiagonal(RealHyperbolic(9), 2000.0, 10)


def test_assembly_shapes_and_symmetry_signs():
    diag, off = assemble_tridiagonal(ComplexHyperbolic(1), 10.0, 50)
    assert diag.shape == (50,) and off.shape == (49,)
    assert np.all(diag > 0)
    assert np.all(off < 0)


def test_real_hyperbolic_curvature_scaling_is_exact():
    base = lambda0_estimate(RealHyperbolic(3), 12.0, 600)
    scaled = lambda0_estimate(RealHyperbolic(3, curvature=2.5), 12.0, 600)
    assert scaled.lambda_min == base.lambda_min
    assert scaled.scaled_lambda == 2.5 * base.lambda_min
    assert base.scaled_lambda == base.lambda_min


def test_complex_hyperbolic_scaling_halves():
    res = lambda0_estimate(ComplexHyperbolic(2), 10.0, 500)
    assert res.scaled_lambda == res.lambda_min / 2.0


def test_eigenvalue_sits_above_the_essential_bottom():
    for model in (RealHyperbolic(2), RealHyperbolic(4), ComplexHyperbolic(1)):
        res = lambda0_estimate(model, 14.0, 700)
        assert res.lambda_min > model.spectral_bottom


def test_eigenvalue_decreases_with_radius():
    model = ComplexHyperbolic(1)
    values = [lambda0_estimate(model, r, 800).lambda_min for r in (6.0, 10.0, 14.0)]
    assert values[0] > values[1] > values[2]


def test_eigen_result_payload():
    res = lambda0_estimate(ComplexHyperbolic(1), 8.0, 400)
    assert isinstance(res, EigenResult)
    payload = res.to_dict()
    assert payload["model"] == {"kind": "complex_hyperbolic", "n": 1}
    assert payload["R"] == 8.0 and payload["N"] == 400
    assert "extrapolated" not in payload  # extrapolation belongs to a radius sweep
    assert "pivot_perturbations" not in payload
    assert "refined" not in payload  # lambda_min is always the polished quotient
    assert payload["residual"] < 1e-10


def test_refined_residual_is_certified_small():
    for cells in (2000, 5000):
        diag, off = assemble_tridiagonal(ComplexHyperbolic(1), 25.0, cells)
        res = lambda0_estimate(ComplexHyperbolic(1), 25.0, cells)
        norm_bound = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
        assert res.residual <= 1e-10
        assert res.residual < 1e-15 * norm_bound
        if cells <= 2000:  # small enough for the dense oracle
            v = np.linalg.eigvalsh(_dense(diag, off))[0]
            assert res.lambda_min == pytest.approx(v, rel=1e-9)
            # the bracket is far narrower than eigvalsh's own rounding
            _assert_certified(diag, off, res, 1e-13)


def test_certified_bracket_holds_the_returned_eigenvalue():
    # an LDL^T inertia bracket cannot be narrower than eps * ||T||_1: 1.5e-8
    # on the first grid and 0.019 on the second, where the first row,
    # ~2^29 / h^2, dominates the norm; Temple's bracket follows the rounding
    # of the quotient, eps_ld |v|^T |T| |v|, and r^2 / gap
    for model, radius, cells, half_width in [
        (RealHyperbolic(2), 25.0, 100000, 1e-10),
        (RealHyperbolic(30), 10.0, 2000, 1e-8),
    ]:
        diag, off = assemble_tridiagonal(model, radius, cells)
        res = lambda0_estimate(model, radius, cells)
        _assert_certified(diag, off, res, half_width)
        assert res.sturm_counts == 1
        # far below eps * ||T||_1, where a float64 solve alone stops
        assert res.residual < 1e-11


def _assert_certified(diag, off, res, half_width):
    """res's bracket holds its value, is at most 2 half_width wide, and the
    oracle finds no eigenvalue at or below lo and at least one at hi."""
    if isinstance(res, EigenResult):
        lo, value, hi = res.bracket_lo, res.lambda_min, res.bracket_hi
    else:
        lo, value, hi = res.lo, res.value, res.hi
    assert lo <= value <= hi
    assert hi - lo <= 2.0 * half_width
    assert _reference_count(diag, off, lo) == 0
    assert _reference_count(diag, off, hi) >= 1


def _negative_pivots(diag: list, off_sq: list, shift: float, tiny: float) -> int:
    """Reference Sturm count of eigenvalues below shift; a zero pivot is
    perturbed to -tiny, so it counts as negative."""
    count = 0
    d = diag[0] - shift
    if d == 0.0:
        d = -tiny
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        d = diag[i] - shift - off_sq[i - 1] / d
        if d == 0.0:
            d = -tiny
        if d < 0.0:
            count += 1
    return count


def _reference_count(diag, off, shift):
    """The count in long double.  A count is exact for T with entries moved
    by a few units of rounding times their size, which moves lambda_1 by up
    to about eps |v|^T |T| |v|: 1.4e-8 in float64 on 10^5 cells, where the
    brackets are 3e-11 wide, and 2048 times less in long double, where the
    brackets keep at least 2 eps_ld |v|^T |T| |v| on either side."""
    tiny = np.longdouble(math.ulp(max(float(np.abs(diag).max()), 1.0)))
    diag, off = np.asarray(diag, np.longdouble), np.asarray(off, np.longdouble)
    return _negative_pivots(list(diag), list(off * off), np.longdouble(shift), tiny)


def test_inertia_check_agrees_with_the_sturm_count_oracle():
    # the LAPACK count behind the bracket; solves of one row never count
    from kahlerlab.spectral import _count_below

    rng = np.random.default_rng(20261018)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(2, 50))
        diag = rng.normal(size=n) * 3.0
        off = rng.normal(size=n - 1)
        eigs = np.linalg.eigvalsh(_dense(diag, off))
        column = np.abs(diag)
        column[:-1] += np.abs(off)
        column[1:] += np.abs(off)
        margin = 8.0 * np.finfo(float).eps * column.max() * n
        for shift in rng.uniform(eigs[0] - 1.0, eigs[-1] + 1.0, size=12):
            if np.min(np.abs(eigs - shift)) <= margin:
                continue
            count = _reference_count(diag, off, float(shift))
            assert count == int(np.sum(eigs < shift))
            assert _count_below(diag, off, float(shift)) == count
            seen.add(min(count, 2))
    assert seen == {0, 1, 2}


def test_inertia_check_on_one_cell_and_on_zero_pivots():
    from kahlerlab.spectral import _count_below

    one, empty = np.array([3.0]), np.array([])
    res = smallest_eigenvalue_detailed(one, empty)
    assert (res.value, res.lo, res.hi, res.iterations, res.residual) == (3.0, 3.0, 3.0, 0, 0.0)
    assert smallest_eigenvalue_detailed(one, empty, (2.5, 4.0)) == res
    # the first pivot is exactly zero: counted, as the oracle counts it
    diag, off = np.array([2.0, 5.0, 7.0]), np.array([1.0, 1.0])
    assert _reference_count(diag, off, 2.0) >= 1
    assert _count_below(diag, off, 2.0) >= 1
    # the last pivot is exactly zero: the shift is the eigenvalue 0
    diag, off = np.array([1.0, 1.0]), np.array([1.0])
    assert _reference_count(diag, off, 0.0) == 1
    assert _count_below(diag, off, 0.0) == 1


def test_a_gap_estimate_above_lambda_2_is_refused_by_the_count(monkeypatch):
    model, radius, cells = RealHyperbolic(2), 25.0, 20000
    diag, off = assemble_tridiagonal(model, radius, cells)
    true = linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 1)
    )
    stebz, patched = linalg.eigh_tridiagonal, {"below": cells}

    def above(d, e, **kwargs):
        w = stebz(d, e, **kwargs)
        if len(d) < patched["below"]:
            # mu = (rho + w[1]) / 2 lies half a gap above lambda_2
            w[1] += 2.0 * (true[1] - true[0])
        return w

    # spectral imports scipy's routines where it calls them
    monkeypatch.setattr(linalg, "eigh_tridiagonal", above)
    res = lambda0_estimate(model, radius, cells)
    assert res.sturm_counts == 2  # the coarse pair's count, then stebz's
    _assert_certified(diag, off, res, 1e-10)
    patched["below"] = cells + 1  # stebz's lambda_2 is moved too
    with pytest.raises(np.linalg.LinAlgError):
        lambda0_estimate(model, radius, cells)


def test_oversized_inputs_are_refused_before_allocation():
    import tracemalloc

    from kahlerlab.spectral import MAX_CELLS

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ceiling"):
            assemble_tridiagonal(RealHyperbolic(2), 25.0, MAX_CELLS + 1)
        with pytest.raises(ValueError, match="ceiling"):
            assemble_tridiagonal(RealHyperbolic(2), 25.0, 10 ** 12)
        # the grid is allowed, but the density overflows at the outer radius
        with pytest.raises(ValueError, match="overflow"):
            assemble_tridiagonal(ComplexHyperbolic(3), 2000.0, MAX_CELLS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # one array of MAX_CELLS floats takes 8 MB


@pytest.mark.parametrize("model", [RealHyperbolic(2), ComplexHyperbolic(3)])
@pytest.mark.parametrize("radius", [1e-150, 1e-100, 1e-75])
def test_tiny_radii_are_refused_before_assembly(model, radius):
    # h^2, the first-cell density or the squared entries leave float64 here;
    # RuntimeWarnings are errors, so none may leak from the scalar checks
    with pytest.raises(ValueError, match="underflows|overflow when squared"):
        assemble_tridiagonal(model, radius, 100)
    # the largest radius each model refuses on 100 cells: the next smaller
    # one assembles and solves
    first_refused = {"real_hyperbolic": 1e-75, "complex_hyperbolic": 1e-29}
    allowed = first_refused[model.describe()["kind"]] * 10.0
    res = lambda0_estimate(model, allowed, 100)
    assert res.bracket_lo <= res.lambda_min <= res.bracket_hi
    assert res.residual <= 1e-15 * res.lambda_min


def test_a_sweep_checks_every_radius_before_the_first_solve(monkeypatch):
    from kahlerlab import spectral

    solves = _failing(
        monkeypatch, spectral, "lambda0_estimate", spectral.lambda0_estimate
    )
    with pytest.raises(ValueError, match="overflow"):
        sharpness_report(1, radii=(10.0, 15.0, 400.0), cells=4000)
    with pytest.raises(ValueError, match="distinct"):
        sharpness_report(1, radii=(10.0, 10.0), cells=4000)
    with pytest.raises(ValueError, match="ceiling"):
        sharpness_report(1, radii=(10.0, 15.0), cells=10 ** 7)
    assert solves == []


def test_neighbouring_weights_must_not_underflow_their_product():
    # w_1 w_2 ~ (h/2)^29 (3h/2)^29 underflows at h = 1e-6, though h^2 and
    # the entries are far inside float64
    with pytest.raises(ValueError, match="underflows"):
        assemble_tridiagonal(RealHyperbolic(30), 1.0, 10 ** 6)


def test_neighbouring_weights_must_not_overflow_their_product():
    # sinh(400) is finite but its square is not: sqrt(w_j w_j+1) would
    # overflow, zero an off-diagonal and split the matrix
    with pytest.raises(ValueError, match="overflow"):
        assemble_tridiagonal(RealHyperbolic(2), 400.0, 4000)
    diag, off = assemble_tridiagonal(RealHyperbolic(2), 350.0, 4000)
    assert np.all(np.isfinite(diag)) and np.all(off < 0)


def test_richardson_recovers_synthetic_tail():
    a, b = 0.25, 3.7
    samples = [(r, a + b / (r * r)) for r in (10.0, 20.0, 40.0)]
    assert richardson_extrapolate(samples) == pytest.approx(a, abs=1e-12)


def test_richardson_validation():
    with pytest.raises(ValueError):
        richardson_extrapolate([(10.0, 0.3)])
    with pytest.raises(ValueError):
        richardson_extrapolate([(10.0, 0.3), (10.0, 0.4)])


def test_disc_bottom_converges_toward_one_quarter():
    # the Dirichlet value carries a pi^2 / R^2 tail above the limit 1/4
    model = RealHyperbolic(2)
    lam_30 = lambda0_estimate(model, 30.0, 3000).lambda_min
    lam_60 = lambda0_estimate(model, 60.0, 6000).lambda_min
    assert 0.25 < lam_60 < lam_30 < 0.262
    assert abs(lam_30 - 0.25 - math.pi ** 2 / 900.0) < 2e-3


def test_sharpness_report_quick_run():
    rep = sharpness_report(1, radii=(10.0, 15.0), cells=4000, window=0.02)
    assert rep.n == 1
    assert rep.bound == pytest.approx(0.5)
    assert len(rep.samples) == 2
    assert rep.ratio == pytest.approx(rep.extrapolated_scaled / 0.5)
    assert rep.passed
    with pytest.raises(ValueError):
        sharpness_report(0)


def test_grid_refinement_is_second_order():
    model = RealHyperbolic(2)
    radius = 10.0
    lam_h = lambda0_estimate(model, radius, 250).lambda_min
    lam_h2 = lambda0_estimate(model, radius, 500).lambda_min
    lam_h4 = lambda0_estimate(model, radius, 1000).lambda_min
    order = math.log2((lam_h - lam_h2) / (lam_h2 - lam_h4))
    assert 1.8 <= order <= 2.2


def _failing(monkeypatch, owner, entry, replacement):
    """Route owner's entry (a LAPACK routine or a solver step) through
    replacement, counting calls; a replacement that calls the original
    saves it before this patch."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(entry)
        return replacement(*args, **kwargs)

    monkeypatch.setattr(owner, entry, failing)
    return calls


@pytest.mark.parametrize(
    "model, radius, cells",
    [(RealHyperbolic(2), 25.0, 100000), (ComplexHyperbolic(3), 15.0, 30000)],
)
def test_guided_bracket_is_certified_by_the_sturm_count_oracle(
    monkeypatch, model, radius, cells
):
    sizes = []
    stebz = linalg.eigh_tridiagonal
    monkeypatch.setattr(
        linalg, "eigh_tridiagonal",
        lambda d, e, **kwargs: sizes.append(len(d)) or stebz(d, e, **kwargs),
    )
    res = lambda0_estimate(model, radius, cells)
    assert sizes == [cells // 16]  # the coarse pair only: no full-grid stebz
    diag, off = assemble_tridiagonal(model, radius, cells)
    _assert_certified(diag, off, res, 1e-10)
    assert res.sturm_counts == 1


@pytest.mark.parametrize("model, radius", [
    (ComplexHyperbolic(2), 30.0), (ComplexHyperbolic(3), 15.0),
    (ComplexHyperbolic(3), 20.0), (ComplexHyperbolic(3), 30.0),
])
def test_a_coarse_grid_of_1024_cells_guides_grids_of_3000(monkeypatch, model, radius):
    # on 3000 // 16 = 187 cells the guess lay nearer lambda_2 on these grids
    sizes = []
    stebz = linalg.eigh_tridiagonal
    monkeypatch.setattr(
        linalg, "eigh_tridiagonal",
        lambda d, e, **kwargs: sizes.append(len(d)) or stebz(d, e, **kwargs),
    )
    res = lambda0_estimate(model, radius, 3000)
    assert sizes == [1024]  # the coarse pair only: no full-grid stebz
    assert res.sturm_counts == 1


def _small_grid():
    diag, off = assemble_tridiagonal(RealHyperbolic(2), 10.0, 200)
    return diag, off, np.linalg.eigvalsh(_dense(diag, off))


def test_a_guess_that_finds_another_eigenvalue_falls_back_to_stebz():
    diag, off, eigs = _small_grid()
    plain = smallest_eigenvalue_detailed(diag, off)
    guided = smallest_eigenvalue_detailed(diag, off, (eigs[0] + 1e-3, eigs[1]))
    assert guided != plain and guided.iterations == 1
    # the guess lands on a higher eigenvalue: no shift below it factors, so
    # no count runs, and stebz's estimates certify as if there were no guess
    for pair in [(eigs[0] + 1.0, eigs[1]), (eigs[1], eigs[2])]:
        assert smallest_eigenvalue_detailed(diag, off, pair) == plain


@pytest.mark.parametrize("entry", ["dgttrf", "dgttrs"])
def test_a_failing_guess_falls_back_to_stebz(monkeypatch, entry):
    diag, off, eigs = _small_grid()
    plain = smallest_eigenvalue_detailed(diag, off)
    pair = (eigs[0] + 1e-3, eigs[1])  # certifies when nothing fails, as above
    original = getattr(lapack, entry)

    def fails_first(*args, **kwargs):
        if len(calls) > 1:
            return original(*args, **kwargs)
        if entry == "dgttrf":  # a zero pivot
            return (*original(*args, **kwargs)[:-1], 1)
        raise np.linalg.LinAlgError("singular")

    calls = _failing(monkeypatch, lapack, entry, fails_first)
    assert smallest_eigenvalue_detailed(diag, off, pair) == plain
    assert len(calls) == 1


def test_no_coarse_grid_below_32_cells(monkeypatch):
    from kahlerlab import spectral

    sizes = []
    assemble = spectral.assemble_tridiagonal
    monkeypatch.setattr(
        spectral, "assemble_tridiagonal",
        lambda model, radius, cells: sizes.append(cells) or assemble(model, radius, cells),
    )
    lambda0_estimate(RealHyperbolic(2), 10.0, 31)
    assert sizes == [31]
    sizes.clear()
    lambda0_estimate(RealHyperbolic(2), 10.0, 32)
    assert sizes == [32, 32]  # the coarse grid is the full one up to 1024 cells
    sizes.clear()
    lambda0_estimate(RealHyperbolic(2), 10.0, 20000)
    assert sizes == [20000, 1250]


def test_inverse_iteration_raises_when_every_float64_solve_fails(monkeypatch):
    # every LDL^T factorization of T - shift in the polish finds a pivot <= 0
    dpttrf = lapack.dpttrf
    firsts = []  # the first entry of T - shift grows as the shift falls

    def not_definite(d, e, **kwargs):
        firsts.append(float(d[0]))
        return (*dpttrf(d, e, **kwargs)[:-1], 1)

    monkeypatch.setattr(lapack, "dpttrf", not_definite)
    with pytest.raises(np.linalg.LinAlgError):
        lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    # one per margin, each 100 times the last, below the guess and then
    # below stebz's value
    assert len(firsts) == 10
    for run in (firsts[:5], firsts[5:]):
        assert all(a < b for a, b in zip(run, run[1:]))


def _solves(monkeypatch, correction=None):
    """Record every spectral._pttrs call as (kind, copy of its right-hand
    side), kind "correction" inside _refined_solve and "sweep" outside it;
    correction, if given, replaces the corrections' solves."""
    from kahlerlab import spectral

    refined_solve, pttrs = spectral._refined_solve, spectral._pttrs
    depth, calls = [0], []

    def refined(*args):
        depth[0] += 1
        try:
            return refined_solve(*args)
        finally:
            depth[0] -= 1

    def solve(factors, rhs):
        calls.append(("correction" if depth[0] else "sweep", rhs.copy()))
        if depth[0] and correction is not None:
            return correction(factors, rhs)
        return pttrs(factors, rhs)

    monkeypatch.setattr(spectral, "_refined_solve", refined)
    monkeypatch.setattr(spectral, "_pttrs", solve)
    return calls


def test_inverse_iteration_raises_when_every_correction_solve_fails(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("singular")

    calls = _solves(monkeypatch, correction=singular)
    with pytest.raises(np.linalg.LinAlgError):
        lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    # per shift, one float64 sweep from the guess's vector, then the first
    # correction fails; then per shift two sweeps from stebz's flat start
    kinds = [kind for kind, _ in calls]
    assert kinds == ["sweep", "correction"] * 5 + ["sweep", "sweep", "correction"] * 5


def test_each_shift_refines_only_its_last_sweep(monkeypatch):
    from kahlerlab import spectral

    dpttrf = lapack.dpttrf
    refined = _failing(monkeypatch, spectral, "_refined_solve", spectral._refined_solve)
    factored = _failing(monkeypatch, lapack, "dpttrf", dpttrf)
    lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    assert len(refined) == 1 and len(factored) == 1

    # the first two shifts of the polish fail to factor: only the one that
    # solves is refined
    def fails_twice(*args, **kwargs):
        factors = dpttrf(*args, **kwargs)
        return (*factors[:-1], 1) if len(factored) <= 2 else factors

    refined.clear()
    factored = _failing(monkeypatch, lapack, "dpttrf", fails_twice)
    res = lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    assert res.bracket_lo <= res.lambda_min <= res.bracket_hi
    assert len(factored) == 3 and len(refined) == 1


def test_the_certified_path_polishes_the_guess_vector_without_a_flat_start(monkeypatch):
    from kahlerlab import spectral

    guesses, guess = [], spectral._rayleigh_guess

    def recorded(*args):
        lam, vector = guess(*args)
        guesses.append((vector, vector.copy()))
        return lam, vector

    monkeypatch.setattr(spectral, "_rayleigh_guess", recorded)
    calls = _solves(monkeypatch)
    model, radius, cells = RealHyperbolic(2), 10.0, 200
    res = lambda0_estimate(model, radius, cells)
    ((vector, start),) = guesses
    assert res.sturm_counts == 1
    # one float64 sweep from the guess's unit vector, and two corrections:
    # the second correction's residual is at the long-double rounding floor
    assert [kind for kind, _ in calls] == ["sweep", "correction", "correction"]
    assert np.array_equal(calls[0][1], start)
    assert np.dot(start, start) == pytest.approx(1.0, abs=1e-14)
    # the sweep ran in place: the guess's own array holds the swept unit
    # vector that the refined solve starts from
    assert np.array_equal(calls[1][1], vector)
    assert np.dot(vector, vector) == pytest.approx(1.0, abs=1e-14)
    # stebz gives no vector: the polish sweeps twice from the flat start
    diag, off = assemble_tridiagonal(model, radius, cells)
    calls.clear()
    smallest_eigenvalue_detailed(diag, off)
    kinds = [kind for kind, _ in calls]
    assert kinds[:3] == ["sweep", "sweep", "correction"] and "sweep" not in kinds[3:]
    assert np.all(calls[0][1] == 1.0 / math.sqrt(cells))


@pytest.mark.parametrize("n", [6, 10])
def test_high_density_powers_keep_residuals_far_below_the_norm(n):
    # the first row, ~2^(2n-1) / h^2, dominates ||T||_1: a rounding floor
    # from the norm stopped the refinement at 1.1e-11 on CH^6, and at CH^10
    # the guess's vector kept a lambda_2 component one sweep could not remove
    res = lambda0_estimate(ComplexHyperbolic(n), 10.0, 3000)
    assert res.sturm_counts == 1
    assert res.residual <= 1e-13 * res.lambda_min
    _assert_certified(*assemble_tridiagonal(ComplexHyperbolic(n), 10.0, 3000), res, 1e-10)


@pytest.mark.parametrize("cells", [2, 3, 4])
@pytest.mark.parametrize(
    "model", [RealHyperbolic(2), ComplexHyperbolic(1), ComplexHyperbolic(3)]
)
def test_grids_of_two_to_four_cells_match_the_dense_oracle(monkeypatch, model, cells):
    from kahlerlab import spectral

    diag, off = assemble_tridiagonal(model, 5.0, cells)
    eigs = np.linalg.eigvalsh(_dense(diag, off))
    res = lambda0_estimate(model, 5.0, cells)
    assert res.sturm_counts == 1
    _assert_certified(diag, off, res, 1e-12)  # up to 4 ulps of lambda ~ 400
    assert res.lambda_min == pytest.approx(eigs[0], rel=1e-12)
    # a guess factors by gttrf, whose scipy wrapper rejects two rows: on two
    # cells it is skipped, and from three it certifies
    guesses = _failing(monkeypatch, spectral, "_rayleigh_guess", spectral._rayleigh_guess)
    guided = smallest_eigenvalue_detailed(diag, off, (eigs[0], eigs[1]))
    assert guided.iterations == 1 and len(guesses) == (cells > 2)
    _assert_certified(diag, off, guided, 1e-12)


@pytest.mark.parametrize(
    "model, radius, cells, expected",
    [
        (RealHyperbolic(2), 25.0, 100000, 0.2642111255929315),
        (ComplexHyperbolic(3), 15.0, 30000, 9.052495662407004),
    ],
)
def test_refined_value_is_pinned_within_its_residual(model, radius, cells, expected):
    # expected is the value when every sweep was refined in long double
    res = lambda0_estimate(model, radius, cells)
    assert abs(res.lambda_min - expected) <= res.residual


def test_a_solve_keeps_no_long_double_copy_of_the_matrix():
    import tracemalloc

    lambda0_estimate(RealHyperbolic(2), 25.0, 2000)  # first-call set-up
    tracemalloc.start()
    try:
        lambda0_estimate(RealHyperbolic(2), 25.0, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the polish peaks at ~96 B per cell: float64 T, its pttrf factors, the
    # guess's vector and the correction, and three long-double vectors; a
    # long-double copy of T adds 32 B per cell (16.1 MB when it had them)
    assert peak <= 11_000_000


@pytest.mark.parametrize(
    "model, radius, cells",
    [(RealHyperbolic(2), 25.0, 100000), (ComplexHyperbolic(3), 30.0, 30000)],
)
def test_the_reported_residual_is_that_of_the_returned_vector(
    monkeypatch, model, radius, cells
):
    from kahlerlab import spectral

    seen, original = [], spectral._inverse_iteration

    def recorded(diag, off, *args):
        seen.append((diag, off, original(diag, off, *args)))
        return seen[-1][2]

    monkeypatch.setattr(spectral, "_inverse_iteration", recorded)
    res = lambda0_estimate(model, radius, cells)
    ((diag, off, (lam, resid, vec)),) = seen
    assert (res.lambda_min, res.residual) == (lam, resid)
    # |T v - lam v| / |v| from explicit long-double copies of T
    d_ld, e_ld = diag.astype(np.longdouble), off.astype(np.longdouble)
    t_vec = d_ld * vec
    t_vec[:-1] += e_ld * vec[1:]
    t_vec[1:] += e_ld * vec[:-1]
    t_vec -= np.longdouble(lam) * vec
    expected = float(np.sqrt(np.dot(t_vec, t_vec) / np.dot(vec, vec)))
    assert resid == pytest.approx(expected, rel=0.01)
