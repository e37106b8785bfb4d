"""Radial eigensolver: assembly, Sturm bisection, refinement, extrapolation.

Small dense assemblies are cross-checked against numpy's symmetric
eigensolver; model scaling laws are exact by construction and asserted
exactly.
"""

import math

import numpy as np
import pytest
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
    assert res.iterations > 0
    assert res.pivot_perturbations >= 0


def test_bisection_input_validation():
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        smallest_eigenvalue(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(ValueError):
        smallest_eigenvalue_detailed(np.array([1.0]), np.array([]), tol=0.0)


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
    assert payload["pivot_perturbations"] == 0
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
            assert res.bracket_lo <= v <= res.bracket_hi


def test_certified_bracket_holds_the_returned_eigenvalue():
    # eps * ||T||_1 = 1.5e-8 here: a float64 Sturm count cannot certify a
    # bracket much narrower than that
    model, radius, cells = RealHyperbolic(2), 25.0, 100000
    bis = smallest_eigenvalue_detailed(*assemble_tridiagonal(model, radius, cells))
    res = lambda0_estimate(model, radius, cells)
    assert bis.lo - res.residual <= res.lambda_min <= bis.hi + res.residual
    assert (res.bracket_lo, res.bracket_hi) == (bis.lo, bis.hi)
    assert res.refined and res.sturm_counts == 2
    # far below eps * ||T||_1, where a float64 solve alone stops
    assert res.residual < 1e-11


def test_bracket_widens_until_the_sturm_counts_agree(monkeypatch):
    from kahlerlab import spectral

    diag = np.array([2.0, 3.0, 4.0])
    off = np.array([-1.0, -0.5])
    exact = np.linalg.eigvalsh(_dense(diag, off))[0]
    true_stebz = spectral.eigh_tridiagonal
    shift = {"by": 1e-9}

    def off_target(*args, **kwargs):
        return true_stebz(*args, **kwargs) + shift["by"]

    monkeypatch.setattr(spectral, "eigh_tridiagonal", off_target)
    res = smallest_eigenvalue_detailed(diag, off)
    assert res.value == pytest.approx(exact + 1e-9, abs=2e-12)
    assert res.lo <= exact <= res.hi
    assert res.iterations > 2 and res.iterations % 2 == 0
    shift["by"] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        smallest_eigenvalue_detailed(diag, off)


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


def _failing(monkeypatch, entry, replacement):
    """Route the module's LAPACK entry through replacement, counting calls."""
    from kahlerlab import spectral

    calls = []

    def failing(*args, **kwargs):
        calls.append(entry)
        return replacement(*args, **kwargs)

    monkeypatch.setattr(spectral, entry, failing)
    return calls


def test_inverse_iteration_raises_when_every_float64_solve_fails(monkeypatch):
    # every LU factorization of T - shift reports a zero pivot
    def zero_pivot(dl, d, du):
        *factors, _ = lapack.dgttrf(dl, d, du)
        return (*factors, 1)

    calls = _failing(monkeypatch, "dgttrf", zero_pivot)
    with pytest.raises(np.linalg.LinAlgError):
        lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    assert len(calls) == 5  # one factorization per shift


def test_inverse_iteration_raises_when_every_correction_solve_fails(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    calls = _failing(monkeypatch, "dgttrs", singular)
    with pytest.raises(np.linalg.LinAlgError):
        lambda0_estimate(RealHyperbolic(2), 10.0, 200)
    assert len(calls) == 5  # the first correction of each shift


def test_fallback_to_bisection_reports_the_residual_of_the_returned_value(monkeypatch):
    from kahlerlab import spectral

    model, radius, cells = RealHyperbolic(2), 10.0, 200
    diag, off = assemble_tridiagonal(model, radius, cells)
    bis = smallest_eigenvalue_detailed(diag, off)
    seen = {}
    original = spectral._inverse_iteration

    def wandered(*args):
        lam, resid, vec = original(*args)
        seen.update(resid=resid, vec=vec)
        return lam + 1.0, resid, vec

    monkeypatch.setattr(spectral, "_inverse_iteration", wandered)
    result = lambda0_estimate(model, radius, cells)
    assert result.lambda_min == bis.value
    vec = seen["vec"].astype(float)
    t_vec = diag * vec
    t_vec[:-1] += off * vec[1:]
    t_vec[1:] += off * vec[:-1]
    expected = np.linalg.norm(t_vec - bis.value * vec) / np.linalg.norm(vec)
    assert result.residual == pytest.approx(expected, rel=1e-6)
    assert result.residual != seen["resid"]
