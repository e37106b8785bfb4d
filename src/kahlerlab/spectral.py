"""Radial Dirichlet eigensolver for rank-one curvature model spaces.

The radial Laplacian -(1/w) d/drho (w du/drho) on a geodesic ball of radius
R is discretized in flux form on the cell-centered grid rho_j = (j - 1/2) h,
h = R/N.  The interface weight at the axis vanishes with the volume density,
which closes the first row without any boundary fudge; the outer boundary is
a Dirichlet ghost cell.  Conjugating by sqrt(w) makes the matrix symmetric
tridiagonal.  Its smallest eigenvalue comes from LAPACK stebz (Kahan-Demmel
bisection) and is certified by the inertia of two LAPACK pttrf LDL^T
factorizations.  Inverse iteration then runs float64 sweeps and polishes the
last one by mixed-precision iterative refinement.

Model conventions: RealHyperbolic uses the curvature -1 density sinh^(m-1),
with a curvature scale K applied as an exact eigenvalue multiplication.
ComplexHyperbolic uses the density sinh^(2n-1) cosh of the model with
holomorphic sectional curvature -4; halving the eigenvalue moves it to the
Einstein normalization Ric = -(n+1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf

_BISECT_TOL = 1e-12  # absolute tolerance handed to stebz
# stebz's float64 pivots and those of an LDL^T factorization each round to
# about eps ||T||_1; an inertia check that disagrees widens the bracket
# eightfold, at most 8 times.
_BRACKET_UNITS = 4.0
_WIDENINGS = 8
# About 0.2 kB of work arrays per cell.  The long-double residual floor,
# ~1e-19 (N/R)^2, passes 1e-10 beyond this grid at radii up to 30.
MAX_CELLS = 1_000_000
_SWEEPS = 3  # inverse-iteration sweeps from the flat start vector


@dataclass(frozen=True)
class RealHyperbolic:
    """Real hyperbolic space H^m, curvature -1 density, eigenvalues scaled by K."""

    m: int
    curvature: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("real hyperbolic model needs m >= 2")
        if not self.curvature > 0:
            raise ValueError("curvature scale must be positive")

    def weight(self, rho: np.ndarray) -> np.ndarray:
        return np.sinh(rho) ** (self.m - 1)

    def scale(self, lam: float) -> float:
        return self.curvature * lam

    @property
    def spectral_bottom(self) -> float:
        """Bottom of the essential spectrum in model (curvature -1) units."""
        return (self.m - 1) ** 2 / 4.0

    def describe(self) -> dict:
        return {"kind": "real_hyperbolic", "m": self.m, "curvature": self.curvature}


@dataclass(frozen=True)
class ComplexHyperbolic:
    """Complex hyperbolic space CH^n in the curvature -4 model."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("complex hyperbolic model needs n >= 1")

    def weight(self, rho: np.ndarray) -> np.ndarray:
        return np.sinh(rho) ** (2 * self.n - 1) * np.cosh(rho)

    def scale(self, lam: float) -> float:
        return lam / 2.0

    @property
    def spectral_bottom(self) -> float:
        return float(self.n * self.n)

    def describe(self) -> dict:
        return {"kind": "complex_hyperbolic", "n": self.n}


RadialModel = Union[RealHyperbolic, ComplexHyperbolic]


def assemble_tridiagonal(
    model: RadialModel, radius: float, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal matrix (diag, offdiag) of the radial operator."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    if cells < 2:
        raise ValueError("need at least two cells")
    if cells > MAX_CELLS:
        raise ValueError(f"{cells} cells exceed the ceiling of {MAX_CELLS}")
    h = radius / cells
    # both densities increase on [0, R]: the outermost weight, squared,
    # bounds the products under the square root and the diagonal sums
    with np.errstate(over="ignore"):
        edge = model.weight(np.float64(cells * h))
        edge_sq = edge * edge
    if not np.isfinite(edge_sq):
        raise ValueError("volume density overflows at this radius")
    centers = (np.arange(1, cells + 1) - 0.5) * h
    interfaces = np.arange(0, cells + 1) * h
    w_c = model.weight(centers)
    w_i = model.weight(interfaces)
    diag = (w_i[:-1] + w_i[1:]) / (w_c * h * h)
    # interface Dirichlet at r = radius: the boundary flux sees the half-cell
    # gradient, which keeps the eigenvalue error at second order in h
    diag[-1] += w_i[-1] / (w_c[-1] * h * h)
    off = -w_i[1:-1] / (h * h * np.sqrt(w_c[:-1] * w_c[1:]))
    return diag, off


@dataclass(frozen=True)
class BisectionResult:
    value: float
    lo: float
    hi: float
    iterations: int


def _definite(diag: np.ndarray, off: np.ndarray, shift: float) -> bool:
    """Whether T - shift is positive definite: by Sylvester's law of inertia,
    no eigenvalue lies at or below shift exactly when every LDL^T pivot is
    positive (pttrf stops at the first pivot <= 0)."""
    if len(diag) == 1:
        return bool(diag[0] - shift > 0.0)
    return dpttrf(diag - shift, off, overwrite_d=1)[2] == 0


def smallest_eigenvalue_detailed(
    diag: np.ndarray, off: np.ndarray, tol: float = _BISECT_TOL
) -> BisectionResult:
    """Smallest eigenvalue from LAPACK stebz, to tol, and a bracket
    value -/+ (tol + 4 eps ||T||_1) certified by T - lo positive definite
    and T - hi not; iterations is the number of LDL^T inertia checks made."""
    if len(diag) < 1:
        raise ValueError("empty matrix")
    if len(off) != len(diag) - 1:
        raise ValueError("off-diagonal length must be len(diag) - 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    lam = float(eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 0), tol=tol
    )[0])
    column = np.abs(diag)
    column[:-1] += np.abs(off)
    column[1:] += np.abs(off)
    norm1 = float(column.max())
    width = tol + _BRACKET_UNITS * sys.float_info.epsilon * norm1
    for attempt in range(1, _WIDENINGS + 2):
        lo, hi = lam - width, lam + width
        lo_holds, hi_holds = _definite(diag, off, lo), not _definite(diag, off, hi)
        if lo_holds and hi_holds:
            return BisectionResult(lam, lo, hi, 2 * attempt)
        width *= 8.0
    raise np.linalg.LinAlgError("LDL^T inertia does not certify the LAPACK eigenvalue")


def smallest_eigenvalue(
    diag: np.ndarray, off: np.ndarray, tol: float = _BISECT_TOL
) -> float:
    return smallest_eigenvalue_detailed(diag, off, tol).value


def _tridiagonal_matvec_ld(diag, off, v, out=None):
    w = np.multiply(diag, v, out=out)
    w[:-1] += off * v[1:]
    w[1:] += off * v[:-1]
    return w


def _gttrs(factors, rhs):
    """x with (T - shift) x = rhs on the gttrf factors, overwriting rhs."""
    x, info = dgttrs(*factors, rhs[:, None], overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"gttrs: illegal argument {-info}")
    return x[:, 0]


def _refined_solve(factors, shifted_ld, off_ld, v):
    """x with (T - shift) x = v: float64 gttrs corrections on the factors of
    T - shift, driven by the long-double residual v - (T - shift) x, until it
    stops halving."""
    x, r = np.zeros_like(v), np.empty_like(v)
    rhs, size = v.astype(float), math.inf
    while True:
        x += _gttrs(factors, rhs)
        np.subtract(v, _tridiagonal_matvec_ld(shifted_ld, off_ld, x, out=r), out=r)
        last, size = size, float(np.sqrt(np.dot(r, r)))
        if not size < 0.5 * last:
            return x
        rhs = r.astype(float)


def _inverse_iteration(
    diag: np.ndarray, off: np.ndarray, lo: float, hi: float
) -> tuple[float, float, np.ndarray]:
    """Rayleigh-refined eigenvalue, residual and vector from a certified bracket.

    A float64 vector alone cannot certify residuals below eps * norm(T),
    which the acceptance grids push past the reporting threshold, so the
    last sweep's vector is long double and its solve is mixed-precision
    iterative refinement (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 12) on one LU factorization of T - shift per shift.
    The shift sits four bracket widths below lo, so a float64 correction
    shrinks the error by eps * norm(T) over that gap, <= 1/32.
    """
    d_ld = diag.astype(np.longdouble)
    e_ld = off.astype(np.longdouble)
    margin = max(1e-9 * max(1.0, abs(lo)), 4.0 * (hi - lo))
    for attempt in range(5):
        try:
            v = _shifted_sweeps(diag, off, d_ld, e_ld, lo - margin)
            break
        except np.linalg.LinAlgError:
            margin *= 100.0
    else:
        raise np.linalg.LinAlgError("inverse iteration could not solve the shifted system")
    return (*_rayleigh_residual(d_ld, e_ld, v), v)


def _shifted_sweeps(diag, off, d_ld, e_ld, shift):
    """Unit vector after _SWEEPS sweeps from the flat start, all solved on one
    LAPACK gttrf factorization of T - shift (LinAlgError on a zero pivot).

    Solve error along the eigenvector does not slow inverse iteration
    (Peters and Wilkinson, SIAM Rev. 21, 1979), so the early sweeps are
    plain float64 solves and only the last is refined in long double."""
    *factors, info = dgttrf(off, diag - shift, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"gttrf: zero pivot at row {info}")
    v = np.full(len(diag), 1.0 / math.sqrt(len(diag)))
    for _ in range(_SWEEPS - 1):
        v = _gttrs(factors, v)
        v /= math.sqrt(np.dot(v, v))
    v = _refined_solve(factors, d_ld - shift, e_ld, v.astype(np.longdouble))
    return v / np.sqrt(np.dot(v, v))


def _rayleigh_residual(d_ld, e_ld, v_ld, lam=None) -> tuple[float, float]:
    """lam and the residual norm |T v - lam v| / |v|, in extended precision.

    lam defaults to the Rayleigh quotient of v.
    """
    w = _tridiagonal_matvec_ld(d_ld, e_ld, v_ld)
    vv = np.dot(v_ld, v_ld)
    if lam is None:
        lam = np.dot(v_ld, w) / vv
    resid = np.sqrt(np.dot(w - lam * v_ld, w - lam * v_ld) / vv)
    return float(lam), float(resid)


@dataclass(frozen=True)
class EigenResult:
    """One eigensolve: model, grid, the bottom pair and its certificate;
    sturm_counts is the number of LDL^T inertia checks behind the bracket
    (2 when the first one holds), and refined is false when lambda_min is
    the bracket value."""

    model: RadialModel
    radius: float
    cells: int
    lambda_min: float
    scaled_lambda: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    sturm_counts: int
    refined: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model.describe(),
            "R": self.radius,
            "N": self.cells,
            "lambda_min": self.lambda_min,
            "scaled_lambda": self.scaled_lambda,
            "residual": self.residual,
            "bracket_lo": self.bracket_lo,
            "bracket_hi": self.bracket_hi,
            "sturm_counts": self.sturm_counts,
            "refined": self.refined,
        }


def lambda0_estimate(model: RadialModel, radius: float, cells: int) -> EigenResult:
    """Assemble, bracket, refine; the result carries the model normalization."""
    diag, off = assemble_tridiagonal(model, radius, cells)
    bis = smallest_eigenvalue_detailed(diag, off)
    lam, resid, vec = _inverse_iteration(diag, off, bis.lo, bis.hi)
    # a Rayleigh quotient lies within its residual of an eigenvalue: outside
    # the widened bracket, keep the certified value and its own residual
    refined = bis.lo - resid <= lam <= bis.hi + resid
    if not refined:
        lam, resid = _rayleigh_residual(
            diag.astype(np.longdouble), off.astype(np.longdouble), vec,
            np.longdouble(bis.value),
        )
    return EigenResult(
        model=model,
        radius=radius,
        cells=cells,
        lambda_min=lam,
        scaled_lambda=model.scale(lam),
        residual=resid,
        bracket_lo=bis.lo,
        bracket_hi=bis.hi,
        sturm_counts=bis.iterations,
        refined=refined,
    )


def richardson_extrapolate(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares fit lambda(R) = a + b / R^2; returns a."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    radii = np.array([r for r, _ in samples], dtype=float)
    if len(set(radii.tolist())) < 2:
        raise ValueError("need at least two distinct radii")
    vals = np.array([v for _, v in samples], dtype=float)
    design = np.column_stack([np.ones_like(radii), radii ** -2.0])
    coeffs, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return float(coeffs[0])


@dataclass(frozen=True)
class SharpnessReport:
    """Numerical check that the Einstein-normalized ball bottom is n^2/2."""

    n: int
    bound: float
    samples: tuple[EigenResult, ...]
    extrapolated_scaled: float
    ratio: float
    passed: bool


def sharpness_report(
    n: int,
    radii: Sequence[float] = (15.0, 20.0, 30.0),
    cells: int = 30000,
    window: float = 0.01,
) -> SharpnessReport:
    """Einstein-ball study: extrapolated scaled bottom against n^2 / 2."""
    if n < 1:
        raise ValueError("complex dimension must be at least 1")
    model = ComplexHyperbolic(n)
    samples = tuple(lambda0_estimate(model, r, cells) for r in radii)
    extrapolated = richardson_extrapolate(
        [(s.radius, s.scaled_lambda) for s in samples]
    )
    bound = n * n / 2.0
    ratio = extrapolated / bound
    return SharpnessReport(
        n=n,
        bound=bound,
        samples=samples,
        extrapolated_scaled=extrapolated,
        ratio=ratio,
        passed=(1.0 - window) <= ratio <= (1.0 + window),
    )
