"""Radial Dirichlet eigensolver for rank-one curvature model spaces.

The radial Laplacian -(1/w) d/drho (w du/drho) on a geodesic ball of radius
R is discretized in flux form on the cell-centered grid rho_j = (j - 1/2) h,
h = R/N.  The interface weight at the axis vanishes with the volume density,
which closes the first row without any boundary fudge; the outer boundary is
a Dirichlet ghost cell.  Conjugating by sqrt(w) makes the matrix symmetric
tridiagonal.  The bottom eigenvalue of a grid 16 times coarser, but of at
least 1024 cells, is a shift for one inverse-iteration sweep and one
Rayleigh-quotient step on the full grid; the inertia of two LAPACK pttrf
LDL^T factorizations certifies the quotient, and its vector is polished.
Otherwise the eigenvalue comes from LAPACK stebz (Kahan-Demmel bisection)
and the polish starts from the flat start.  The polish shifts below the
bracket, so T - shift is positive definite: one pttrf factorization,
float64 pttrs sweeps, and one sweep of mixed-precision iterative
refinement that stops when the long-double residual reaches its rounding
floor.  T stays float64 throughout: the long-double arithmetic writes
into three vectors allocated once per polish, so a solve peaks at about
97 B of arrays per cell.  check_grid refuses, from scalars and before any
array exists, a grid the solve cannot finish: fewer than two or more than
MAX_CELLS cells, or a density or matrix entries that leave float64 at
that radius.
scipy is imported by the first eigensolve, not with the module: the exact
layers never load it.

Model conventions: RealHyperbolic uses the curvature -1 density sinh^(m-1),
with a curvature scale K applied as an exact eigenvalue multiplication.
ComplexHyperbolic uses the density sinh^(2n-1) cosh of the model with
holomorphic sectional curvature -4; halving the eigenvalue moves it to the
Einstein normalization Ric = -(n+1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

_BISECT_TOL = 1e-12  # absolute tolerance handed to stebz
# stebz's pivots, a float64 Rayleigh quotient and LDL^T pivots each round to
# about eps ||T||_1; an inertia check that disagrees with stebz widens the
# bracket eightfold, at most 8 times.
_BRACKET_UNITS = 4.0
_WIDENINGS = 8
# A solve peaks at about 97 B of arrays per cell, in the polish: float64 T,
# its pttrf factors, the start vector and the correction (48 B) and three
# long-double vectors (48 B); 9.7 MB traced at N = 1e5, and 94 MB of RSS at
# this ceiling.  The long-double residual floor, ~1e-19 (N/R)^2, passes
# 1e-10 beyond this grid at radii up to 30.
MAX_CELLS = 1_000_000
_COARSE_CELLS = 1024  # fewest cells of the coarse grid, if the full grid has them
_SWEEPS = 3  # inverse-iteration sweeps from the flat start vector
_EPS_LD = float(np.finfo(np.longdouble).eps)


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


def check_grid(model: RadialModel, radius: float, cells: int) -> None:
    """Refuse, from scalars alone, a grid that assemble_tridiagonal cannot
    turn into a matrix the eigensolve can factor: too few or too many cells,
    a density that overflows when squared, or, at tiny radii, a first-cell
    density that underflows against h^2 or entries that overflow when
    squared (LDL^T pivots and stebz's Sturm counts square them)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    if cells < 2:
        raise ValueError("need at least two cells")
    if cells > MAX_CELLS:
        raise ValueError(f"{cells} cells exceed the ceiling of {MAX_CELLS}")
    h = np.float64(radius / cells)
    tiny, huge = sys.float_info.min, sys.float_info.max
    # both densities increase on [0, R]: the outermost weight, squared,
    # bounds the products under the square root and the diagonal sums
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        edge = model.weight(np.float64(cells * h))
        if not edge * edge <= huge:
            raise ValueError("volume density overflows at this radius")
        # the first cell's density times h^2, and times the next cell's
        # density, are the least numbers the assembly divides by; below
        # h ~ 1 the density is < 1, so this also keeps h^2 from underflowing
        inner = model.weight(0.5 * h)
        if not min(inner * h * h, inner * model.weight(1.5 * h)) >= tiny:
            raise ValueError("first-cell density underflows at this radius")
        # the first row's diagonal is the largest entry on fine grids; four
        # times it, squared, leaves room for the rest of the matrix
        first = 4.0 * model.weight(h) / (inner * h * h)
        if not first * first <= huge:
            raise ValueError("matrix entries overflow when squared at this radius")


def assemble_tridiagonal(
    model: RadialModel, radius: float, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal matrix (diag, offdiag) of the radial operator."""
    check_grid(model, radius, cells)
    h = radius / cells
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
    """A certified bracket [lo, hi] around value; vector is the unit float64
    vector whose Rayleigh quotient value is, when a guess certified."""

    value: float
    lo: float
    hi: float
    iterations: int
    vector: np.ndarray | None = field(default=None, compare=False, repr=False)


def _ldlt(diag, off, shift):
    """LAPACK pttrf factors (d, e) of T - shift = L D L^T, or None when
    T - shift is not positive definite (pttrf stops at the first pivot <= 0)."""
    from scipy.linalg.lapack import dpttrf

    d, e, info = dpttrf(diag - shift, off, overwrite_d=1)
    return (d, e) if info == 0 else None


def _pttrs(factors, rhs):
    """x with (T - shift) x = rhs on the pttrf factors, overwriting rhs."""
    from scipy.linalg.lapack import dpttrs

    x, info = dpttrs(*factors, rhs, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"pttrs: illegal argument {-info}")
    return x


def _definite(diag: np.ndarray, off: np.ndarray, shift: float) -> bool:
    """Whether T - shift is positive definite: by Sylvester's law of inertia,
    no eigenvalue lies at or below shift exactly when every LDL^T pivot is
    positive."""
    if len(diag) == 1:
        return bool(diag[0] - shift > 0.0)
    return _ldlt(diag, off, shift) is not None


def _certified(diag, off, lam, width, widenings) -> BisectionResult:
    """Bracket lam -/+ width, widened eightfold up to widenings times, until
    T - lo is positive definite and T - hi is not (LinAlgError if never)."""
    for attempt in range(1, widenings + 2):
        lo, hi = lam - width, lam + width
        lo_holds, hi_holds = _definite(diag, off, lo), not _definite(diag, off, hi)
        if lo_holds and hi_holds:
            return BisectionResult(lam, lo, hi, 2 * attempt)
        width *= 8.0
    raise np.linalg.LinAlgError("LDL^T inertia does not certify the eigenvalue")


def smallest_eigenvalue_detailed(
    diag: np.ndarray, off: np.ndarray, tol: float = _BISECT_TOL,
    near: float | None = None,
) -> BisectionResult:
    """Smallest eigenvalue and a bracket value -/+ (tol + 4 eps ||T||_1)
    certified by T - lo positive definite and T - hi not; iterations is the
    number of LDL^T inertia checks behind the returned bracket.  value is the
    Rayleigh quotient a shift near leads to, with its vector, if its
    unwidened bracket holds on a matrix of at least three rows, and otherwise
    LAPACK stebz's, to tol, with the bracket widened."""
    if len(diag) < 1:
        raise ValueError("empty matrix")
    if len(off) != len(diag) - 1:
        raise ValueError("off-diagonal length must be len(diag) - 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    column = np.abs(diag)
    column[:-1] += np.abs(off)
    column[1:] += np.abs(off)
    norm1 = float(column.max())
    width = tol + _BRACKET_UNITS * sys.float_info.epsilon * norm1
    # scipy's dgttrf wrapper, which the guess factors with, rejects two rows
    if near is not None and len(diag) > 2:
        try:
            lam, vector = _rayleigh_guess(diag, off, near)
            return replace(_certified(diag, off, lam, width, 0), vector=vector)
        except np.linalg.LinAlgError:
            pass  # the guess found another eigenvalue or none: bisect
    from scipy.linalg import eigh_tridiagonal

    lam = float(eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 0), tol=tol
    )[0])
    return _certified(diag, off, lam, width, _WIDENINGS)


def _rayleigh_guess(diag, off, near) -> tuple[float, np.ndarray]:
    """Rayleigh quotient and unit vector after a float64 inverse-iteration
    sweep at near from the flat start and one Rayleigh-quotient step
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4); it may find the
    eigenvalue nearest near, so its shifts may lie above lambda_1 and it
    factors by pivoted LU."""
    v, shift = np.full(len(diag), 1.0 / math.sqrt(len(diag))), near
    for _ in range(2):
        v = _gttrs(_gttrf(diag, off, shift), v)
        v /= math.sqrt(np.dot(v, v))
        shift = float(np.dot(v, _tridiagonal_matvec(diag, off, v)))
    return shift, v


def smallest_eigenvalue(
    diag: np.ndarray, off: np.ndarray, tol: float = _BISECT_TOL
) -> float:
    return smallest_eigenvalue_detailed(diag, off, tol).value


def _tridiagonal_matvec(diag, off, v, out=None, tmp=None):
    """T v into out, with tmp (len(v) - 1 entries) as a work buffer; in the
    wider of the dtypes of T and v, or out's."""
    w = np.multiply(diag, v, out=out)
    tmp = np.multiply(off, v[1:], out=tmp)
    w[:-1] += tmp
    w[1:] += np.multiply(off, v[:-1], out=tmp)
    return w


def _gttrf(diag, off, shift):
    """LAPACK gttrf factors of T - shift (LinAlgError on a zero pivot)."""
    from scipy.linalg.lapack import dgttrf

    *factors, info = dgttrf(off, diag - shift, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"gttrf: zero pivot at row {info}")
    return factors


def _gttrs(factors, rhs):
    """x with (T - shift) x = rhs on the gttrf factors, overwriting rhs."""
    from scipy.linalg.lapack import dgttrs

    x, info = dgttrs(*factors, rhs[:, None], overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"gttrs: illegal argument {-info}")
    return x[:, 0]


def _rounding_floor(diag, off, shift, x) -> float:
    """2 eps_ld || |T - shift| |x| ||, the rounding floor of a long-double
    evaluation of (T - shift) x (Higham, ch. 3), from float64 magnitudes."""
    bound = np.subtract(diag, shift)
    bound *= x
    np.abs(bound, out=bound)
    tmp = np.multiply(off, x[1:])
    bound[:-1] += np.abs(tmp, out=tmp)
    bound[1:] += np.abs(np.multiply(off, x[:-1], out=tmp), out=tmp)
    return 2.0 * _EPS_LD * float(np.linalg.norm(bound))


def _refined_solve(factors, diag, off, shift, v):
    """x with (T - shift) x = v in long double, and the two long-double work
    vectors it used: float64 pttrs corrections on the LDL^T factors of
    T - shift, driven by the long-double residual v - (T - shift) x, until
    that residual reaches the rounding floor of its own evaluation or stops
    halving.  T and v stay float64: mixed-dtype ufuncs write into the
    long-double vectors, so T is never copied."""
    step = _pttrs(factors, v.copy())  # later holds each correction
    # the floor from the first solve, taken before the long-double vectors
    # exist: later corrections move x by far less than 1%
    floor = _rounding_floor(diag, off, shift, step)
    x = step.astype(np.longdouble)
    r, work = np.empty_like(x), np.empty_like(x)
    size = math.inf
    while True:
        # the diagonal of T - shift, subtracted in long double so that it
        # rounds at eps_ld, is formed in r and multiplied by x in place
        shifted = np.subtract(diag, shift, out=r, dtype=np.longdouble)
        _tridiagonal_matvec(shifted, off, x, r, work[1:])
        np.subtract(v, r, out=r)
        step[...] = r
        last, size = size, math.sqrt(np.dot(step, step))
        if size <= floor or not size < 0.5 * last:
            return x, r, work
        x += _pttrs(factors, step)


def _inverse_iteration(
    diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
    start: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Rayleigh-refined eigenvalue, residual and vector from a certified bracket.

    A float64 vector alone cannot certify residuals below eps * norm(T),
    which the acceptance grids push past the reporting threshold, so the
    last sweep's vector is long double and its solve is mixed-precision
    iterative refinement (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 12) on one LDL^T factorization of T - shift per shift.
    The shift sits four bracket widths below lo, so T - shift is positive
    definite and a float64 correction shrinks the error by eps * norm(T)
    over that gap, <= 1/32.  start is the guess's vector, if it certified;
    the polish overwrites it.
    """
    margin = max(1e-9 * max(1.0, abs(lo)), 4.0 * (hi - lo))
    for attempt in range(5):
        try:
            return _polish(diag, off, lo - margin, start)
        except np.linalg.LinAlgError:
            margin *= 100.0
    raise np.linalg.LinAlgError("inverse iteration could not solve the shifted system")


def _polish(diag, off, shift, start):
    """Rayleigh quotient, residual and unit long-double vector after
    inverse-iteration sweeps at shift, all on one LAPACK pttrf factorization
    of T - shift (LinAlgError unless positive definite): one float64 sweep
    from start, in place, or _SWEEPS - 1 from the flat start without it,
    then one refined sweep.  Solve error along the eigenvector does not slow
    inverse iteration (Peters and Wilkinson, SIAM Rev. 21, 1979).  A guess's
    vector can keep a lambda_2 component of 1e-5 (CH^10, R = 10, N = 3000),
    and each sweep shrinks it only by (lambda_1 - shift) / (lambda_2 - shift).
    The residual is a fresh T v of the returned vector, in the refinement's
    work vectors."""
    factors = _ldlt(diag, off, shift)
    if factors is None:
        raise np.linalg.LinAlgError("pttrf: T - shift is not positive definite")
    if start is None:
        v, sweeps = np.full(len(diag), 1.0 / math.sqrt(len(diag))), _SWEEPS - 1
    else:
        v, sweeps = start, 1
    for _ in range(sweeps):
        v = _pttrs(factors, v)
        v /= math.sqrt(np.dot(v, v))
    x, w, work = _refined_solve(factors, diag, off, shift, v)
    x /= np.sqrt(np.dot(x, x))
    return (*_rayleigh_residual(diag, off, x, w, work), x)


def _rayleigh_residual(diag, off, v, w, work, lam=None) -> tuple[float, float]:
    """lam and the residual norm |T v - lam v| / |v| of the float64 T and the
    long-double v, in long double, into the vectors w and work (len(v)
    entries each).

    lam defaults to the Rayleigh quotient of v.
    """
    _tridiagonal_matvec(diag, off, v, w, work[1:])
    vv = np.dot(v, v)
    if lam is None:
        lam = np.dot(v, w) / vv
    w -= np.multiply(v, lam, out=work)
    return float(lam), float(np.sqrt(np.dot(w, w) / vv))


@dataclass(frozen=True)
class EigenResult:
    """One eigensolve: model, grid, the bottom pair and its certificate;
    sturm_counts is the number of LDL^T inertia checks behind the bracket
    (2 when the first one holds), and refined is false when lambda_min is
    the bracket's certified centre."""

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
    from scipy.linalg import eigh_tridiagonal

    diag, off = assemble_tridiagonal(model, radius, cells)
    # a 16x coarser grid's bottom eigenvalue, a guess the full grid certifies;
    # on a grid of 187 cells it can lie nearer lambda_2 than lambda_1
    coarse = min(cells, max(_COARSE_CELLS, cells // 16))
    near = None if cells < 32 else float(eigh_tridiagonal(
        *assemble_tridiagonal(model, radius, coarse), eigvals_only=True,
        select="i", select_range=(0, 0))[0])
    bis = smallest_eigenvalue_detailed(diag, off, near=near)
    lam, resid, vec = _inverse_iteration(diag, off, bis.lo, bis.hi, bis.vector)
    # a Rayleigh quotient lies within its residual of an eigenvalue: outside
    # the widened bracket, keep the certified value and its own residual
    refined = bis.lo - resid <= lam <= bis.hi + resid
    if not refined:
        lam, resid = _rayleigh_residual(
            diag, off, vec, np.empty_like(vec), np.empty_like(vec),
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


def _check_radii(radii: Sequence[float]) -> None:
    if len(set(map(float, radii))) < 2:
        raise ValueError("need at least two distinct radii")


def richardson_extrapolate(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares fit lambda(R) = a + b / R^2; returns a."""
    radii = np.array([r for r, _ in samples], dtype=float)
    _check_radii(radii)
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
    _check_radii(radii)
    for r in radii:  # refuse any radius before the first solve
        check_grid(model, r, cells)
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
