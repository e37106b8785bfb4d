"""Radial Dirichlet eigensolver for rank-one curvature model spaces.

The radial Laplacian -(1/w) d/drho (w du/drho) on a geodesic ball of radius
R is discretized in flux form on the cell-centered grid rho_j = (j - 1/2) h,
h = R/N.  The interface weight at the axis vanishes with the volume density,
which closes the first row without any boundary fudge; the outer boundary is
a Dirichlet ghost cell.  Conjugating by sqrt(w) makes the matrix T symmetric
tridiagonal.  The two lowest eigenvalues of a grid 16 times coarser, but of
at least 1024 cells, guide a float64 inverse-iteration guess on the full
grid.  Its vector is polished below the guess on one LAPACK pttrf
factorization, the last sweep by mixed-precision iterative refinement in
long double, to a Rayleigh quotient rho and residual r.  One LAPACK stebz
Sturm count that finds exactly one eigenvalue at or below mu, midway between
rho and the coarse lambda_2, makes [rho - r^2 / (mu - rho), rho] a bracket of
lambda_1 by Temple's inequality, widened by the rounding of rho, r and the
count so that it holds for the float64 T.  A guess that fails or a gap the
count refuses falls back once to stebz's two lowest eigenvalues of T.  T stays
float64 throughout; a solve peaks at about 97 B of arrays per cell, in the
polish.  check_grid refuses, from scalars and before any array exists, a
grid the solve cannot finish: fewer than two or more than MAX_CELLS cells,
or a density or matrix entries that leave float64 at that radius.
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

_BISECT_TOL = 1e-12  # absolute tolerance handed to stebz
_GUESS_TOL = 1e-6  # the coarse pair only guides: its grid is off by far more
# A solve peaks at about 97 B of arrays per cell, in the polish: float64 T,
# its pttrf factors, the start vector and the correction (48 B) and three
# long-double vectors (48 B); 9.7 MB traced at N = 1e5, and 94 MB of RSS at
# this ceiling.  The long-double residual floor, ~1e-19 (N/R)^2, passes
# 1e-10 beyond this grid at radii up to 30.
MAX_CELLS = 1_000_000
_COARSE_CELLS = 1024  # fewest cells of the coarse grid, if the full grid has them
_SWEEPS = 3  # inverse-iteration sweeps from the flat start vector
_EPS = sys.float_info.epsilon
_EPS_LD = float(np.finfo(np.longdouble).eps)


@dataclass(frozen=True)
class RealHyperbolic:
    """Real hyperbolic space H^m, curvature -1 density, eigenvalues scaled by K."""

    m: int
    curvature: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("real hyperbolic model needs m >= 2")
        if not 0 < self.curvature < math.inf:
            raise ValueError("curvature scale must be positive and finite")

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
    """The polished Rayleigh quotient value, its residual, and [lo, hi]
    around lambda_1 of the float64 matrix by Temple's inequality; iterations
    is the number of Sturm counts run (1, 2 after a refused gap, 0 on one row)."""

    value: float
    lo: float
    hi: float
    iterations: int
    residual: float


def _pttrs(factors, rhs):
    """x with (T - shift) x = rhs on the pttrf factors, overwriting rhs."""
    from scipy.linalg.lapack import dpttrs

    x, info = dpttrs(*factors, rhs, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"pttrs: illegal argument {-info}")
    return x


def _count_below(diag, off, mu) -> int:
    """The number of eigenvalues at or below mu: one Sturm count in LAPACK
    stebz, range 'V' from below its Gershgorin bound, with an abstol so large
    that its bisection stops at once."""
    from scipy.linalg.lapack import dstebz

    huge = sys.float_info.max
    count, *_, info = dstebz(diag, off, 1, -huge, mu, 0, 0, huge, b"E")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz: info {info}")
    return count


def smallest_eigenvalue_detailed(
    diag: np.ndarray, off: np.ndarray, coarse: tuple[float, float] | None = None,
) -> BisectionResult:
    """Smallest eigenvalue of T = (diag, off) and its Temple bracket (Temple
    1928; Kato 1949; Parlett, The Symmetric Eigenvalue Problem, ch. 10),
    from coarse, a coarser grid's two lowest eigenvalues, through a guess on
    three rows or more, or else from stebz's (LinAlgError if both fail)."""
    if len(diag) < 1:
        raise ValueError("empty matrix")
    if len(off) != len(diag) - 1:
        raise ValueError("off-diagonal length must be len(diag) - 1")
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if len(diag) == 1:  # exact; LAPACK's wrappers reject an empty off-diagonal
        lam = float(diag[0])
        return BisectionResult(lam, lam, lam, 0, 0.0)
    # The count is exact for T with each d moved by eps/2 |d| and each e by
    # 1.25 eps |e|, or zeroed where stebz splits T (|e| <= eps max|d| +
    # sqrt(tiny)), and tiny pivots set to -pivmin (Kahan 1966; Demmel,
    # Applied Numerical Linear Algebra, 5.3.4): lambda_2 moves by < slack.
    scale = max(float(np.abs(diag).max()), float(np.abs(off).max()))
    slack = Fraction(4.0 * _EPS * scale + 2.0 * math.sqrt(sys.float_info.min))
    counts = 0
    for lam, second, start in _estimates(diag, off, coarse):
        try:
            value, residual, x = _inverse_iteration(diag, off, lam, start)
        except np.linalg.LinAlgError:
            continue  # lam lies above lambda_1 by more than every margin
        spread, bound = map(Fraction, _rounding(diag, off, x, value, residual))
        del x  # the count's work arrays take its place
        mu = 0.5 * (value + second)
        rho = Fraction(value)
        gap = Fraction(mu) - slack - rho - spread  # <= lambda_2 - exact quotient
        if gap > 0:
            counts += 1
            if _count_below(diag, off, mu) == 1:
                # the float64 next to the nearest, outward, is on the far side
                lo = math.nextafter(float(rho - spread - bound * bound / gap), -math.inf)
                hi = math.nextafter(float(rho + spread), math.inf)
                return BisectionResult(value, lo, hi, counts, residual)
    raise np.linalg.LinAlgError("no estimate of lambda_1 was polished and certified")


def _estimates(diag, off, coarse):
    """(lambda_1, lambda_2, float64 start vector or None) in the order the
    solve tries them: the guess from coarse, unless it fails, then stebz's."""
    # scipy's dgttrf wrapper, which the guess factors with, rejects two rows
    if coarse is not None and len(diag) > 2:
        try:
            lam, vector = _rayleigh_guess(diag, off, coarse[0])
        except np.linalg.LinAlgError:
            pass  # a zero pivot or a failed solve: bisect
        else:
            yield lam, coarse[1], vector
    from scipy.linalg import eigh_tridiagonal

    first, second = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 1), tol=_BISECT_TOL
    )
    yield float(first), float(second), None


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


def smallest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    return smallest_eigenvalue_detailed(diag, off).value


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


def _magnitudes(diag, off, shift, x) -> np.ndarray:
    """|T - shift| |x| for a float64 x: the componentwise scale of the
    rounding of (T - shift) x and, weighted by |x|, of x^T T x (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    bound = np.subtract(diag, shift)
    bound *= x
    np.abs(bound, out=bound)
    tmp = np.empty_like(off)
    bound[:-1] += np.abs(np.multiply(off, x[1:], out=tmp), out=tmp)
    bound[1:] += np.abs(np.multiply(off, x[:-1], out=tmp), out=tmp)
    return bound


def _rounding(diag, off, x, value, residual) -> tuple[float, float]:
    """How far value, the Rayleigh quotient of the long-double unit x taken in
    long double and rounded to float64, may lie from the exact one, and a
    bound on the exact |T x - value x| from residual, its computed value.
    A long-double T x rounds by at most 1.5 eps_ld |T| |x|, a dot product of
    n terms by n/2 eps_ld of its magnitudes, a float64 result by eps/2; the
    factor 2 on the scales and 4 eps on residual cover these sums' own
    float64 evaluation."""
    n, x = len(x), x.astype(float)
    scales = _magnitudes(diag, off, 0.0, x)
    norm = float(np.linalg.norm(scales))
    weighted = float(np.dot(scales, np.abs(x, out=x)))
    bound = (1.0 + (n + 3) * _EPS_LD + 4.0 * _EPS) * residual
    bound += _EPS_LD * (2.0 * norm + abs(value))
    spread = 2.0 * _EPS_LD * weighted + ((n + 2) * _EPS_LD + _EPS) * (abs(value) + bound)
    return spread, bound


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
    floor = 2.0 * _EPS_LD * np.linalg.norm(_magnitudes(diag, off, shift, step))
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


def _inverse_iteration(diag, off, lam, start) -> tuple[float, float, np.ndarray]:
    """Rayleigh quotient, residual and long-double unit vector polished from
    an estimate lam of lambda_1 and its float64 vector start, if any, which
    the polish overwrites.  The last sweep is mixed-precision iterative
    refinement (Higham, ch. 12): a float64 vector cannot certify residuals
    below eps * norm(T).  The shift sits 64 eps |v|^T |T| |v| below lam, past
    the rounding of a float64 quotient, so a float64 correction shrinks the
    error by about 1/64 or better; a pttrf that fails moves it 100 times
    further down, and one that succeeds shows shift < lambda_1."""
    sweeps = 1
    if start is None:
        start, sweeps = np.full(len(diag), 1.0 / math.sqrt(len(diag))), _SWEEPS - 1
    weighted = np.dot(_magnitudes(diag, off, 0.0, start), np.abs(start))
    margin = max(1e-9 * max(1.0, abs(lam)), 64.0 * _EPS * float(weighted))
    for attempt in range(5):
        try:
            return _polish(diag, off, lam - margin, start, sweeps)
        except np.linalg.LinAlgError:
            margin *= 100.0
    raise np.linalg.LinAlgError("inverse iteration could not solve the shifted system")


def _polish(diag, off, shift, v, sweeps):
    """Rayleigh quotient, residual and unit long-double vector after sweeps
    float64 inverse-iteration sweeps at shift from v, in place, and one
    refined sweep, on one LAPACK pttrf factorization of T - shift
    (LinAlgError unless positive definite).  Solve error along the
    eigenvector does not slow inverse iteration (Peters and Wilkinson, SIAM
    Rev. 21, 1979); a guess's lambda_2 component, up to 1e-5 on CH^10,
    shrinks by (lambda_1 - shift) / (lambda_2 - shift) per sweep."""
    from scipy.linalg.lapack import dpttrf

    *factors, info = dpttrf(diag - shift, off, overwrite_d=1)
    if info != 0:
        raise np.linalg.LinAlgError("pttrf: T - shift is not positive definite")
    for _ in range(sweeps):
        v = _pttrs(factors, v)
        v /= math.sqrt(np.dot(v, v))
    x, w, work = _refined_solve(factors, diag, off, shift, v)
    x /= np.sqrt(np.dot(x, x))
    return (*_rayleigh_residual(diag, off, x, w, work), x)


def _rayleigh_residual(diag, off, v, w, work) -> tuple[float, float]:
    """The Rayleigh quotient lam of the float64 T and the long-double v and
    the residual |T v - lam v| / |v|, in long double, into the vectors w and
    work (len(v) entries each)."""
    _tridiagonal_matvec(diag, off, v, w, work[1:])
    vv = np.dot(v, v)
    lam = np.dot(v, w) / vv
    w -= np.multiply(v, lam, out=work)
    return float(lam), float(np.sqrt(np.dot(w, w) / vv))


@dataclass(frozen=True)
class EigenResult:
    """One eigensolve: model, grid, the polished bottom eigenvalue and its
    certificate, the Temple bracket and the Sturm counts behind it."""

    model: RadialModel
    radius: float
    cells: int
    lambda_min: float
    scaled_lambda: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    sturm_counts: int

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
        }


def lambda0_estimate(model: RadialModel, radius: float, cells: int) -> EigenResult:
    """Assemble, polish and certify; the result carries the model normalization."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = assemble_tridiagonal(model, radius, cells)
    # a 16x coarser grid's two lowest eigenvalues guide the guess and the
    # count; on a grid of 187 cells the first can lie nearer lambda_2
    coarse = min(cells, max(_COARSE_CELLS, cells // 16))
    pair = None if cells < 32 else tuple(map(float, eigh_tridiagonal(
        *assemble_tridiagonal(model, radius, coarse), eigvals_only=True,
        select="i", select_range=(0, 1), tol=_GUESS_TOL)))
    res = smallest_eigenvalue_detailed(diag, off, pair)
    return EigenResult(
        model=model,
        radius=radius,
        cells=cells,
        lambda_min=res.value,
        scaled_lambda=model.scale(res.value),
        residual=res.residual,
        bracket_lo=res.lo,
        bracket_hi=res.hi,
        sturm_counts=res.iterations,
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
