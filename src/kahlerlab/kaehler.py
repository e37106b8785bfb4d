"""Pointwise Kaehler operator package over the exact exterior algebra.

Conventions fixed here and relied on everywhere else: the metric is the
standard one with orthonormal monomials, the fundamental form is
omega = i * sum_a dz^a ^ dzb^a, and the volume form is omega^n / n!.

The Hodge star is constructed monomial by monomial from its defining
relation  a ^ *conj(b) = <a,b> dV,  never from the structure identities it
is later tested against.  The dual Lefschetz operator is built twice, as
the matrix adjoint of the Lefschetz operator and as star^-1 o L o star;
the two matrices are compared entry-exactly at construction time.

The dual Lefschetz operator, the Lefschetz decomposition and the primitive
projector are fixed linear maps on each degree.  Each is compiled once per
(n, k) into a sparse table of Gaussian-integer numerators over one
denominator, and `_apply` evaluates any of them on a form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Callable, Mapping, NamedTuple

from . import rational_linalg as rl
from .exterior import (
    Form,
    GaussRational,
    Monomial,
    ONE,
    ZERO,
    _packed,
    _unpacked,
    bidegree_basis,
    inner,
    monomial_basis,
)


def kahler_form(n: int) -> Form:
    """Fundamental (1,1)-form i * sum dz^a ^ dzb^a."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _kahler_form(n)


@lru_cache(maxsize=None)
def _kahler_form(n: int) -> Form:
    i = GaussRational(0, 1)
    return Form(n, {Monomial((a,), (a,)): i for a in range(1, n + 1)})


def volume_form(n: int) -> Form:
    """dV = omega^n / n!; a single top monomial of unit norm."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _omega_power(n, n) / factorial(n)


@lru_cache(maxsize=None)
def _omega_power(n: int, j: int) -> Form:
    if j == 0:
        return Form.one(n)
    return _kahler_form(n).wedge(_omega_power(n, j - 1))


@lru_cache(maxsize=None)
def _top_monomial(n: int) -> Monomial:
    full = tuple(range(1, n + 1))
    return Monomial(full, full)


def lefschetz_L(a: Form) -> Form:
    """L a = omega ^ a."""
    return kahler_form(a.n).wedge(a)


def lefschetz_power(a: Form, j: int) -> Form:
    """L^j a, j >= 0."""
    if j < 0:
        raise ValueError("power must be nonnegative")
    if j > a.n:
        # omega^j vanishes beyond top degree
        return Form.zero(a.n)
    return _omega_power(a.n, j).wedge(a)


@lru_cache(maxsize=None)
def _star_pair(n: int, mono: Monomial) -> tuple[Monomial, GaussRational]:
    """Image of a monomial under the star, fixed by mu ^ conj(*mu) = dV."""
    full = range(1, n + 1)
    sc = tuple(a for a in full if a not in mono.s)
    tc = tuple(a for a in full if a not in mono.t)
    target = Monomial(tc, sc)
    pairing = Form(n, {mono: ONE}).wedge(Form(n, {target: ONE}).conjugate())
    s_coeff = pairing.coefficient(_top_monomial(n))
    if s_coeff.is_zero():
        raise RuntimeError("star construction produced a vanishing pairing")
    v_coeff = volume_form(n).coefficient(_top_monomial(n))
    return target, (v_coeff / s_coeff).conjugate()


def hodge_star(a: Form) -> Form:
    """Hodge star, extended linearly over monomials."""
    if a.n < 1:
        raise ValueError("dimension must be at least 1")
    # the star maps monomials one to one and its coefficients are units
    terms: dict[Monomial, GaussRational] = {}
    for mono, coeff in a.terms.items():
        target, c = _star_pair(a.n, mono)
        terms[target] = coeff * c
    return Form._trusted(a.n, terms)


def star_inverse(a: Form) -> Form:
    """Inverse star; equals (-1)^k star on degree k."""
    out = Form.zero(a.n)
    for k, part in a.homogeneous_parts().items():
        starred = hodge_star(part)
        out = out + (starred if k % 2 == 0 else -starred)
    return out


def weil_operator(a: Form) -> Form:
    """Multiply each (p,q) component by i^(p-q)."""
    terms = {}
    for mono, coeff in a.terms.items():
        p, q = mono.bidegree
        terms[mono] = coeff * GaussRational.i_power(p - q)
    return Form._trusted(a.n, terms)


# ---- compiled fixed operators ----------------------------------------------


class _Table(NamedTuple):
    """A fixed linear map on degree-k forms, over one denominator.

    rows[mu] lists (nu, x, y): the image of the monomial mu is the sum of
    (x + iy)/den * nu, with Gaussian-integer numerators x + iy.
    """

    den: int
    rows: Mapping[Monomial, tuple[tuple[Monomial, int, int], ...]]


def _compiled(columns: Mapping[Monomial, Mapping[Monomial, GaussRational]]) -> _Table:
    """Table of the map sending each key mu to sum columns[mu][nu] * nu."""
    den = lcm(1, *(c._d for col in columns.values() for c in col.values()))
    return _Table(den, {
        mu: tuple((nu, c._x * (den // c._d), c._y * (den // c._d))
                  for nu, c in col.items())
        for mu, col in columns.items()
    })


def _apply(table_of: Callable[[int, int], _Table], a: Form) -> Form:
    """Image of a under the operator compiled by table_of(n, k) per degree k."""
    n = a.n
    den_a, parts = _packed(a)
    tables = {k: table_of(n, k) for k in parts}
    den = lcm(1, *(t.den for t in tables.values()))
    pieces = []
    for k, (monos, xs, ys) in parts.items():
        rows = tables[k].rows
        acc: dict[Monomial, list[int]] = {}
        for mono, xa, ya in zip(monos, xs, ys):
            for nu, xt, yt in rows[mono]:
                x = xa * xt - ya * yt
                y = xa * yt + ya * xt
                hit = acc.get(nu)
                if hit is None:
                    acc[nu] = [x, y]
                else:
                    hit[0] += x
                    hit[1] += y
        scale = den // tables[k].den
        pieces.append((
            list(acc),
            [v[0] * scale for v in acc.values()],
            [v[1] * scale for v in acc.values()],
        ))
    return _unpacked(n, pieces, den_a * den)


@lru_cache(maxsize=None)
def _dual_lefschetz_table(n: int, k: int) -> _Table:
    """The dual Lefschetz operator on degree-k monomials.

    Built as the conjugate-transpose of the Lefschetz matrix and verified
    entry-exactly against star^-1 o L o star before being cached.
    """
    basis_hi = monomial_basis(n, k)
    adjoint: dict[Monomial, dict[Monomial, GaussRational]] = {
        mono: {} for mono in basis_hi
    }
    if k >= 2:
        for nu in monomial_basis(n, k - 2):
            image = lefschetz_L(Form(n, {nu: ONE}))
            for mu, c in image.terms.items():
                adjoint[mu][nu] = c.conjugate()
    for mu in basis_hi:
        via_star = star_inverse(lefschetz_L(hodge_star(Form(n, {mu: ONE}))))
        if via_star.terms != adjoint[mu]:
            raise RuntimeError(
                "dual Lefschetz mismatch between adjoint and star routes "
                f"at n={n}, monomial {mu.label()}"
            )
    return _compiled(adjoint)


def dual_lefschetz(a: Form) -> Form:
    """Adjoint of the Lefschetz operator (degree -2)."""
    return _apply(_dual_lefschetz_table, a)


def hr_pairing(a: Form, b: Form) -> GaussRational:
    """Coefficient of i^(k(k-1)) omega^(n-k) ^ a ^ b relative to dV.

    Bilinear (no conjugation); both arguments must be homogeneous of the
    same degree k <= n.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    n = a.n
    ka, kb = a.degree(), b.degree()
    if a.is_zero() or b.is_zero():
        return ZERO
    if ka is None or kb is None or ka != kb:
        raise ValueError("arguments must be homogeneous of equal degree")
    if ka > n:
        raise ValueError(f"degree {ka} exceeds dimension {n}")
    product = _omega_power(n, n - ka).wedge(a).wedge(b)
    coeff = product.coefficient(_top_monomial(n))
    v = volume_form(n).coefficient(_top_monomial(n))
    return GaussRational.i_power(ka * (ka - 1)) * coeff / v


def is_primitive(a: Form) -> bool:
    return dual_lefschetz(a).is_zero()


def _integerized(vec: list[GaussRational]) -> list[GaussRational]:
    """Scale a rational vector to a primitive Gaussian-integer vector."""
    den = lcm(1, *(c._d for c in vec if c))
    nums = [(c._x * (den // c._d), c._y * (den // c._d)) for c in vec]
    g = gcd(*(v for xy in nums for v in xy))
    if g == 0:
        return vec
    return [GaussRational._raw(x // g, y // g, 1) for x, y in nums]


@lru_cache(maxsize=None)
def _primitive_bidegree_basis(n: int, p: int, q: int) -> tuple[Form, ...]:
    cols = bidegree_basis(n, p, q)
    if not cols:
        return ()
    table = _dual_lefschetz_table(n, p + q)
    matrix: dict[Monomial, dict[int, GaussRational]] = {
        mono: {} for mono in bidegree_basis(n, p - 1, q - 1)
    }
    for j, mono in enumerate(cols):
        for nu, x, y in table.rows[mono]:
            matrix[nu][j] = GaussRational._norm(x, y, table.den)
    kernel = rl.nullspace(list(matrix.values()), cols=len(cols))
    forms = []
    for vec in kernel:
        vec = _integerized(vec)
        forms.append(
            Form(n, {mono: c for mono, c in zip(cols, vec) if c})
        )
    return tuple(forms)


def primitive_bidegree_basis(n: int, p: int, q: int) -> tuple[Form, ...]:
    """Exact basis of primitive (p,q)-forms (kernel of the dual Lefschetz)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    return _primitive_bidegree_basis(n, p, q)


def primitive_basis(n: int, k: int) -> tuple[Form, ...]:
    """Exact basis of primitive degree-k forms, ordered by bidegree.

    Empty for k > n; cardinality C(2n,k) - C(2n,k-2) for 0 <= k <= n.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if k < 0 or k > 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    out: list[Form] = []
    for p in range(max(0, k - n), min(k, n) + 1):
        out.extend(_primitive_bidegree_basis(n, p, k - p))
    return tuple(out)


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """Parts of a = sum_r L^r a_r with every a_r primitive of degree k-2r."""

    n: int
    k: int
    parts: Mapping[int, Form]

    def part(self, r: int) -> Form:
        return self.parts.get(r, Form.zero(self.n))


@lru_cache(maxsize=None)
def _decomposition_table(n: int, k: int) -> _Table:
    """The maps a -> a_r of the Lefschetz decomposition, side by side.

    With M the matrix whose columns are L^r b over the primitive bases b of
    degree k - 2r, a_r = B_r (M^-1 a) restricted to block r; the degree of
    an output monomial, k - 2r, tells which part it belongs to.
    """
    basis_k = monomial_basis(n, k)
    index = {mono: i for i, mono in enumerate(basis_k)}
    prims: list[Form] = []
    matrix: list[dict[int, GaussRational]] = [{} for _ in basis_k]
    for r in range(max(0, k - n), k // 2 + 1):
        for b in primitive_basis(n, k - 2 * r):
            j = len(prims)
            prims.append(b)
            for mono, c in lefschetz_power(b, r).terms.items():
                matrix[index[mono]][j] = c
    if len(prims) != len(basis_k):
        raise RuntimeError(
            f"Lefschetz blocks span defect at n={n}, k={k}: "
            f"{len(prims)} columns for dimension {len(basis_k)}"
        )
    columns: dict[Monomial, dict[Monomial, GaussRational]] = {
        mono: {} for mono in basis_k
    }
    for b, inv_row in zip(prims, rl.invert(matrix)):
        for i, v in inv_row.items():
            _accumulate(columns[basis_k[i]], b.terms, v)
    return _compiled(columns)


def _accumulate(
    col: dict[Monomial, GaussRational],
    terms: Mapping[Monomial, GaussRational],
    v: GaussRational,
) -> None:
    """col += v * terms, dropping coefficients that cancel."""
    for mu, c in terms.items():
        acc = col.get(mu, ZERO) + v * c
        if acc:
            col[mu] = acc
        else:
            col.pop(mu, None)


def primitive_decompose(a: Form) -> PrimitiveDecomposition:
    """Exact Lefschetz decomposition of a homogeneous form."""
    n = a.n
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if a.is_zero():
        return PrimitiveDecomposition(n, 0, {})
    k = a.degree()
    if k is None:
        raise ValueError("form must be homogeneous")
    image = _apply(_decomposition_table, a)
    parts = {(k - d) // 2: part for d, part in image.homogeneous_parts().items()}
    return PrimitiveDecomposition(n, k, parts)


def recompose(dec: PrimitiveDecomposition) -> Form:
    """Rebuild sum_r L^r a_r; every declared part must be primitive."""
    out = Form.zero(dec.n)
    for r, part in dec.parts.items():
        if part.is_zero():
            continue
        if r < 0:
            raise ValueError("part index must be nonnegative")
        deg = part.degree()
        if deg is None or deg != dec.k - 2 * r:
            raise ValueError(f"part {r} has degree {deg}, expected {dec.k - 2 * r}")
        if not is_primitive(part):
            raise ValueError(f"part {r} is not primitive")
        out = out + lefschetz_power(part, r)
    return out


@lru_cache(maxsize=None)
def _projection_table(n: int, k: int) -> _Table:
    """The orthogonal projector B G^-1 B* onto primitive degree-k forms.

    B has the primitive basis vectors b_i as columns and G[i][j] = <b_j, b_i>;
    the image of mu is sum_i b_i (G^-1 B* mu)_i.
    """
    basis = primitive_basis(n, k)
    columns: dict[Monomial, dict[Monomial, GaussRational]] = {
        mono: {} for mono in monomial_basis(n, k)
    }
    gram = [[inner(bj, bi) for bj in basis] for bi in basis]
    adjoint = [{mu: c.conjugate() for mu, c in b.terms.items()} for b in basis]
    for bi, inv_row in zip(basis, rl.invert(gram)):
        # coefficient of b_i in the projection of each monomial mu
        coeff: dict[Monomial, GaussRational] = {}
        for j, v in inv_row.items():
            _accumulate(coeff, adjoint[j], v)
        for mu, v in coeff.items():
            _accumulate(columns[mu], bi.terms, v)
    return _compiled(columns)


def primitive_projection(a: Form) -> Form:
    """Exact orthogonal projection onto the primitive subspace."""
    return _apply(_projection_table, a)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense exact matrix of an operator between monomial bases."""

    domain: str
    codomain: str
    domain_basis: tuple[Monomial, ...]
    codomain_basis: tuple[Monomial, ...]
    entries: tuple[tuple[GaussRational, ...], ...]

    def rank(self) -> int:
        return rl.rank(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain_basis), len(self.domain_basis))


def operator_matrix(
    op: Callable[[Form], Form], n: int, k: int, codomain_degree: int, name: str = ""
) -> OperatorMatrix:
    """Materialize an operator on degree k into an exact matrix."""
    dom = monomial_basis(n, k)
    cod = monomial_basis(n, codomain_degree)
    index = {mono: i for i, mono in enumerate(cod)}
    cols = []
    for mono in dom:
        image = op(Form(n, {mono: ONE}))
        col = [ZERO] * len(cod)
        for mu, c in image.terms.items():
            col[index[mu]] = c
        cols.append(col)
    entries = tuple(
        tuple(cols[j][i] for j in range(len(dom))) for i in range(len(cod))
    )
    return OperatorMatrix(
        domain=name or f"degree {k}",
        codomain=f"degree {codomain_degree}",
        domain_basis=dom,
        codomain_basis=cod,
        entries=entries,
    )


def primitive_dimension(n: int, k: int) -> int:
    """C(2n,k) - C(2n,k-2) for k <= n, zero above the middle degree."""
    if k > n:
        return 0
    return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)


def norm_ratio(numer: Form, denom: Form) -> Fraction:
    """Exact |numer|^2 / |denom|^2, for saturation checks."""
    from .exterior import norm_sq

    d = norm_sq(denom)
    if d == 0:
        raise ValueError("zero denominator form")
    return norm_sq(numer) / d
