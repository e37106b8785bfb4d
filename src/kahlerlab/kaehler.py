"""Pointwise Kaehler operator package over the exact exterior algebra.

Conventions fixed here and relied on everywhere else: the metric is the
standard one with orthonormal monomials, the fundamental form is
omega = i * sum_a dz^a ^ dzb^a, and the volume form is omega^n / n!.

The Hodge star is constructed monomial by monomial from its defining
relation  a ^ *conj(b) = <a,b> dV,  never from the structure identities it
is later tested against.  The dual Lefschetz operator is built twice, as
the matrix adjoint of the Lefschetz operator and as star^-1 o L o star;
the two matrices are compared entry-exactly at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Mapping

from . import rational_linalg as rl
from .exterior import (
    Form,
    GaussRational,
    Monomial,
    ONE,
    ZERO,
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


@lru_cache(maxsize=None)
def _dual_lefschetz_map(
    n: int, k: int
) -> Mapping[Monomial, tuple[tuple[Monomial, GaussRational], ...]]:
    """Sparse action of the dual Lefschetz operator on degree-k monomials.

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
    return {mu: tuple(col.items()) for mu, col in adjoint.items()}


def dual_lefschetz(a: Form) -> Form:
    """Adjoint of the Lefschetz operator (degree -2)."""
    terms: dict[Monomial, GaussRational] = {}
    by_degree: dict[int, list[tuple[Monomial, GaussRational]]] = {}
    for mono, coeff in a.terms.items():
        by_degree.setdefault(mono.degree, []).append((mono, coeff))
    for k, items in by_degree.items():
        table = _dual_lefschetz_map(a.n, k)
        for mono, coeff in items:
            for nu, w in table[mono]:
                v = coeff * w
                acc = terms.get(nu)
                if acc is None:
                    terms[nu] = v
                else:
                    acc = acc + v
                    if acc.is_zero():
                        del terms[nu]
                    else:
                        terms[nu] = acc
    return Form._trusted(a.n, terms)


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
    from math import gcd, lcm

    dens = [c.re.denominator for c in vec if c] + [c.im.denominator for c in vec if c]
    if not dens:
        return vec
    scale = lcm(*dens) if len(dens) > 1 else dens[0]
    scaled = [c * scale for c in vec]
    nums = []
    for c in scaled:
        nums.extend((abs(c.re.numerator), abs(c.im.numerator)))
    g = 0
    for v in nums:
        g = gcd(g, v)
    if g > 1:
        scaled = [c / g for c in scaled]
    return scaled


@lru_cache(maxsize=None)
def _primitive_bidegree_basis(n: int, p: int, q: int) -> tuple[Form, ...]:
    cols = bidegree_basis(n, p, q)
    if not cols:
        return ()
    rows = bidegree_basis(n, p - 1, q - 1)
    table = _dual_lefschetz_map(n, p + q)
    matrix = [[ZERO] * len(cols) for _ in rows]
    row_index = {mono: i for i, mono in enumerate(rows)}
    for j, mono in enumerate(cols):
        for nu, w in table[mono]:
            matrix[row_index[nu]][j] = w
    kernel = rl.nullspace(matrix, cols=len(cols))
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
def _decomposition_data(n: int, k: int):
    """Column blocks L^r P^(k-2r) and the exact inverse of their matrix."""
    basis_k = monomial_basis(n, k)
    index = {mono: i for i, mono in enumerate(basis_k)}
    blocks: list[tuple[int, tuple[Form, ...]]] = []
    columns: list[list[GaussRational]] = []
    for r in range(max(0, k - n), k // 2 + 1):
        prim = primitive_basis(n, k - 2 * r)
        if not prim:
            continue
        blocks.append((r, prim))
        for b in prim:
            image = lefschetz_power(b, r)
            col = [ZERO] * len(basis_k)
            for mono, c in image.terms.items():
                col[index[mono]] = c
            columns.append(col)
    if len(columns) != len(basis_k):
        raise RuntimeError(
            f"Lefschetz blocks span defect at n={n}, k={k}: "
            f"{len(columns)} columns for dimension {len(basis_k)}"
        )
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(basis_k))]
    return basis_k, blocks, rl.invert(matrix)


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
    basis_k, blocks, inv = _decomposition_data(n, k)
    vec = [a.terms.get(mono, ZERO) for mono in basis_k]
    x = rl.matvec(inv, vec)
    parts: dict[int, Form] = {}
    offset = 0
    for r, prim in blocks:
        acc = Form.zero(n)
        for b in prim:
            c = x[offset]
            offset += 1
            if c:
                acc = acc + b * c
        if not acc.is_zero():
            parts[r] = acc
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
def _primitive_projection_data(n: int, k: int):
    basis = primitive_basis(n, k)
    if not basis:
        return basis, None
    gram_T = [
        [inner(bj, bi) for bj in basis] for bi in basis
    ]  # entry [i][j] = <b_j, b_i>, the system matrix for the coefficients
    return basis, rl.invert(gram_T)


def primitive_projection(a: Form) -> Form:
    """Exact orthogonal projection onto the primitive subspace."""
    out = Form.zero(a.n)
    for k, part in a.homogeneous_parts().items():
        basis, inv = _primitive_projection_data(a.n, k)
        if inv is None:
            continue
        rhs = [inner(part, b) for b in basis]
        coeffs = rl.matvec(inv, rhs)
        for c, b in zip(coeffs, basis):
            if c:
                out = out + b * c
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense exact matrix of an operator between monomial bases."""

    domain: str
    codomain: str
    domain_basis: tuple[Monomial, ...]
    codomain_basis: tuple[Monomial, ...]
    entries: tuple[tuple[GaussRational, ...], ...]

    def rank(self) -> int:
        return rl.rank([list(row) for row in self.entries])

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
