"""Pointwise Kaehler operator package over the exact exterior algebra.

Conventions fixed here and relied on everywhere else: the metric is the
standard one with orthonormal monomials, the fundamental form is
omega = i * sum_a dz^a ^ dzb^a, and the volume form is omega^n / n!.

The Hodge star is constructed monomial by monomial from its defining
relation  a ^ *conj(b) = <a,b> dV,  never from the structure identities it
is later tested against.  The dual Lefschetz operator is the matrix adjoint
of the Lefschetz operator; the `lefschetz` verify suite compares it with
star^-1 o L o star.

L^j, the dual Lefschetz operator, the star, the Weil operator, the
Lefschetz decomposition and the primitive projector are fixed linear maps
on each degree.  Each is compiled once per (n, k) into an
`exterior.Table`.  The parts of the Lefschetz decomposition, and with them
the primitive projector and a left inverse of L^(n-k), are polynomials in
L and the dual Lefschetz operator given in closed form by the sl_2
relations; their tables are composed and combined exactly from the L and
dual Lefschetz tables, so no matrix is inverted and no form is pushed
through an operator to learn its matrix.  The operators below take a
`Form` or a `Batch`: a batch goes through the table at once, a form as
one-row batches, one per degree (`exterior._apply`).  L on a form is the
term-pair product with omega^j.

The primitive bases are written down rather than solved for: in the basis
of products of the 2-forms dz_a ^ dzb_a with dz^A ^ dzb^B, the dual
Lefschetz operator only drops one such 2-form, and its kernel on each block
(A, B) is spanned by the standard polytabloids of a two-row shape, with
entries +-1.  Each degree's basis is a table from basis index to
monomials; nothing here runs a Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial
from typing import Mapping

import numpy as np

from .exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    ZERO,
    Table,
    _adjoint,
    _apply,
    _basis_rank,
    _combined,
    _compiled,
    _composed,
    _conjugation_table,
    _disjoint_pairs,
    _gaussian,
    _images,
    _parts,
    _per_degree,
    _table,
    _wedge_by,
    inner,  # kept as kaehler.inner, which perfbench/test_perfbench.py traces
    monomial_basis,
    norm_sq,
)


@lru_cache(maxsize=None)
def kahler_form(n: int) -> Form:
    """Fundamental (1,1)-form i * sum dz^a ^ dzb^a."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return Form(n, {Monomial((a,), (a,)): GaussRational(0, 1) for a in range(1, n + 1)})


def volume_form(n: int) -> Form:
    """dV = omega^n / n!; a single top monomial of unit norm."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _omega_power(n, n) / factorial(n)


@lru_cache(maxsize=None)
def _omega_power(n: int, j: int) -> Form:
    if j == 0:
        return Form.one(n)
    return kahler_form(n).wedge(_omega_power(n, j - 1))


@lru_cache(maxsize=None)
def _top_monomial(n: int) -> Monomial:
    full = tuple(range(1, n + 1))
    return Monomial(full, full)


def lefschetz_L(a):
    """L a = omega ^ a, of a form or of each row of a batch."""
    if isinstance(a, Batch):
        return lefschetz_power(a, 1)
    return kahler_form(a.n).wedge(a)


def lefschetz_power(a, j: int):
    """L^j a, j >= 0, of a form or of each row of a batch."""
    if j < 0:
        raise ValueError("power must be nonnegative")
    if isinstance(a, Batch):
        return a if j == 0 else _power_table(a.n, a.k, j)(a)
    if j > a.n:
        # omega^j vanishes beyond top degree
        return Form.zero(a.n)
    return _omega_power(a.n, j).wedge(a)


@lru_cache(maxsize=None)
def _power_table(n: int, k: int, j: int) -> Table:
    """L^j on degree k, as the product with omega^j."""
    return _wedge_by(_omega_power(n, j), 2 * j, k)


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> Table:
    """The star on degree k, monomial by monomial: *mu is a multiple of the
    monomial nu with the complementary index sets swapped, fixed by
    mu ^ conj(*mu) = dV.  The pairing mu ^ conj(nu) = +-top takes its sign
    from the conjugation table and the product of mu with its complement."""
    mus, conj = np.arange(comb(2 * n, k)), _conjugation_table(n, 2 * n - k)
    _, complement, sign, _ = _disjoint_pairs(n, mus, k, 2 * n - k)  # one per mu
    # conj(nu) = +-complement: the conjugation table's only pair feeding the
    # complement comes from nu
    pairing = sign * _parts(conj.coef[complement])[0]
    v = volume_form(n).coefficient(_top_monomial(n))
    return _table(2 * n - k, conj.size, conj.src[complement], mus,
                  _gaussian(pairing * v._x, pairing * -v._y), v._d, k)


def hodge_star(a):
    """Hodge star, extended linearly over monomials."""
    if a.n < 1:
        raise ValueError("dimension must be at least 1")
    return _apply(_star_table, a)


def star_inverse(a):
    """Inverse star; equals (-1)^k star on degree k."""
    if isinstance(a, Batch):
        return hodge_star(a) if a.k % 2 == 0 else -hodge_star(a)
    return _per_degree(a, star_inverse)


@lru_cache(maxsize=None)
def _weil_table(n: int, k: int) -> Table:
    return _compiled(n, k, k, {
        mono: {mono: GaussRational.i_power(len(mono.s) - len(mono.t))}
        for mono in monomial_basis(n, k)
    })


def weil_operator(a):
    """Multiply each (p,q) component by i^(p-q)."""
    return _apply(_weil_table, a)


@lru_cache(maxsize=None)
def _dual_lefschetz_table(n: int, k: int) -> Table:
    """The dual Lefschetz operator on degree k: the conjugate transpose of L
    on degree k - 2."""
    return _adjoint(_power_table(n, k - 2, 1), n)


def dual_lefschetz(a):
    """Adjoint of the Lefschetz operator (degree -2)."""
    return _apply(_dual_lefschetz_table, a)


def hr_pairing(a, b):
    """Coefficient of i^(k(k-1)) omega^(n-k) ^ a ^ b relative to dV.

    Bilinear (no conjugation); both arguments must be homogeneous of the
    same degree k <= n.  On two batches of degree k it is taken row by row
    and returned as a degree-0 batch.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    n = a.n
    if isinstance(a, Batch):
        ka, kb = a.k, b.k
    else:
        ka, kb = a.degree(), b.degree()
        if a.is_zero() or b.is_zero():
            return ZERO
    if ka is None or kb is None or ka != kb:
        raise ValueError("arguments must be homogeneous of equal degree")
    if ka > n:
        raise ValueError(f"degree {ka} exceeds dimension {n}")
    scale = GaussRational.i_power(ka * (ka - 1)) / volume_form(n).coefficient(_top_monomial(n))
    if isinstance(a, Batch):
        top = lefschetz_power(a, n - ka).wedge(b)  # one column, the top monomial
        return Batch(n, 0, top.num, top.den, top._bound()) * scale
    product = _omega_power(n, n - ka).wedge(a).wedge(b)
    return scale * product.coefficient(_top_monomial(n))


def is_primitive(a: Form) -> bool:
    return dual_lefschetz(a).is_zero()


def _wedge_sign(word: list[int]) -> int:
    """The sign that sorts a wedge of distinct one-forms into canonical
    order, given the word of their keys (a for dz_a, n + a for dzb_a)."""
    inversions = sum(x > y for i, x in enumerate(word) for y in word[i + 1:])
    return -1 if inversions % 2 else 1


def _standard_tableaux(m: int, j: int):
    """The standard tableaux of shape (m - j, j) on 0..m-1, each as its
    columns of length two, (first-row entry, second-row entry); none
    unless j <= m - j."""
    if 2 * j > m:
        return
    for second in combinations(range(m), j):
        first = [x for x in range(m) if x not in second]
        if all(a < b for a, b in zip(first, second)):
            yield zip(first, second)


@lru_cache(maxsize=None)
def _primitive_table(n: int, k: int) -> Table:
    """The primitive basis of degree k, as the table of the map sending
    basis index t to the t-th basis form.

    With A, B and P pairwise disjoint, e_(P;A,B) = wedge_(c in P)
    (dz_c ^ dzb_c) ^ dz^A ^ dzb^B is +- a monomial, and in this basis the
    dual Lefschetz operator is -i times the map D that drops one element
    of P.  For a block (A, B) of bidegree (p, q), P ranges over the
    j-subsets of the m = n - |A| - |B| other indices F, j = p - |A| =
    q - |B|, and the kernel of D there is the Specht module S^(m-j, j).
    Each standard tableau of shape (m - j, j) on F, with columns (a_i, b_i),
    gives the polytabloid sum over c_i in {a_i, b_i} of
    (-1)^(number of a_i chosen) e_({c_i};A,B), which D kills pair by pair;
    together they are a basis (Sagan, The Symmetric Group, 2.3-2.6).  The
    indices run by bidegree, then by j, block (A, B) and tableau; entries
    are +-1.  Above the middle degree 2j > m, so there are no indices.
    """
    rank, indices = _basis_rank(n, k), range(1, n + 1)
    rows, cols, coefs = [], [], []
    t = 0
    for p in range(max(0, k - n), min(k, n) + 1):
        q = k - p
        for j in range(min(p, q) + 1):
            for A in combinations(indices, p - j):
                rest = [x for x in indices if x not in A]
                for B in combinations(rest, q - j):
                    F = [x for x in rest if x not in B]
                    for tableau in _standard_tableaux(len(F), j):
                        pairs = [(F[a], F[b]) for a, b in tableau]
                        for P in product(*pairs):
                            word = [key for c in P for key in (c, n + c)]
                            word += [*A, *(n + b for b in B)]
                            chosen_a = sum(c == a for c, (a, _) in zip(P, pairs))
                            rows.append(t)
                            cols.append(rank[Monomial(tuple(sorted(P + A)),
                                                      tuple(sorted(P + B)))])
                            coefs.append((-1) ** chosen_a * _wedge_sign(word))
                        t += 1
    return _table(k, comb(2 * n, k), cols, rows, _gaussian(coefs), 1, None)


def _inputs(table: Table) -> int:
    """The number of forms of a primitive basis table; none of them is zero."""
    return int(table.src.max()) + 1 if table.src.size else 0


def primitive_bidegree_basis(n: int, p: int, q: int) -> tuple[Form, ...]:
    """Exact basis of primitive (p,q)-forms (kernel of the dual Lefschetz)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    return tuple(f for f in primitive_basis(n, p + q) if f.bidegree() == (p, q))


@lru_cache(maxsize=None)
def primitive_basis(n: int, k: int) -> tuple[Form, ...]:
    """Exact basis of primitive degree-k forms, ordered by bidegree.

    Empty for k > n; cardinality C(2n,k) - C(2n,k-2) for 0 <= k <= n.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if k < 0 or k > 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    table = _primitive_table(n, k)
    return tuple(_images(n, table, _inputs(table)))


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """Parts of a = sum_r L^r a_r with every a_r primitive of degree k-2r."""

    n: int
    k: int
    parts: Mapping[int, Form]

    def part(self, r: int) -> Form:
        return self.parts.get(r, Form.zero(self.n))


def _decomposition_coefficient(m: int, r: int, t: int) -> Fraction:
    """c_(r,t) of a_r = sum_t c_(r,t) L^t Lambda^(r+t) a on degree k = n - m.

    The sum over t with (-1)^t (m+2r+1)! / (t! (m+2r+t+1)!) is the sl_2
    extremal projector onto primitives of degree k - 2r; the factor in front
    undoes Lambda^r L^r, which is r! (m+2r)! / (m+r)! on those primitives.
    """
    j = m + 2 * r
    return Fraction(
        (-1) ** t * factorial(m + r) * factorial(j + 1),
        factorial(r) * factorial(j) * factorial(t) * factorial(j + t + 1),
    )


@lru_cache(maxsize=None)
def _decomposition_tables(n: int, k: int) -> tuple[tuple[int, Table], ...]:
    """The maps a -> a_r of the Lefschetz decomposition, one table per r,
    each the table polynomial sum_t c_(r,t) L^t o Lambda^(r+t)
    (`_decomposition_coefficient`)."""
    chain = [_power_table(n, k, 0)]  # chain[s] = Lambda^s on degree k: L^0 = 1
    for s in range(1, k // 2 + 1):
        chain.append(_composed(_dual_lefschetz_table(n, k - 2 * s + 2), chain[-1]))
    return tuple(
        (r, _combined([
            (_decomposition_coefficient(n - k, r, t),
             _composed(_power_table(n, k - 2 * r - 2 * t, t), chain[r + t]) if t else chain[r])
            for t in range((k - 2 * r) // 2 + 1)
        ]))
        for r in range(max(0, k - n), k // 2 + 1)
    )


@lru_cache(maxsize=None)
def _left_inverse_table(n: int, k: int) -> Table:
    """A left inverse of L^(n-k) on degree k <= n, as a map from degree
    2n - k back to degree k.  Lambda^(n-k) o L^(n-k) is c_r =
    ((n-k+r)!/r!)^2 on L^r of the primitives of degree k - 2r (the sl_2
    relations), so the inverse is (sum_r c_r^-1 L^r o a -> a_r) o
    Lambda^(n-k), composed from the L, Lambda and decomposition tables."""
    lowering = _power_table(n, 2 * n - k, 0)  # Lambda^0 = 1 on degree 2n - k
    for d in range(2 * n - k, k, -2):
        lowering = _composed(_dual_lefschetz_table(n, d), lowering)
    return _composed(_combined([
        (Fraction(factorial(r), factorial(n - k + r)) ** 2,
         _composed(_power_table(n, k - 2 * r, r), part) if r else part)
        for r, part in _decomposition_tables(n, k)
    ]), lowering)


def primitive_decompose(a) -> PrimitiveDecomposition:
    """Exact Lefschetz decomposition of a homogeneous form.

    Of a batch, the parts are batches, one for every r of degree k.
    """
    n = a.n
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if isinstance(a, Batch):
        return PrimitiveDecomposition(n, a.k, {
            r: table(a) for r, table in _decomposition_tables(n, a.k)
        })
    if a.is_zero():
        return PrimitiveDecomposition(n, 0, {})
    k = a.degree()
    if k is None:
        raise ValueError("form must be homogeneous")
    row = Batch.of(n, k, [a])
    parts = {r: table(row).form(0) for r, table in _decomposition_tables(n, k)}
    return PrimitiveDecomposition(n, k, {r: p for r, p in parts.items() if not p.is_zero()})


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
def _projection_table(n: int, k: int) -> Table:
    """The orthogonal projector onto primitive degree-k forms: the r = 0
    part of the decomposition, and zero above the middle degree."""
    if k > n:
        return _compiled(n, k, k, {})
    return _decomposition_tables(n, k)[0][1]


def primitive_projection(a):
    """Exact orthogonal projection onto the primitive subspace."""
    return _apply(_projection_table, a)


def primitive_dimension(n: int, k: int) -> int:
    """C(2n,k) - C(2n,k-2) for k <= n, zero above the middle degree."""
    if k > n:
        return 0
    return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)


def norm_ratio(numer: Form, denom: Form) -> Fraction:
    """Exact |numer|^2 / |denom|^2, for saturation checks."""
    d = norm_sq(denom)
    if d == 0:
        raise ValueError("zero denominator form")
    return norm_sq(numer) / d
