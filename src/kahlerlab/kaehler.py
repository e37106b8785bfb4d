"""Pointwise Kaehler operator package over the exact exterior algebra.

Conventions fixed here and relied on everywhere else: the metric is the
standard one with orthonormal monomials, the fundamental form is
omega = i * sum_a dz^a ^ dzb^a, and the volume form is omega^n / n!.

Each fixed linear map on a degree is compiled once per (n, k) into an
`exterior.Table`.  The operators below take a `Form` or a `Batch`: a batch
goes through the table at once, a form as one-row batches, one per degree
(`exterior._apply`).  L^j stays the product with omega^j, the definition
every other table is checked against.  The Hodge star is built monomial
by monomial from its defining relation a ^ *conj(b) = <a,b> dV, never from
the structure identities it is later tested against.

The dual Lefschetz operator, the parts of the Lefschetz decomposition, the
primitive projector and a left inverse of L^(n-k) are sl_2 polynomials
sum w L^a Lambda^b, and one closed form gives their tables (`_sl2_table`;
Huybrechts, Complex Geometry, 1.2; Proctor, SIAM J. Algebraic Discrete
Methods 3, 1982): a monomial is +-e_(P;A,B) = wedge_(c in P)(dz_c ^ dzb_c)
^ dz^A ^ dzb^B, and block by block in (A, B), L adds an index to P with
factor i and Lambda drops one with factor -i.  No table is composed, no
matrix inverted and no form pushed through an operator to learn its
matrix; the `lefschetz` verify suite compares Lambda with star^-1 o L o
star and the decomposition and X_k with L.

The primitive bases are written down rather than solved for: on each
block (A, B), the kernel of Lambda is spanned by the standard polytabloids
of a two-row shape, with entries +-1.  Each degree's basis is a table from
basis index to monomials; nothing here runs a Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, lcm
from typing import Mapping

import numpy as np

from .exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    ZERO,
    Table,
    _apply,
    _conjugation_table,
    _disjoint_pairs,
    _gaussian,
    _holomorphic,
    _images,
    _masks,
    _ones,
    _parts,
    _per_degree,
    _ranked,
    _size,
    _table,
    _wedge_by,
    inner,  # kept as kaehler.inner, which perfbench/test_perfbench.py traces
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
    """i^(p-q) = i^(2p-k) on each (p, q) monomial of degree k."""
    power, ids = (2 * _holomorphic(n, k) - k) % 4, np.arange(_size(n, k))
    return _table(k, ids.size, ids, ids, _gaussian(np.array([1, 0, -1, 0])[power],
                                                   np.array([0, 1, 0, -1])[power]), 1, k)


def weil_operator(a):
    """Multiply each (p,q) component by i^(p-q)."""
    return _apply(_weil_table, a)


def _dual_lefschetz_table(n: int, k: int) -> Table:
    """The dual Lefschetz operator on degree k, Lambda = L^0 Lambda^1."""
    return _sl2_table(n, k, -1, ((0, 1, 1),))


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


def _blocks(n: int, k: int):
    """Per degree-k monomial mu = dz^S ^ dzb^T, with P = S & T, A = S - P and
    B = T - P: the bits of P, the block key A | B << n (the mask less P on
    both halves, exact in the masks' dtype), j = |P|, and the sign s(mu) =
    (-1)^(C(j,2) + j|A| + #{c in P, x in A u B: c > x}) of mu = s(mu) e_(P;A,B)."""
    masks = _masks(n, k)
    s, t = (masks & ((1 << n) - 1)).astype(np.int64), (masks >> n).astype(np.int64)
    p, j = s & t, _ones(s & t)
    odd = j * (j - 1) // 2 + j * _ones(s ^ p) + sum(
        (p >> c & 1) * _ones((s ^ t) & ((1 << c) - 1)) for c in range(n))
    return p, masks ^ p.astype(masks.dtype) * ((1 << n) + 1), j, 1 - 2 * (odd & 1)


@lru_cache(maxsize=None)
def _sl2_table(n: int, k: int, shift: int, terms: tuple) -> Table:
    """The table of sum w L^a Lambda^b on degree k over the terms (a, b, w),
    every a - b = shift.  On the block basis (`_blocks`), L adds an index
    to P with factor i and Lambda drops one with factor -i, so L^a Lambda^b
    sends e_(P;A,B) to i^(a-b) a! b! sum C(|P & P'|, |P| - b) e_(P';A,B)
    over the P' of size |P| + shift.  Pairs join the monomials of one block
    key (a sort and a searchsorted join); an entry is their two signs times
    the value of (|P|, |P & P'|), over one denominator."""
    values = [[sum(Fraction(w) * factorial(a) * factorial(b) * comb(o, j - b)
                   for a, b, w in terms if j >= b) for o in range(n + 1)] for j in range(n + 1)]
    den = lcm(1, *(v.denominator for row in values for v in row))  # reduced values: least
    nums = [[int(v * den) for v in row] for row in values]
    lookup = np.array(nums, np.int64 if max(map(abs, sum(nums, []))) < 2 ** 63 else object)
    p_in, key_in, j_in, s_in = _blocks(n, k)
    p_out, key_out, _, s_out = _blocks(n, k + 2 * shift)
    rows = np.flatnonzero((lookup != 0).any(axis=1)[j_in])  # inputs with a nonzero entry
    order = np.argsort(key_out, kind="stable")
    lo = np.searchsorted(key_out[order], key_in[rows], side="left")
    counts = np.searchsorted(key_out[order], key_in[rows], side="right") - lo
    src = np.repeat(rows, counts)
    out = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(src.size)]
    num = lookup[j_in[src], _ones(p_in[src] & p_out[out])] * (s_in[src] * s_out[out])
    keep = np.flatnonzero(num)
    src, out, num = src[keep], out[keep], num[keep]
    re, im = num * (1, 0, -1, 0)[shift % 4], num * (0, 1, 0, -1)[shift % 4]  # times i^shift
    return _table(k + 2 * shift, _size(n, k + 2 * shift), out, src, _gaussian(re, im), den, k)


@lru_cache(maxsize=None)
def _polytabloids(m: int, j: int):
    """The polytabloids of shape (m - j, j) on 0..m-1, j <= m - j, one per
    standard tableau (second row b_1 < .. < b_j, columns (a_i, b_i) with
    a_i < b_i): term i is sign[i] e_P in polytabloid tab[i], P at pos[i]."""
    terms, t = [], 0
    for second in combinations(range(m), j):
        columns = list(zip([x for x in range(m) if x not in second], second))
        if all(a < b for a, b in columns):
            terms += [(t, chosen, (-1) ** sum(c == a for c, (a, _) in zip(chosen, columns)))
                      for chosen in product(*columns)]
            t += 1
    return tuple(np.array(x, np.int64) for x in zip(*terms))


@lru_cache(maxsize=None)
def _primitive_table(n: int, k: int) -> Table:
    """The primitive basis of degree k, as the table of the map sending
    basis index t to the t-th basis form.

    In the block basis e_(P;A,B) (`_blocks`), the dual Lefschetz operator
    is -i times the map D that drops one element of P.  For a block (A, B)
    of bidegree (p, q), P ranges over the j-subsets of the m = n - |A| - |B|
    other indices F, j = p - |A| = q - |B|, and the kernel of D there is the
    Specht module S^(m-j, j).  Each standard tableau of shape (m - j, j) on
    F, with columns (a_i, b_i), gives the polytabloid sum over c_i in
    {a_i, b_i} of (-1)^(number of a_i chosen) e_({c_i};A,B), which D kills
    pair by pair; together they are a basis (Sagan, The Symmetric Group,
    2.3-2.6).  The indices run by bidegree, then by j, block (A, B) and
    tableau; entries are +-1.  The blocks of (p, j) are the disjoint masks
    A | B << n of degree k - 2j with |A| = p - j, in basis order, and one
    pattern of polytabloids per (m, j) goes through each block's F.  Above
    the middle degree 2j > m, so there are no indices.
    """
    if k > n:
        return _table(k, _size(n, k), [], [], np.zeros(0, np.complex128), 1, None)
    low, start, monomials, rows, signs = (1 << n) - 1, 0, [], [], []
    for p in range(max(0, k - n), min(k, n) + 1):
        for j in range(min(p, k - p) + 1):
            m, blocks = n - k + 2 * j, _masks(n, k - 2 * j)
            tab, pos, sign = _polytabloids(m, j)
            a, b = (blocks & low).astype(np.int64), (blocks >> n).astype(np.int64)
            kept = (a & b == 0) & (_ones(a) == p - j)
            blocks, taken = blocks[kept], (a | b)[kept]
            free = np.nonzero((taken[:, None] >> np.arange(n) & 1) == 0)[1].reshape(taken.size, m)
            chosen = (np.int64(1) << free[:, pos]).sum(axis=2).astype(blocks.dtype)
            monomials.append((blocks[:, None] | chosen | chosen << n).ravel())
            rows.append((start + np.arange(blocks.size)[:, None] * (tab[-1] + 1) + tab).ravel())
            signs.append(np.tile(sign, blocks.size))
            start += blocks.size * (tab[-1] + 1)
    cols = _ranked(_masks(n, k), np.concatenate(monomials))
    return _table(k, _size(n, k), cols, np.concatenate(rows),
                  _gaussian(np.concatenate(signs) * _blocks(n, k)[3][cols]), 1, None)


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
    each sum_t c_(r,t) L^t Lambda^(r+t) (`_decomposition_coefficient`)."""
    return tuple(
        (r, _sl2_table(n, k, -r, tuple((t, r + t, _decomposition_coefficient(n - k, r, t))
                                       for t in range((k - 2 * r) // 2 + 1))))
        for r in range(max(0, k - n), k // 2 + 1)
    )


def _left_inverse_table(n: int, k: int) -> Table:
    """A left inverse of L^(n-k) on degree k <= n, from degree 2n - k back to
    degree k.  Lambda^(n-k) L^(n-k) is c_r = ((n-k+r)!/r!)^2 on L^r of the
    primitives of degree k - 2r, so X_k = (sum_r c_r^-1 L^r o a -> a_r) o
    Lambda^(n-k) = sum_(r,t) c_r^-1 c_(r,t) L^(r+t) Lambda^(n-k+r+t)."""
    m = n - k
    return _sl2_table(n, 2 * n - k, -m, tuple(
        (r + t, m + r + t, Fraction(factorial(r), factorial(m + r)) ** 2
         * _decomposition_coefficient(m, r, t))
        for r in range(k // 2 + 1) for t in range((k - 2 * r) // 2 + 1)))


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


def _projection_table(n: int, k: int) -> Table:
    """The orthogonal projector onto primitive degree-k forms: the r = 0
    part of the decomposition, and zero above the middle degree."""
    return _decomposition_tables(n, k)[0][1] if k <= n else _sl2_table(n, k, 0, ())


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
