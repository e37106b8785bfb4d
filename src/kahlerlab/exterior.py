"""Exact complexified exterior algebra on C^n.

Scalars are Gaussian rationals (a + b*i with rational a, b) kept in reduced
integer form, so every identity asserted downstream is checked with zero
tolerance.  Forms are sparse maps from basis monomials dz^S ^ dzb^T (S, T
strictly increasing index subsets of {1..n}) to scalars.  The monomials are
declared orthonormal; the inner product is linear in the first slot and
conjugate-linear in the second.

The exterior product works on bitmasks: a monomial is the 2n-bit set of its
1-forms in the order dz_1..dz_n, dzb_1..dzb_n, and the reorder sign of a
product is the parity of the pairs that change places (Dorst, Fontijne and
Mann, Geometric Algebra for Computer Science, ch. 19).  Coefficients enter
as Gaussian-integer numerators over one shared denominator per operand, so
no rational arithmetic happens per term pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussRational"]


class GaussRational:
    """Gaussian rational (x + y*i)/d with d > 0 and gcd(x, y, d) = 1."""

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if isinstance(re, GaussRational) or isinstance(im, GaussRational):
            raise TypeError("components must be int or Fraction")
        fr = re if isinstance(re, Fraction) else Fraction(re)
        fi = im if isinstance(im, Fraction) else Fraction(im)
        d = fr.denominator * fi.denominator // gcd(fr.denominator, fi.denominator)
        self._x = fr.numerator * (d // fr.denominator)
        self._y = fi.numerator * (d // fi.denominator)
        self._d = d

    @classmethod
    def _raw(cls, x: int, y: int, d: int) -> "GaussRational":
        # trusted constructor: (x, y, d) already normalized
        self = object.__new__(cls)
        self._x, self._y, self._d = x, y, d
        return self

    @classmethod
    def _norm(cls, x: int, y: int, d: int) -> "GaussRational":
        if d < 0:
            x, y, d = -x, -y, -d
        g = gcd(x, y, d)
        if g > 1:
            x //= g
            y //= g
            d //= g
        return cls._raw(x, y, d)

    @classmethod
    def i_power(cls, e: int) -> "GaussRational":
        """i**e for any integer e (negative allowed)."""
        return _I_POWERS[e % 4]

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def conjugate(self) -> "GaussRational":
        return GaussRational._raw(self._x, -self._y, self._d)

    def abs_sq(self) -> Fraction:
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    def is_zero(self) -> bool:
        return self._x == 0 and self._y == 0

    def __bool__(self) -> bool:
        return self._x != 0 or self._y != 0

    @staticmethod
    def _coerce(v: Scalarish) -> "GaussRational":
        if isinstance(v, GaussRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussRational(v)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            if d1 == 1:
                return GaussRational._raw(self._x + o._x, self._y + o._y, 1)
            return GaussRational._norm(self._x + o._x, self._y + o._y, d1)
        return GaussRational._norm(
            self._x * d2 + o._x * d1, self._y * d2 + o._y * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        return GaussRational._raw(-self._x, -self._y, self._d)

    def __sub__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(o.__neg__())

    def __rsub__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        x = self._x * o._x - self._y * o._y
        y = self._x * o._y + self._y * o._x
        d = self._d * o._d
        if d == 1:
            return GaussRational._raw(x, y, 1)
        return GaussRational._norm(x, y, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        if self.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        n2 = self._x * self._x + self._y * self._y
        return GaussRational._norm(self._d * self._x, -self._d * self._y, n2)

    def __truediv__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other: Scalarish) -> "GaussRational":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__mul__(self.inverse())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussRational):
            return (
                self._x == other._x and self._y == other._y and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return self._y == 0 and Fraction(self._x, self._d) == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._y == 0:
            return hash(Fraction(self._x, self._d))
        return hash((self._x, self._y, self._d))

    def __str__(self) -> str:
        re_s = _frac_str(self._x, self._d)
        im_s = _frac_str(self._y, self._d)
        if self._y == 0:
            return re_s
        if self._x == 0:
            return im_s + "i"
        sign = "+" if self._y > 0 else "-"
        return f"{re_s}{sign}{_frac_str(abs(self._y), self._d)}i"

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"


def _frac_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


_I_POWERS = (
    GaussRational(1),
    GaussRational(0, 1),
    GaussRational(-1),
    GaussRational(0, -1),
)

ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


class Monomial(NamedTuple):
    """Basis monomial dz^s ^ dzb^t; s and t are strictly increasing tuples."""

    s: tuple[int, ...]
    t: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.s), len(self.t))

    @property
    def degree(self) -> int:
        return len(self.s) + len(self.t)

    def label(self) -> str:
        parts = []
        if self.s:
            parts.append("dz[" + ",".join(map(str, self.s)) + "]")
        if self.t:
            parts.append("dzb[" + ",".join(map(str, self.t)) + "]")
        return "^".join(parts) if parts else "1"


def _check_index_tuple(ix: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(ix)
    if any(not (1 <= v <= n) for v in out):
        raise ValueError(f"indices must lie in 1..{n}, got {out}")
    if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"indices must be strictly increasing, got {out}")
    return out


@lru_cache(maxsize=None)
def _conjugate_monomial(m: Monomial) -> tuple[Monomial, int]:
    p, q = m.bidegree
    sign = -1 if (p * q) & 1 else 1
    return Monomial(m.t, m.s), sign


class Form:
    """Sparse complexified differential form with Gaussian rational coefficients.

    Immutable by convention: operations return new instances.  Mixed-degree
    combinations are allowed; helpers report the degree or bidegree when the
    form is homogeneous.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalarish] | None = None):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        self.n = n
        clean: dict[Monomial, GaussRational] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, GaussRational) else GaussRational(coeff)
                if c.is_zero():
                    continue
                if not isinstance(mono, Monomial):
                    mono = Monomial(tuple(mono[0]), tuple(mono[1]))
                _check_index_tuple(mono.s, n)
                _check_index_tuple(mono.t, n)
                clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, GaussRational]) -> "Form":
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n: int) -> "Form":
        return cls._trusted(n, {})

    @classmethod
    def one(cls, n: int) -> "Form":
        return cls._trusted(n, {Monomial((), ()): ONE})

    @classmethod
    def scalar(cls, n: int, value: Scalarish) -> "Form":
        v = value if isinstance(value, GaussRational) else GaussRational(value)
        if v.is_zero():
            return cls.zero(n)
        return cls._trusted(n, {Monomial((), ()): v})

    @classmethod
    def monomial(
        cls,
        n: int,
        s: Iterable[int] = (),
        t: Iterable[int] = (),
        coeff: Scalarish = 1,
    ) -> "Form":
        mono = Monomial(_check_index_tuple(s, n), _check_index_tuple(t, n))
        return cls(n, {mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree when homogeneous, else None (zero form has none)."""
        degs = {m.degree for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def bidegree(self) -> tuple[int, int] | None:
        bds = {m.bidegree for m in self.terms}
        return bds.pop() if len(bds) == 1 else None

    def degrees(self) -> set[int]:
        return {m.degree for m in self.terms}

    def homogeneous_parts(self) -> dict[int, "Form"]:
        parts: dict[int, dict[Monomial, GaussRational]] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(mono.degree, {})[mono] = coeff
        return {k: Form._trusted(self.n, tv) for k, tv in parts.items()}

    def coefficient(self, mono: Monomial) -> GaussRational:
        return self.terms.get(mono, ZERO)

    def _require_same_space(self, other: "Form") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc.is_zero():
                    del out[mono]
                else:
                    out[mono] = acc
        return Form._trusted(self.n, out)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __neg__(self) -> "Form":
        return Form._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar: Scalarish) -> "Form":
        c = GaussRational._coerce(scalar)
        if c is NotImplemented:
            return NotImplemented
        if c.is_zero():
            return Form.zero(self.n)
        return Form._trusted(self.n, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalarish) -> "Form":
        c = GaussRational._coerce(scalar)
        if c is NotImplemented:
            return NotImplemented
        return self.__mul__(c.inverse())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, GaussRational]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].degree, kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{m.label()}" for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Form(n={self.n}, {str(self)})"

    def wedge(self, other: "Form") -> "Form":
        self._require_same_space(other)
        n = self.n
        den_a, parts_a = _packed(self)
        den_b, parts_b = _packed(other)
        pieces = [
            _part_product(n, da, pa, db, pb)
            for da, pa in parts_a.items()
            for db, pb in parts_b.items()
            if da + db <= 2 * n
        ]
        return _unpacked(n, pieces, den_a * den_b)

    def conjugate(self) -> "Form":
        out: dict[Monomial, GaussRational] = {}
        for mono, coeff in self.terms.items():
            cm, sign = _conjugate_monomial(mono)
            c = coeff.conjugate()
            out[cm] = -c if sign < 0 else c
        return Form._trusted(self.n, out)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product a ^ b."""
    return a.wedge(b)


def conjugate(a: Form) -> Form:
    """Complex conjugate; swaps the two index sets with the reorder sign."""
    return a.conjugate()


def bidegree_project(a: Form, p: int, q: int) -> Form:
    """Component of a in bidegree (p, q)."""
    if not (0 <= p <= a.n and 0 <= q <= a.n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={a.n}")
    picked = {m: c for m, c in a.terms.items() if m.bidegree == (p, q)}
    return Form._trusted(a.n, picked)


def inner(a: Form, b: Form) -> GaussRational:
    """Hermitian inner product; linear in a, conjugate-linear in b."""
    a._require_same_space(b)
    if len(b.terms) < len(a.terms):
        acc = ZERO
        for mono, cb in b.terms.items():
            ca = a.terms.get(mono)
            if ca is not None:
                acc = acc + ca * cb.conjugate()
        return acc
    acc = ZERO
    for mono, ca in a.terms.items():
        cb = b.terms.get(mono)
        if cb is not None:
            acc = acc + ca * cb.conjugate()
    return acc


def norm_sq(a: Form) -> Fraction:
    """Exact squared norm, a nonnegative rational."""
    # sum x^2 + y^2 per denominator, then divide once per denominator
    sums: dict[int, int] = {}
    for c in a.terms.values():
        sums[c._d] = sums.get(c._d, 0) + c._x * c._x + c._y * c._y
    total = Fraction(sums.pop(1, 0))
    for d, s in sums.items():
        total += Fraction(s, d * d)
    return total


def monomial_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """All degree-k monomials in canonical order."""
    return _monomial_basis(n, k)


@lru_cache(maxsize=None)
def _monomial_basis(n: int, k: int) -> tuple[Monomial, ...]:
    if k < 0 or k > 2 * n:
        return ()
    out = []
    for p in range(max(0, k - n), min(k, n) + 1):
        q = k - p
        for s in combinations(range(1, n + 1), p):
            for t in combinations(range(1, n + 1), q):
                out.append(Monomial(s, t))
    out.sort()
    return tuple(out)


def bidegree_basis(n: int, p: int, q: int) -> tuple[Monomial, ...]:
    """All (p, q) monomials in canonical order."""
    return _bidegree_basis(n, p, q)


@lru_cache(maxsize=None)
def _bidegree_basis(n: int, p: int, q: int) -> tuple[Monomial, ...]:
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    return tuple(
        sorted(
            Monomial(s, t)
            for s in combinations(range(1, n + 1), p)
            for t in combinations(range(1, n + 1), q)
        )
    )


# ---- compiled exterior product ---------------------------------------------

# A product of homogeneous parts with at most this many term pairs loops over
# them in Python; above it, and once the operands fill at least 1/_DENSE_FILL
# of the compiled table, the table is evaluated with numpy.
_SPARSE_PAIRS = 64
_DENSE_FILL = 16
_INT64_LIMIT = 2 ** 63


class _Masks(dict):
    """Bitmask and suffix parities of each monomial at dimension n.

    Bit a-1 stands for dz_a and bit n+a-1 for dzb_a.  Bit y of the suffix
    parity mask is the parity of the bits of the monomial above y, so
    mu ^ nu reorders with sign (-1)^popcount(parities(mu) & mask(nu)).
    Entries are filled on first use; `monomials` is the inverse map.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.monomials = _Monomials(self)

    def __missing__(self, mono: Monomial) -> tuple[int, int]:
        mask = 0
        for a in mono.s:
            mask |= 1 << (a - 1)
        for a in mono.t:
            mask |= 1 << (self.n + a - 1)
        parities = 0
        rest = mask >> 1
        while rest:
            parities ^= rest
            rest >>= 1
        self[mono] = (mask, parities)
        self.monomials[mask] = mono
        return mask, parities


class _Monomials(dict):
    def __init__(self, masks: _Masks):
        super().__init__()
        self.masks = masks

    def __missing__(self, mask: int) -> Monomial:
        n = self.masks.n
        mono = Monomial(
            tuple(a for a in range(1, n + 1) if mask >> (a - 1) & 1),
            tuple(a for a in range(1, n + 1) if mask >> (n + a - 1) & 1),
        )
        self.masks[mono]  # records both directions
        return mono


@lru_cache(maxsize=None)
def _masks(n: int) -> _Masks:
    return _Masks(n)


class _WedgeTable(NamedTuple):
    """Nonvanishing products of degree-da by degree-db basis monomials.

    Pairs are sorted by output; indices are ranks in `monomial_basis`.
    """

    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    starts: np.ndarray  # first pair of each output
    outputs: np.ndarray  # rank of each output in degree da + db


@lru_cache(maxsize=None)
def _basis_bits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    masks = _masks(n)
    bits = [masks[mono] for mono in monomial_basis(n, k)]
    dtype = np.int64 if 2 * n < 63 else object  # wider masks stay Python ints
    return (
        np.array([m for m, _ in bits], dtype=dtype),
        np.array([p for _, p in bits], dtype=dtype),
    )


@lru_cache(maxsize=None)
def _basis_rank(n: int, k: int) -> dict[Monomial, int]:
    return {mono: i for i, mono in enumerate(monomial_basis(n, k))}


@lru_cache(maxsize=None)
def _wedge_table(n: int, da: int, db: int) -> _WedgeTable:
    mask_a, par_a = _basis_bits(n, da)
    mask_b, _ = _basis_bits(n, db)
    mask_c, _ = _basis_bits(n, da + db)
    left, right = np.nonzero((mask_a[:, None] & mask_b[None, :]) == 0)
    order_c = np.argsort(mask_c)
    out = order_c[np.searchsorted(mask_c, mask_a[left] | mask_b[right], sorter=order_c)]
    odd = par_a[left] & mask_b[right]
    shift = 1
    while shift < 2 * n:
        odd ^= odd >> shift
        shift *= 2
    sign = 1 - 2 * (odd & 1)
    by_out = np.argsort(out, kind="stable")
    left, right, sign, out = left[by_out], right[by_out], sign[by_out], out[by_out]
    starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]])
    return _WedgeTable(left, right, sign, starts, out[starts])


def _packed(a: Form) -> tuple[int, dict[int, tuple[list, list, list]]]:
    """Shared denominator of a, and per degree its monomials and numerators."""
    coeffs = a.terms.values()
    den = 1
    for c in coeffs:
        if c._d != 1:
            den = den * c._d // gcd(den, c._d)
    if den == 1:
        xs = [c._x for c in coeffs]
        ys = [c._y for c in coeffs]
    else:
        xs = [c._x * (den // c._d) for c in coeffs]
        ys = [c._y * (den // c._d) for c in coeffs]
    monos = list(a.terms)
    degrees = [len(m.s) + len(m.t) for m in monos]
    if not monos or degrees.count(degrees[0]) == len(degrees):
        return den, ({degrees[0]: (monos, xs, ys)} if monos else {})
    parts: dict[int, tuple[list, list, list]] = {}
    for k, mono, x, y in zip(degrees, monos, xs, ys):
        part = parts.get(k)
        if part is None:
            part = parts[k] = ([], [], [])
        part[0].append(mono)
        part[1].append(x)
        part[2].append(y)
    return den, parts


def _part_product(n: int, da: int, a: tuple, db: int, b: tuple):
    """Numerators of (degree-da part) ^ (degree-db part), as parallel lists."""
    pairs = len(a[0]) * len(b[0])
    table_pairs = comb(2 * n, da) * comb(2 * n - da, db)
    if pairs <= _SPARSE_PAIRS or table_pairs > _DENSE_FILL * pairs:
        return _sparse_product(n, a, b)
    return _dense_product(n, da, a, db, b)


def _sparse_product(n: int, a: tuple, b: tuple):
    masks = _masks(n)
    masks_b = [masks[mono][0] for mono in b[0]]
    acc: dict[int, list[int]] = {}
    for mono, xa, ya in zip(*a):
        mask_a, par_a = masks[mono]
        for mask_b, xb, yb in zip(masks_b, b[1], b[2]):
            if mask_a & mask_b:
                continue
            x = xa * xb - ya * yb
            y = xa * yb + ya * xb
            if (par_a & mask_b).bit_count() & 1:
                x, y = -x, -y
            key = mask_a | mask_b
            hit = acc.get(key)
            if hit is None:
                acc[key] = [x, y]
            else:
                hit[0] += x
                hit[1] += y
    monos = [masks.monomials[key] for key in acc]
    return monos, [v[0] for v in acc.values()], [v[1] for v in acc.values()]


def _dense_product(n: int, da: int, a: tuple, db: int, b: tuple):
    table = _wedge_table(n, da, db)
    bound_a = max(max(map(abs, a[1])), max(map(abs, a[2])))
    bound_b = max(max(map(abs, b[1])), max(map(abs, b[2])))
    # each output collects at most one pair per term of either factor
    fits = 2 * bound_a * bound_b * min(len(a[0]), len(b[0])) < _INT64_LIMIT
    dtype = np.int64 if fits else object
    va = _dense_vector(n, da, a, dtype).take(table.left, axis=1)
    vb = _dense_vector(n, db, b, dtype).take(table.right, axis=1) * table.sign
    re = np.add.reduceat(va[0] * vb[0] - va[1] * vb[1], table.starts)
    im = np.add.reduceat(va[0] * vb[1] + va[1] * vb[0], table.starts)
    keep = np.flatnonzero((re != 0) | (im != 0))
    basis = monomial_basis(n, da + db)
    monos = [basis[i] for i in table.outputs[keep].tolist()]
    return monos, re[keep].tolist(), im[keep].tolist()


def _dense_vector(n: int, k: int, part: tuple, dtype) -> np.ndarray:
    rank = _basis_rank(n, k)
    vec = np.zeros((2, comb(2 * n, k)), dtype=dtype)
    index = [rank[mono] for mono in part[0]]
    vec[0, index] = part[1]
    vec[1, index] = part[2]
    return vec


def _unpacked(n: int, pieces: list, den: int) -> Form:
    """Form of summed (monomials, re, im) numerator pieces over den."""
    if len(pieces) == 1:
        items = zip(*pieces[0])
    else:
        acc: dict[Monomial, list[int]] = {}
        for monos, xs, ys in pieces:
            for mono, x, y in zip(monos, xs, ys):
                hit = acc.get(mono)
                if hit is None:
                    acc[mono] = [x, y]
                else:
                    hit[0] += x
                    hit[1] += y
        items = ((mono, x, y) for mono, (x, y) in acc.items())
    terms: dict[Monomial, GaussRational] = {}
    make = GaussRational._raw if den == 1 else GaussRational._norm
    for mono, x, y in items:
        if x or y:
            terms[mono] = make(x, y, den)
    return Form._trusted(n, terms)
