"""Exact complexified exterior algebra on C^n.

Scalars are Gaussian rationals (a + b*i with rational a, b) kept in reduced
integer form, so every identity asserted downstream is checked with zero
tolerance.  Forms are sparse maps from basis monomials dz^S ^ dzb^T (S, T
strictly increasing index subsets of {1..n}) to scalars.  The monomials are
declared orthonormal; the inner product is linear in the first slot and
conjugate-linear in the second.

Beside the dict `Form` there is `Batch`: T forms of one degree k held as
Gaussian-integer numerator arrays of shape (T, C(2n, k)) over the ranks of
`monomial_basis(n, k)`, with one denominator per row.  Every fixed linear
operator is compiled once into a `Table` of signed (gather index,
coefficient) pairs sorted by output, and applied to a whole batch by one
take and one np.add.reduceat; the exterior product uses the same layout
with two gathers.  Arithmetic is int64 under a bound checked before each
operation and Python ints otherwise.  The dict operations run on one-row
batches, except products of a few terms, which loop over term pairs.

The exterior product works on bitmasks: a monomial is the 2n-bit set of its
1-forms in the order dz_1..dz_n, dzb_1..dzb_n, and the reorder sign of a
product is the parity of the pairs that change places (Dorst, Fontijne and
Mann, Geometric Algebra for Computer Science, ch. 19).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

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
        parts_b = other.homogeneous_parts()
        pieces = [
            Form._trusted(n, _part_product(n, da, pa, db, pb))
            for da, pa in self.homogeneous_parts().items()
            for db, pb in parts_b.items()
            if da + db <= 2 * n
        ]
        out = pieces[0] if pieces else Form.zero(n)
        for piece in pieces[1:]:
            out = out + piece
        return out

    def conjugate(self) -> "Form":
        return _per_degree(self, Batch.conjugate)


def wedge(a, b):
    """Exterior product a ^ b of two forms, or row by row of two batches."""
    return a.wedge(b)


def conjugate(a):
    """Complex conjugate; swaps the two index sets with the reorder sign."""
    return a.conjugate()


def bidegree_project(a: Form, p: int, q: int) -> Form:
    """Component of a in bidegree (p, q)."""
    if not (0 <= p <= a.n and 0 <= q <= a.n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={a.n}")
    picked = {m: c for m, c in a.terms.items() if m.bidegree == (p, q)}
    return Form._trusted(a.n, picked)


def inner(a, b):
    """Hermitian inner product; linear in a, conjugate-linear in b.

    On two batches it is taken row by row and returned as a degree-0 batch.
    """
    if isinstance(a, Batch):
        return a.inner(b)
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


def norm_sq(a):
    """Exact squared norm, a nonnegative rational; row by row on a batch."""
    if isinstance(a, Batch):
        return a.norm_sq()
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


# ---- numerator batches -------------------------------------------------------

_INT64_LIMIT = 2 ** 63


def _size(n: int, k: int) -> int:
    """Number of degree-k monomials; zero outside 0..2n."""
    return comb(2 * n, k) if 0 <= k <= 2 * n else 0


def _maxabs(*arrays: np.ndarray) -> int:
    bound = 0
    for a in arrays:
        if a.size:
            bound = max(bound, int(np.maximum.reduce(a, axis=None)),
                        -int(np.minimum.reduce(a, axis=None)))
    return bound


def _cast(bound: int, *arrays: np.ndarray) -> Sequence[np.ndarray]:
    """The arrays as int64 when bound, a bound on every value computed from
    them, is below 2^63 (and the arrays themselves fit), and as object
    arrays of Python ints otherwise."""
    if bound < _INT64_LIMIT:
        if all(a.dtype == np.int64 for a in arrays):
            return arrays
        if _maxabs(*arrays) < _INT64_LIMIT:
            return [a.astype(np.int64) for a in arrays]
    return [a.astype(object) for a in arrays]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _cast(_maxabs(a) * _maxabs(b), a, b)
    return a * b


def _ints(values) -> np.ndarray:
    """Python ints as an int64 array when they fit, else an object array."""
    if isinstance(values, np.ndarray):
        return values
    values = list(values)
    fits = max(map(abs, values), default=0) < _INT64_LIMIT
    return np.array(values, dtype=np.int64 if fits else object)


@lru_cache(maxsize=None)
def _basis_rank(n: int, k: int) -> dict[Monomial, int]:
    return {mono: i for i, mono in enumerate(monomial_basis(n, k))}


def row_blocks(rows: int, size: int = 64) -> list[range]:
    """Consecutive ranges of at most size rows covering range(rows): batches
    of many rows are processed a block at a time, so that dense arrays stay
    small."""
    return [range(start, min(start + size, rows)) for start in range(0, rows, size)]


class Batch:
    """T forms of degree k at dimension n, as Gaussian-integer numerators.

    Row t is sum_j (re[t, j] + i im[t, j]) / den[t] * basis[j] over
    basis = monomial_basis(n, k); den > 0.  A degree-0 batch doubles as a
    column of scalars.  Batches are never changed in place.
    """

    __slots__ = ("n", "k", "re", "im", "den", "_max")

    def __init__(self, n: int, k: int, re: np.ndarray, im: np.ndarray, den: np.ndarray):
        self.n, self.k, self.re, self.im, self.den = n, k, re, im, den
        self._max = None

    @classmethod
    def of(cls, n: int, k: int, forms: Sequence[Form]) -> "Batch":
        """Degree-k forms as rows; a term of another degree is a ValueError."""
        rank, size = _basis_rank(n, k), _size(n, k)
        re, im, dens = [0] * (len(forms) * size), [0] * (len(forms) * size), []
        for t, form in enumerate(forms):
            den = lcm(1, *(c._d for c in form.terms.values()))
            for mono, c in form.terms.items():
                j = rank.get(mono)
                if j is None:
                    raise ValueError(f"{mono.label()} is not of degree {k} at n={n}")
                re[t * size + j] = c._x * (den // c._d)
                im[t * size + j] = c._y * (den // c._d)
            dens.append(den)
        shape = (len(forms), size)
        return cls(n, k, _ints(re).reshape(shape), _ints(im).reshape(shape), _ints(dens))

    @classmethod
    def zero(cls, n: int, k: int, rows: int, den: np.ndarray | None = None) -> "Batch":
        re = np.zeros((rows, _size(n, k)), dtype=np.int64)
        return cls(n, k, re, re, np.ones(rows, dtype=np.int64) if den is None else den)

    @classmethod
    def units(cls, n: int, k: int, ranks: Sequence[int]) -> "Batch":
        """The degree-k basis monomials of the given ranks, one per row."""
        re = np.zeros((len(ranks), _size(n, k)), dtype=np.int64)
        re[np.arange(len(ranks)), ranks] = 1
        return cls(n, k, re, np.zeros_like(re), np.ones(len(ranks), dtype=np.int64))

    @property
    def rows(self) -> int:
        return len(self.den)

    def _entries(self, t: int):
        """(column, re, im) of the nonzero coefficients of row t, as ints."""
        re, im = self.re[t], self.im[t]
        cols = np.flatnonzero((re != 0) | (im != 0))
        return zip(cols.tolist(), re[cols].tolist(), im[cols].tolist())

    def terms(self, t: int) -> dict[Monomial, GaussRational]:
        basis, den = monomial_basis(self.n, self.k), int(self.den[t])
        make = GaussRational._raw if den == 1 else GaussRational._norm
        return {basis[j]: make(x, y, den) for j, x, y in self._entries(t)}

    def form(self, t: int) -> Form:
        return Form._trusted(self.n, self.terms(t))

    def sparse_rows(self) -> list[dict[int, GaussRational]]:
        """Every row as {column: nonzero coefficient}, for rational_linalg."""
        out = []
        for t in range(self.rows):
            den = int(self.den[t])
            out.append({j: GaussRational._norm(x, y, den) for j, x, y in self._entries(t)})
        return out

    def is_zero(self) -> np.ndarray:
        """Per row, whether the form vanishes."""
        return ~((self.re != 0).any(axis=1) | (self.im != 0).any(axis=1))

    def _bound(self) -> int:
        """The largest |numerator|, found once."""
        if self._max is None:
            self._max = _maxabs(self.re, self.im)
        return self._max

    def _require_like(self, other: "Batch") -> None:
        if (self.n, self.k, self.rows) != (other.n, other.k, other.rows):
            raise ValueError(
                f"batch mismatch: (n, k, rows) {(self.n, self.k, self.rows)} "
                f"!= {(other.n, other.k, other.rows)}"
            )

    def cross(self, other: "Batch") -> tuple[np.ndarray, np.ndarray]:
        """Rows [re | im] of self and of other over one denominator per row;
        a row of one equals the row of the other exactly when the forms do,
        and for real scalars the order of the rows is the order of the values."""
        self._require_like(other)
        if np.array_equal(self.den, other.den):
            a_re, a_im, b_re, b_im = self.re, self.im, other.re, other.im
        else:
            a_re, a_im, b_re, b_im, _ = _common(self, other)
        return np.hstack((a_re, a_im)), np.hstack((b_re, b_im))

    def __add__(self, other: "Batch") -> "Batch":
        if not isinstance(other, Batch):
            return NotImplemented
        self._require_like(other)
        if np.array_equal(self.den, other.den):
            a_re, a_im, b_re, b_im = _cast(
                self._bound() + other._bound(), self.re, self.im, other.re, other.im
            )
            den = self.den
        else:
            a_re, a_im, b_re, b_im, den = _common(self, other)
        return Batch(self.n, self.k, a_re + b_re, a_im + b_im, den)

    def __neg__(self) -> "Batch":
        return Batch(self.n, self.k, -self.re, -self.im, self.den)

    def __sub__(self, other: "Batch") -> "Batch":
        if not isinstance(other, Batch):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "Batch":
        """Times a constant, or row by row times a degree-0 batch."""
        if not isinstance(scalar, Batch):
            c = GaussRational._coerce(scalar)
            if c is NotImplemented:
                return NotImplemented
            if c._y == 0:  # x / d scales the numerators by x, the denominators by d
                re, im = _cast(max(self._bound(), 1) * abs(c._x), self.re, self.im)
                return Batch(self.n, self.k, re * c._x, im * c._x,
                             _product(self.den, np.asarray(c._d)))
            scalar = Batch(self.n, 0, np.array([[c._x]], dtype=object),
                           np.array([[c._y]], dtype=object), np.array([c._d], dtype=object))
        elif scalar.k != 0:
            raise ValueError("only a degree-0 batch multiplies a batch")
        re, im, x, y = _cast(2 * self._bound() * scalar._bound(),
                             self.re, self.im, scalar.re, scalar.im)
        return Batch(self.n, self.k, re * x - im * y, re * y + im * x,
                     _product(self.den, scalar.den))

    __rmul__ = __mul__

    def wedge(self, other: "Batch") -> "Batch":
        return _wedge_rows(self, other)

    def conjugate(self) -> "Batch":
        flipped = Batch(self.n, self.k, self.re, -self.im, self.den)
        return _conjugation_table(self.n, self.k)(flipped)

    def inner(self, other: "Batch") -> "Batch":
        self._require_like(other)
        bound = 2 * self.re.shape[1] * self._bound() * other._bound()
        a_re, a_im, b_re, b_im = _cast(bound, self.re, self.im, other.re, other.im)
        re = (a_re * b_re + a_im * b_im).sum(axis=1, keepdims=True)
        im = (a_im * b_re - a_re * b_im).sum(axis=1, keepdims=True)
        return Batch(self.n, 0, re, im, _product(self.den, other.den))

    def norm_sq(self) -> "Batch":
        re, im = _cast(2 * self.re.shape[1] * self._bound() ** 2, self.re, self.im)
        total = (re * re + im * im).sum(axis=1, keepdims=True)
        return Batch(self.n, 0, total, np.zeros_like(total), _product(self.den, self.den))


def _common(a: Batch, b: Batch):
    """Numerators of a and b over den_a * den_b, with room to add them, and
    that denominator."""
    den_a, den_b = a.den[:, None], b.den[:, None]
    bound = 2 * max(a._bound() * _maxabs(den_b), b._bound() * _maxabs(den_a))
    a_re, a_im, b_re, b_im, den_a, den_b = _cast(bound, a.re, a.im, b.re, b.im, den_a, den_b)
    return a_re * den_b, a_im * den_b, b_re * den_a, b_im * den_a, _product(a.den, b.den)


def _per_degree(a: Form, op: Callable[[Batch], Batch]) -> Form:
    """op on each homogeneous part of a, as a one-row batch.  Images of
    different degrees must not share a monomial."""
    terms: dict[Monomial, GaussRational] = {}
    for k, part in a.homogeneous_parts().items():
        terms.update(op(Batch.of(a.n, k, [part])).terms(0))
    return Form._trusted(a.n, terms)


# ---- compiled tables ---------------------------------------------------------


class Table(NamedTuple):
    """A fixed linear map onto degree-k forms, over one denominator.

    Pair i sends input column src[i] to its output with the Gaussian-integer
    coefficient re[i] + i im[i]; pairs are sorted by output, segment g
    (from starts[g]) feeding column outputs[g].  gain bounds the ratio of
    the largest output numerator to the largest input one.
    """

    k: int
    size: int
    src: np.ndarray
    re: np.ndarray
    im: np.ndarray
    starts: np.ndarray
    outputs: np.ndarray
    den: int
    gain: int

    def __call__(self, a: Batch) -> Batch:
        den = a.den if self.den == 1 else _product(a.den, np.asarray(self.den))
        if not (self.src.size and a.rows):
            return Batch.zero(a.n, self.k, a.rows, den)
        x_re, x_im, c_re, c_im = _cast(self.gain * a._bound(), a.re, a.im, self.re, self.im)
        pieces = []
        for rows in _chunks(a.rows, self.src.size):
            p_re, p_im = x_re[rows][:, self.src], x_im[rows][:, self.src]
            pieces.append(_summed(self, p_re * c_re - p_im * c_im, p_re * c_im + p_im * c_re))
        return _stacked(a.n, self, pieces, den)


# A (rows x pairs) temporary holds at most this many entries.
_CHUNK_ENTRIES = 1 << 15


def _chunks(rows: int, pairs: int) -> list[slice]:
    return [slice(b.start, b.stop) for b in row_blocks(rows, _CHUNK_ENTRIES // pairs or 1)]


def _summed(table, re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns whose entry outputs[g] sums segment g of the pair values."""
    return (np.add.reduceat(re, table.starts, axis=1),
            np.add.reduceat(im, table.starts, axis=1))


def _stacked(n: int, table, pieces: list, den: np.ndarray) -> Batch:
    """The batch of the summed chunks, with the output columns in place."""
    re = np.vstack([p[0] for p in pieces])
    im = np.vstack([p[1] for p in pieces])
    if len(table.outputs) < table.size:
        full_re = np.zeros((len(re), table.size), dtype=re.dtype)
        full_im = np.zeros((len(im), table.size), dtype=im.dtype)
        full_re[:, table.outputs], full_im[:, table.outputs] = re, im
        re, im = full_re, full_im
    return Batch(n, table.k, re, im, den)


def _table(k: int, size: int, out, src, re, im, den: int) -> Table:
    """Table of the pairs (out, src, re + i im), given in any order."""
    out, src = np.asarray(out, dtype=np.int64), np.asarray(src, dtype=np.int64)
    re, im = _ints(re), _ints(im)
    order = np.lexsort((src, out))
    out, src, re, im = out[order], src[order], re[order], im[order]
    starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]]) if out.size else out
    longest = int(np.diff(np.r_[starts, out.size]).max()) if out.size else 0
    return Table(k, size, src, re, im, starts, out[starts], den,
                 2 * _maxabs(re, im) * longest)


def _compiled(
    n: int, k_in: int, k_out: int,
    columns: Mapping[Monomial, Mapping[Monomial, GaussRational]],
) -> Table:
    """Table of the map sending each degree-k_in monomial mu to
    sum_nu columns[mu][nu] * nu."""
    rank_in, rank_out = _basis_rank(n, k_in), _basis_rank(n, k_out)
    den = lcm(1, *(c._d for col in columns.values() for c in col.values()))
    out, src, re, im = [], [], [], []
    for mu, col in columns.items():
        for nu, c in col.items():
            out.append(rank_out[nu])
            src.append(rank_in[mu])
            re.append(c._x * (den // c._d))
            im.append(c._y * (den // c._d))
    return _table(k_out, _size(n, k_out), out, src, re, im, den)


def _adjoint(table: Table, n: int, k_in: int) -> Table:
    """Conjugate transpose of a table on degree-k_in forms."""
    out = np.repeat(table.outputs, np.diff(np.r_[table.starts, table.src.size]))
    return _table(k_in, _size(n, k_in), table.src, out, table.re, -table.im, table.den)


@lru_cache(maxsize=None)
def _conjugation_table(n: int, k: int) -> Table:
    """The monomial part of conjugation, dz^S ^ dzb^T -> (-1)^(pq) dz^T ^ dzb^S;
    the coefficients are conjugated before it is applied."""
    return _compiled(n, k, k, {
        mono: {Monomial(mono.t, mono.s): GaussRational((-1) ** (len(mono.s) * len(mono.t)))}
        for mono in monomial_basis(n, k)
    })


# ---- compiled exterior product ---------------------------------------------

# A product of homogeneous parts with at most this many term pairs loops over
# them in Python; above it, and once the operands fill at least 1/_DENSE_FILL
# of the compiled table, it runs on one-row batches.
_SPARSE_PAIRS = 64
_DENSE_FILL = 16


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

    k: int  # da + db
    size: int
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray
    starts: np.ndarray  # first pair of each output
    outputs: np.ndarray  # rank of each output in degree da + db
    gain: int  # twice the most pairs feeding one output


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
    sign = (1 - 2 * (odd & 1)).astype(np.int64)
    by_out = np.argsort(out, kind="stable")
    left, right, sign, out = left[by_out], right[by_out], sign[by_out], out[by_out]
    starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]])
    longest = int(np.diff(np.r_[starts, out.size]).max())
    return _WedgeTable(da + db, len(mask_c), left, right, sign, starts, out[starts],
                       2 * longest)


def _wedge_rows(a: Batch, b: Batch) -> Batch:
    """Row-by-row exterior products a_t ^ b_t on the compiled table."""
    if a.n != b.n or a.rows != b.rows:
        raise ValueError("batch mismatch in the exterior product")
    n, k = a.n, a.k + b.k
    den = _product(a.den, b.den)
    if not (_size(n, k) and a.re.shape[1] and b.re.shape[1] and a.rows):
        return Batch.zero(n, k, a.rows, den)
    table = _wedge_table(n, a.k, b.k)
    a_re, a_im, b_re, b_im = _cast(table.gain * a._bound() * b._bound(),
                                   a.re, a.im, b.re, b.im)
    pieces = []
    for rows in _chunks(a.rows, table.left.size):
        x_re, x_im = a_re[rows][:, table.left], a_im[rows][:, table.left]
        y_re = b_re[rows][:, table.right] * table.sign
        y_im = b_im[rows][:, table.right] * table.sign
        pieces.append(_summed(table, x_re * y_re - x_im * y_im, x_re * y_im + x_im * y_re))
    return _stacked(n, table, pieces, den)


def _wedge_by(fixed: Form, d: int, k: int) -> Table:
    """Table of b -> fixed ^ b on degree-k forms, for fixed of degree d."""
    n = fixed.n
    if not (_size(n, d + k) and _size(n, k) and _size(n, d)):
        return _table(d + k, _size(n, d + k), [], [], [], [], 1)
    row = Batch.of(n, d, [fixed])
    w = _wedge_table(n, d, k)
    out = np.repeat(w.outputs, np.diff(np.r_[w.starts, w.left.size]))
    re, im = row.re[0, w.left] * w.sign, row.im[0, w.left] * w.sign
    keep = np.flatnonzero((re != 0) | (im != 0))
    return _table(d + k, w.size, out[keep], w.right[keep], re[keep], im[keep],
                  int(row.den[0]))


def _numerators(a: Form) -> tuple[int, list[tuple[Monomial, int, int]]]:
    den = lcm(1, *(c._d for c in a.terms.values()))
    return den, [(m, c._x * (den // c._d), c._y * (den // c._d)) for m, c in a.terms.items()]


def _part_product(n: int, da: int, a: Form, db: int, b: Form) -> dict[Monomial, GaussRational]:
    """Terms of (degree-da form a) ^ (degree-db form b)."""
    pairs = len(a.terms) * len(b.terms)
    table_pairs = comb(2 * n, da) * comb(2 * n - da, db)
    if pairs <= _SPARSE_PAIRS or table_pairs > _DENSE_FILL * pairs:
        return _sparse_product(n, a, b)
    return _wedge_rows(Batch.of(n, da, [a]), Batch.of(n, db, [b])).terms(0)


def _sparse_product(n: int, a: Form, b: Form) -> dict[Monomial, GaussRational]:
    masks = _masks(n)
    den_a, terms_a = _numerators(a)
    den_b, terms_b = _numerators(b)
    terms_b = [(masks[mono][0], xb, yb) for mono, xb, yb in terms_b]
    acc: dict[int, list[int]] = {}
    for mono, xa, ya in terms_a:
        mask_a, par_a = masks[mono]
        for mask_b, xb, yb in terms_b:
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
    den = den_a * den_b
    make = GaussRational._raw if den == 1 else GaussRational._norm
    return {masks.monomials[key]: make(x, y, den) for key, (x, y) in acc.items() if x or y}
