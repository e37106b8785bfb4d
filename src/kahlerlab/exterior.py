"""Exact complexified exterior algebra on C^n.

Scalars are Gaussian rationals (a + b*i with rational a, b) kept in reduced
integer form, so every identity asserted downstream is checked with zero
tolerance.  Forms are sparse maps from basis monomials dz^S ^ dzb^T (S, T
strictly increasing index subsets of {1..n}) to scalars.  The monomials are
declared orthonormal; the inner product is linear in the first slot and
conjugate-linear in the second.

Beside the dict `Form` there is `Batch`: T forms of one degree k held as
Gaussian-integer numerator arrays of shape (T, C(2n, k)), over one
denominator shared by every row.  Every fixed linear operator is compiled
once into a `Table` of signed (gather index, coefficient) pairs sorted by
output; tables compose and combine exactly.  The exterior product of
degrees da and db is a `Table` on the right factor whose coefficients are
the reorder signs, plus the left factor's column of each pair.  One kernel
applies both to a whole batch, chunk by chunk: one gather (a table) or two
(a product), np.add.reduceat.  A bound carried from the operands picks each
batch's tier (`_cast`).  The product of two dict forms loops over their
term pairs, so a sparse product costs its terms, not its degrees; fixed
operators reach a dict form as one-row batches, one per degree.

Monomials are bitmasks: the 2n-bit set of their 1-forms in the order
dz_1..dz_n, dzb_1..dzb_n.  The columns of degree k are the masks of
`_masks(n, k)`, in the order of a lexsort of (S, T), which is
`monomial_basis` order; every table is built from masks and popcounts,
and `Monomial` tuples are made only to render a form.  The reorder sign of
a product is the parity of the pairs that change places (Dorst, Fontijne
and Mann, Geometric Algebra for Computer Science, ch. 19).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from math import comb, gcd, lcm
from numbers import Rational
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussRational"]


class GaussRational:
    """Gaussian rational (x + y*i)/d with d > 0 and gcd(x, y, d) = 1."""

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if not (isinstance(re, Rational) and isinstance(im, Rational)):
            raise TypeError(f"components must be rational, got {re!r} and {im!r}")
        # lowest terms by the Rational contract; Python ints, as numpy ones wrap
        xn, xd = int(re.numerator), int(re.denominator)
        yn, yd = int(im.numerator), int(im.denominator)
        d = lcm(xd, yd)
        self._x, self._y, self._d = xn * (d // xd), yn * (d // yd), d

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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        terms = sorted(self.terms.items(), key=lambda kv: (kv[0].degree, kv[0]))
        return " + ".join(f"({c})*{m.label()}" for m, c in terms)

    def __repr__(self) -> str:
        return f"Form(n={self.n}, {str(self)})"

    def wedge(self, other: "Form") -> "Form":
        self._require_same_space(other)
        return Form._trusted(self.n, _sparse_product(self.n, self, other))

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
    acc = ZERO
    for mono in b.terms if len(b.terms) < len(a.terms) else a.terms:
        if mono in a.terms and mono in b.terms:
            acc = acc + a.terms[mono] * b.terms[mono].conjugate()
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


@lru_cache(maxsize=None)
def monomial_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """All degree-k monomials in canonical order."""
    indices = range(1, n + 1)
    return tuple(sorted(
        Monomial(s, t)
        for p in range(max(0, k - n), min(k, n) + 1)
        for s in combinations(indices, p)
        for t in combinations(indices, k - p)
    ))


@lru_cache(maxsize=None)
def bidegree_basis(n: int, p: int, q: int) -> tuple[Monomial, ...]:
    """All (p, q) monomials in canonical order."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    return tuple(mono for mono in monomial_basis(n, p + q) if mono.bidegree == (p, q))


# ---- numerator batches -------------------------------------------------------

# Numerators are one array of Gaussian integers: complex128 while a bound on
# every value computed is below 2^53, as integers below 2^53 are exact in
# float64 (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008); int64 for real
# values, such as squared norms, below 2^63; else objects (GaussRational
# over 1, or Python ints if real).  Each bound rule covers every product and
# partial sum of a real or imaginary part; a complex product is two products
# and a sum per part, so an FMA rounds nothing either, and sums are exact in
# any order.  Bounds are on max(|re|, |im|): np.abs of complex is the modulus.
_EXACT_LIMIT = 2 ** 53
_INT64_LIMIT = 2 ** 63
# tiers are told apart by dtype.kind: a complex dtype made at import raised peak RSS


def _size(n: int, k: int) -> int:
    """Number of degree-k monomials; zero outside 0..2n."""
    return comb(2 * n, k) if 0 <= k <= 2 * n else 0


def _parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of Gaussian integers, as integer arrays:
    int64 from either machine tier, Python ints from objects."""
    if a.dtype != object:
        return a.real.astype(np.int64), a.imag.astype(np.int64)
    re = [z._x if isinstance(z, GaussRational) else z for z in a.flat]  # else a Python int
    im = [z._y if isinstance(z, GaussRational) else 0 for z in a.flat]
    return np.array(re, object).reshape(a.shape), np.array(im, object).reshape(a.shape)


def _maxabs(*arrays: np.ndarray) -> int:
    """The largest |re| or |im| over the arrays."""
    bound = 0
    for a in arrays:
        if a.dtype == object:  # GaussRationals, or Python ints
            a = np.array([max(abs(z._x), abs(z._y)) if isinstance(z, GaussRational) else abs(z)
                          for z in a.flat], dtype=object)
        for part in ((a.real, a.imag) if a.dtype.kind == "c" else (a,)) if a.size else ():
            bound = max(bound, int(np.maximum.reduce(part, axis=None)),
                        -int(np.minimum.reduce(part, axis=None)))
    return bound


def _gaussian(re, im=None, objects: bool = False, bound: int | None = None) -> np.ndarray:
    """re + im*i from integer arrays or flat lists of one shape, im None for
    0: complex128 if every part is below 2^53 and not objects, else objects.
    bound, when given, bounds every |re| and |im|, which are then not measured."""
    re, im = [v if isinstance(v, np.ndarray) else np.array(v, dtype=object)  # never float64
              for v in (re, np.zeros(np.shape(re), np.int64) if im is None else im)]
    if not objects and (_maxabs(re, im) if bound is None else bound) < _EXACT_LIMIT:
        out = np.empty(re.shape, np.complex128)
        out.real, out.imag = re, im
        return out
    return np.fromiter(map(GaussRational._raw, re.ravel().tolist(), im.ravel().tolist(),
                           repeat(1)), object, re.size).reshape(re.shape)


def _cast(bound: int, *arrays: np.ndarray) -> Sequence[np.ndarray]:
    """The arrays in the tier that bound, on every |re| and |im| computed,
    picks: complex128 below 2^53, int64 below 2^63 for real ints, else objects."""
    if bound < _EXACT_LIMIT:
        for a in arrays:  # cheaper than all()
            if a.dtype.kind != "c":
                break
        else:
            return arrays
        if _maxabs(*arrays) < _EXACT_LIMIT:
            return [a if a.dtype.kind == "c" else _gaussian(*_parts(a)) for a in arrays]
    elif bound < _INT64_LIMIT and all(a.dtype == np.int64 or a.dtype.kind == "c"
                                      and not a.imag.any() for a in arrays):
        return [a if a.dtype == np.int64 else a.real.astype(np.int64) for a in arrays]
    return [a if a.dtype == object else _gaussian(*_parts(a), objects=True) for a in arrays]


class Batch:
    """T forms of degree k at dimension n, as Gaussian-integer numerators.

    Row t is sum_j num[t, j] / den * mu_j, mu_j the monomial of mask
    `_masks(n, k)[j]`; den is a positive int shared by every row.  A
    degree-0 batch doubles as a column of scalars.  bound, when given, is an
    upper bound on every |re| and |im| of num; without it the numerators are
    measured when first needed.  Batches are never changed in place.
    """

    __slots__ = ("n", "k", "num", "den", "_max", "_measured")

    def __init__(self, n: int, k: int, num: np.ndarray, den: int, bound: int | None = None):
        self.n, self.k, self.num, self.den = n, k, num, den
        self._max, self._measured = bound, False

    @classmethod
    def of(cls, n: int, k: int, forms: Sequence[Form]) -> "Batch":
        """Degree-k forms as rows, over the least common denominator of all
        their coefficients; a form of another dimension or a term of another
        degree is a ValueError."""
        if any(form.n != n for form in forms):
            raise ValueError(f"batch mismatch: a form of another dimension at n={n}")
        size, masks = _size(n, k), _masks(n, k)
        den = lcm(1, *(c._d for form in forms for c in form.terms.values()))
        cells = [(t, mono, c) for t, form in enumerate(forms) for mono, c in form.terms.items()]
        wrong = [mono for _, mono, _ in cells if mono.degree != k]
        if wrong:
            raise ValueError(f"{wrong[0].label()} is not of degree {k} at n={n}")
        ranks = _ranked(masks, np.array([_bits(n, mono)[0] for _, mono, _ in cells], masks.dtype))
        values = _gaussian([c._x * (den // c._d) for _, _, c in cells],
                           [c._y * (den // c._d) for _, _, c in cells])
        num = (np.zeros((len(forms), size), np.complex128) if values.dtype.kind == "c"
               else np.full((len(forms), size), ZERO, object))
        num[[t for t, _, _ in cells], ranks] = values
        return cls(n, k, num, den)

    @classmethod
    def zero(cls, n: int, k: int, rows: int, den: int = 1) -> "Batch":
        return cls(n, k, np.zeros((rows, _size(n, k)), dtype=np.complex128), den, 0)

    @classmethod
    def stacked(cls, batches: Sequence["Batch"]) -> "Batch":
        """The rows of batches of one dimension, degree and denominator, in turn."""
        a = batches[0]
        if {(b.n, b.k, b.den) for b in batches} != {(a.n, a.k, a.den)}:
            raise ValueError("batch mismatch: stacked batches differ in n, k or den")
        if len(batches) == 1:
            return a
        bound = _bounded(max, *batches)
        return cls(a.n, a.k, np.concatenate(_cast(bound, *[b.num for b in batches])), a.den, bound)

    def __getitem__(self, rows: slice) -> "Batch":
        return Batch(self.n, self.k, self.num[rows], self.den, self._max)

    @property
    def rows(self) -> int:
        return len(self.num)

    def terms(self, t: int) -> dict[Monomial, GaussRational]:
        den, row = self.den, self.num[t]
        make = GaussRational._raw if den == 1 else GaussRational._norm
        cols = np.flatnonzero(row.astype(bool))
        re, im = _parts(row[cols])
        return {_monomial_of(self.n, mask): make(x, y, den) for mask, x, y in
                zip(_masks(self.n, self.k)[cols].tolist(), re.tolist(), im.tolist())}

    def form(self, t: int) -> Form:
        return Form._trusted(self.n, self.terms(t))

    def is_zero(self) -> np.ndarray:
        """Per row, whether the form vanishes."""
        return ~self.num.astype(bool).any(axis=1)

    def _bound(self, measured: bool = False) -> int:
        """An upper bound on |re| and |im|: the carried one, or, when there
        is none or measured is set, the largest itself, found once."""
        if self._max is None or (measured and not self._measured):
            self._max, self._measured = _maxabs(self.num), True
        return self._max

    def _require_like(self, other: "Batch") -> None:
        if (self.n, self.k, self.rows) != (other.n, other.k, other.rows):
            raise ValueError(
                f"batch mismatch: (n, k, rows) {(self.n, self.k, self.rows)} "
                f"!= {(other.n, other.k, other.rows)}"
            )

    def __add__(self, other: "Batch") -> "Batch":
        if not isinstance(other, Batch):
            return NotImplemented
        self._require_like(other)
        # both over the least common denominator, with room for the sums
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        bound = _bounded(lambda x, y: max(x, 1) * fa + max(y, 1) * fb, self, other)
        x, y = _cast(bound, self.num, other.num)
        return Batch(self.n, self.k, (x * fa if fa > 1 else x) + (y * fb if fb > 1 else y),
                     den, bound)

    def __neg__(self) -> "Batch":
        return Batch(self.n, self.k, -self.num, self.den, self._max)

    def __sub__(self, other: "Batch") -> "Batch":
        if not isinstance(other, Batch):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "Batch":
        """Row by row times a degree-0 batch of as many rows or of one row;
        a constant is a one-row one."""
        if not isinstance(scalar, Batch):
            scalar = _constant(self.n, scalar)
            if scalar is NotImplemented:
                return NotImplemented
        elif (scalar.n, scalar.k) != (self.n, 0) or scalar.rows not in (1, self.rows):
            raise ValueError(f"batch mismatch: (n, k, rows) {(scalar.n, scalar.k, scalar.rows)} "
                             f"for a degree-0 factor of 1 or {self.rows} rows at n={self.n}")
        bound = _bounded(lambda a, b: 2 * a * b, self, scalar)
        x, c = _cast(bound, self.num, scalar.num)
        return Batch(self.n, self.k, x * c, self.den * scalar.den, bound)

    __rmul__ = __mul__

    def wedge(self, other: "Batch") -> "Batch":
        return _wedge_rows(self, other)

    def conjugate(self) -> "Batch":
        flipped = Batch(self.n, self.k, self.num.conj(), self.den, self._max)
        out = _conjugation_table(self.n, self.k)(flipped)  # a signed permutation
        return Batch(self.n, self.k, out.num, out.den, flipped._bound())

    def inner(self, other: "Batch") -> "Batch":
        self._require_like(other)
        cols = self.num.shape[1]
        bound = _bounded(lambda a, b: 2 * cols * a * b, self, other)
        x, y = _cast(bound, self.num, other.num)
        return Batch(self.n, 0, (x * y.conj()).sum(axis=1, keepdims=True),
                     self.den * other.den, bound)

    def norm_sq(self) -> "Batch":
        cols = self.num.shape[1]
        bound = _bounded(lambda a: 2 * cols * a * a, self)
        if bound < _EXACT_LIMIT:
            (x,) = _cast(bound, self.num)
            num = (x * x.conj()).sum(axis=1, keepdims=True)
        else:  # real: re^2 + im^2 summed in int64 below 2^63, else in Python ints
            re, im = [part.astype(np.int64 if bound < _INT64_LIMIT else object)
                      for part in _parts(self.num)]
            num = (re * re + im * im).sum(axis=1, keepdims=True)
        return Batch(self.n, 0, num, self.den * self.den, bound)


def _constant(n: int, c) -> Batch:
    """An int, Fraction or GaussRational as a one-row degree-0 batch that
    carries its bound, built directly while both parts are below 2^53;
    NotImplemented for any other value."""
    if isinstance(c, GaussRational):
        x, y, d = c._x, c._y, c._d
    elif isinstance(c, (int, Fraction)):
        x, y, d = int(c.numerator), 0, int(c.denominator)
    else:
        return NotImplemented
    bound = max(abs(x), abs(y))
    num = (np.array([[complex(x, y)]]) if bound < _EXACT_LIMIT
           else _gaussian([x], [y], objects=True).reshape(1, 1))
    return Batch(n, 0, num, d, bound)


def _bounded(rule: Callable[..., int], *batches: Batch) -> int:
    """rule applied to the carried numerator bounds of the batches; when
    that reaches 2^53, to their measured ones, so the tier is the one
    measuring the operands gives."""
    bound = rule(*[b._bound() for b in batches])  # an unpacked iterator fills tuple free lists
    if bound >= _EXACT_LIMIT:
        bound = rule(*[b._bound(measured=True) for b in batches])
    return bound


def _per_degree(a: Form, op: Callable[[Batch], Batch]) -> Form:
    """op on each homogeneous part of a, as a one-row batch.  Images of
    different degrees must not share a monomial."""
    terms: dict[Monomial, GaussRational] = {}
    for k, part in a.homogeneous_parts().items():
        terms.update(op(Batch.of(a.n, k, [part])).terms(0))
    return Form._trusted(a.n, terms)


def _apply(table_of: Callable[[int, int], Table], a):
    """The fixed operator whose table on degree k at dimension n is
    table_of(n, k), applied to a batch, or to a form degree by degree."""
    if isinstance(a, Batch):
        return table_of(a.n, a.k)(a)
    return _per_degree(a, lambda row: table_of(row.n, row.k)(row))


# ---- compiled tables ---------------------------------------------------------


class Table(NamedTuple):
    """A fixed linear map from degree-k_in forms onto degree-k forms, over
    one denominator; k_in is None when its inputs are the indices of a basis.

    Pair i sends input column src[i] to its output times coef[i]; pairs are
    sorted by output, segment g (from starts[g]) feeding column outputs[g].
    gain bounds the ratio of the largest output numerator to the largest
    input one.  `_table` builds every table reduced: no pair repeats or is
    zero, den is least, and coef is in the tier its values take.  The
    exterior product's tables (`_wedge_table`) hold int8 signs, and their
    pairs also carry a left factor, gathered by `_wedge_rows`.
    """

    k: int
    size: int
    src: np.ndarray
    coef: np.ndarray
    starts: np.ndarray
    outputs: np.ndarray
    den: int
    gain: int
    k_in: int | None

    def __call__(self, a: Batch) -> Batch:
        if a.k != self.k_in:
            raise ValueError(f"batch mismatch: degree {a.k} for a map on degree {self.k_in}")
        bound = _bounded(lambda x: self.gain * x, a)
        x, c = _cast(bound, a.num, self.coef)
        return _reduced(a.n, self, a.rows, lambda rows: x[rows][:, self.src] * c,
                        a.den * self.den, bound)


# A (rows x pairs) temporary holds at most this many entries; a chunk's
# temporaries take about 50 bytes per entry, about 50 KB in all.
_CHUNK_ENTRIES = 1 << 10


def _reduced(n: int, table: Table, rows: int, pairs: Callable, den: int, bound: int) -> Batch:
    """The batch whose row t holds, in column outputs[g], the sum of segment
    g of row t's pair values; pairs(rows) gives the values of a slice of
    rows.  The rows go through in chunks of at most _CHUNK_ENTRIES pair
    values (or of one row).  The output takes the tier of the sums,
    complex128 zeros when there are none; bound bounds every sum."""
    step = _CHUNK_ENTRIES // max(table.src.size, 1) or 1
    if table.src.size and 0 < rows <= step and table.outputs.size == table.size:
        # one chunk, every column an output: the sums are the batch
        return Batch(n, table.k, np.add.reduceat(pairs(slice(None)), table.starts, axis=1),
                     den, bound)
    out = np.zeros((rows, table.size), dtype=np.complex128)
    cols = slice(None) if table.outputs.size == table.size else table.outputs  # 10x cheaper
    for start in range(0, rows if table.src.size else 0, step):
        chunk = slice(start, start + step)
        values = pairs(chunk)
        if values.dtype != out.dtype:
            out = np.zeros(out.shape, values.dtype)
        out[chunk, cols] = np.add.reduceat(values, table.starts, axis=1)
    return Batch(n, table.k, out, den, bound)


def _table(k: int, size: int, out, src, coef: np.ndarray, den: int, k_in: int | None) -> Table:
    """Table of the pairs (out, src, coef / den), coef Gaussian integers of
    either tier, given in any order and possibly repeated: repeated pairs
    are summed, zeros dropped and den made the least common denominator."""
    out, src = np.asarray(out, dtype=np.int64), np.asarray(src, dtype=np.int64)
    order = np.lexsort((src, out))
    out, src, coef = out[order], src[order], coef[order]
    first = np.flatnonzero(np.concatenate(([True], (out[1:] != out[:-1]) | (src[1:] != src[:-1]))))
    if first.size < out.size:  # sum the repeated pairs, with room for the sums
        (coef,) = _cast(_maxabs(coef) * out.size, coef)
        out, src = out[first], src[first]
        coef = np.add.reduceat(coef, first)
    keep = np.flatnonzero(coef.astype(bool))
    out, src, (re, im) = out[keep], src[keep], _parts(coef[keep])
    g = gcd(den, *re.tolist(), *im.tolist())
    if re.size:  # then g divides every part, so fits their dtype
        re, im = re // g, im // g
    coef = _gaussian(re, im)  # in the tier the quotients take
    starts = np.flatnonzero(np.concatenate(([True], out[1:] != out[:-1]))) if out.size else out
    longest = int(np.diff(np.append(starts, out.size)).max()) if out.size else 0
    return Table(k, size, src, coef, starts, out[starts], den // g,
                 2 * _maxabs(coef) * longest, k_in)


def _pair_outputs(table: Table) -> np.ndarray:
    """The output column of every pair of a table."""
    return np.repeat(table.outputs, np.diff(np.append(table.starts, table.src.size)))


def _images(n: int, table: Table, inputs: int) -> list[Form]:
    """The image of each of the inputs 0..inputs-1 of a table, as forms."""
    basis = monomial_basis(n, table.k)
    terms: list[dict[Monomial, GaussRational]] = [{} for _ in range(inputs)]
    re, im = _parts(table.coef)
    for o, s, x, y in zip(_pair_outputs(table).tolist(), table.src.tolist(), re.tolist(),
                          im.tolist()):
        terms[s][basis[o]] = GaussRational._norm(x, y, table.den)
    return [Form._trusted(n, t) for t in terms]


def _composed(outer: Table, inner: Table) -> Table:
    """The table of outer o inner, exact: each pair of outer is joined with
    the pairs of inner whose output is its input."""
    middle = _pair_outputs(inner)  # sorted
    lo = np.searchsorted(middle, outer.src, side="left")
    counts = np.searchsorted(middle, outer.src, side="right") - lo
    a = np.repeat(np.arange(outer.src.size), counts)
    b = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(a.size)
    x, y = _cast(2 * _maxabs(outer.coef) * _maxabs(inner.coef), outer.coef, inner.coef)
    return _table(outer.k, outer.size, _pair_outputs(outer)[a], inner.src[b], x[a] * y[b],
                  outer.den * inner.den, inner.k_in)


def _combined(terms: Sequence[tuple[Rationalish, Table]]) -> Table:
    """The table of sum_i c_i T_i, for rational c_i and tables T_i between
    the same two degrees, over one denominator."""
    scales = [Fraction(c) / table.den for c, table in terms]
    den = lcm(*(s.denominator for s in scales))
    factors = [int(s * den) for s in scales]
    bound = max(abs(f) * max(1, _maxabs(t.coef)) for f, (_, t) in zip(factors, terms))
    parts = _cast(bound, *[t.coef for _, t in terms])
    return _table(
        terms[0][1].k, terms[0][1].size,
        np.concatenate([_pair_outputs(t) for _, t in terms]),
        np.concatenate([t.src for _, t in terms]),
        np.concatenate([coef * f for coef, f in zip(parts, factors)]),
        den, terms[0][1].k_in,
    )


def _equal_tables(a: Table, b: Table) -> bool:
    """Field by field, coefficients of one machine dtype as they are, else
    as integer parts in either tier; as every table is reduced, exactly
    when the maps agree."""
    if a.coef.dtype == b.coef.dtype != object:
        coefs = np.array_equal(a.coef, b.coef)
    else:
        coefs = all(np.array_equal(x, y) for x, y in zip(_parts(a.coef), _parts(b.coef)))
    return coefs and all(np.array_equal(x, y) for f, x, y in zip(a._fields, a, b) if f != "coef")


@lru_cache(maxsize=None)
def _conjugation_table(n: int, k: int) -> Table:
    """The monomial part of conjugation, dz^S ^ dzb^T -> (-1)^(pq) dz^T ^ dzb^S;
    the coefficients are conjugated before it is applied.  The output of
    each bitmask is the mask with its holomorphic and antiholomorphic halves
    swapped."""
    masks, p = _masks(n, k), _holomorphic(n, k)
    swapped = (masks >> n) | ((masks & ((1 << n) - 1)) << n)
    sign = 1 - 2 * (p * (k - p) & 1)
    return _table(k, _size(n, k), _ranked(masks, swapped), np.arange(masks.size),
                  _gaussian(sign), 1, k)


# ---- exterior product: bitmasks, the term-pair loop and compiled tables ----

@lru_cache(maxsize=None)
def _bits(n: int, mono: Monomial) -> tuple[int, int]:
    """Bitmask and suffix parities (`_parities`) of a monomial at dimension
    n: bit a-1 stands for dz_a and bit n+a-1 for dzb_a."""
    mask = sum(1 << (a - 1) for a in mono.s) | sum(1 << (n + a - 1) for a in mono.t)
    return mask, _parities(n, mask)


def _parities(n: int, masks):
    """Bit y of the suffix parities of a mask is the parity of its bits above
    y, so mu ^ nu reorders with sign (-1)^popcount(parities(mu) & mask(nu));
    of an int or elementwise."""
    out, shift = masks >> 1, 1
    while shift < 2 * n:
        out, shift = out ^ (out >> shift), 2 * shift
    return out


@lru_cache(maxsize=None)
def _masks(n: int, k: int) -> np.ndarray:
    """The bitmasks of the degree-k monomials dz^S ^ dzb^T in `monomial_basis`
    order, the columns of every batch and table: int64, or Python ints when
    2n >= 63.  That order sorts by S as a tuple, then by T, whose subsets of
    one size come in `combinations` order; only degree-k masks are formed."""
    dtype, sizes = np.int64 if 2 * n < 63 else object, range(max(0, k - n), min(k, n) + 1)
    right = {d: np.array([sum(1 << b for b in t) for t in combinations(range(n, 2 * n), d)],
                         dtype) for d in (k - p for p in sizes)}
    return np.concatenate([np.zeros(0, dtype)] + [
        sum(1 << a for a in s) | right[k - len(s)]
        for s in sorted(s for p in sizes for s in combinations(range(n), p))])


def _ones(masks: np.ndarray) -> np.ndarray:
    """The popcount of each mask, as int64."""
    if masks.dtype == object:
        return np.vectorize(int.bit_count, otypes=[np.int64])(masks)
    return np.bitwise_count(masks).astype(np.int64)


def _holomorphic(n: int, k: int) -> np.ndarray:
    """p of each degree-k monomial dz^S ^ dzb^T, |S| = p, in basis order."""
    return _ones(_masks(n, k) & ((1 << n) - 1))


@lru_cache(maxsize=None)
def _monomial_of(n: int, mask: int) -> Monomial:
    """The monomial whose bitmask at dimension n is mask."""
    return Monomial(*(tuple(a for a in range(1, n + 1) if mask >> (a - 1 + half) & 1)
                      for half in (0, n)))


def _ranked(masks: np.ndarray, of: np.ndarray) -> np.ndarray:
    """The index in `masks` of each entry of `of`, all of which occur there."""
    order = np.argsort(masks)
    return order[np.searchsorted(masks[order], of)]


def _disjoint_pairs(n: int, lefts: np.ndarray, da: int, db: int):
    """Every product of a degree-da monomial of index in lefts by a
    degree-db monomial disjoint from it, as (position in lefts, right,
    int8 sign, output), left by left and rights ascending.

    The rights of a left monomial are the db-subsets of its complement: one
    combinations index array over the 2n - da free bit positions, mapped
    through each left's own, so no left x right mask matrix is formed."""
    mask_a, mask_b = _masks(n, da)[lefts], _masks(n, db)
    free = np.nonzero(((mask_a[:, None] >> np.arange(2 * n)) & 1) == 0)[1]
    free = free.reshape(len(mask_a), 2 * n - da)
    subsets = np.array(list(combinations(range(2 * n - da), db)),
                       dtype=np.int64).reshape(comb(2 * n - da, db), db)
    rmask = np.zeros((len(mask_a), len(subsets)), dtype=mask_a.dtype)
    for column in subsets.T:
        rmask |= np.ones((), dtype=mask_a.dtype) << free[:, column]
    right = np.sort(_ranked(mask_b, rmask), axis=1).ravel()
    left = np.repeat(np.arange(len(mask_a)), len(subsets))
    out = _ranked(_masks(n, da + db), mask_a[left] | mask_b[right])
    odd = _ones(_parities(n, mask_a)[left] & mask_b[right]) & 1
    return left, right, (1 - 2 * odd).astype(np.int8), out


@lru_cache(maxsize=None)
def _wedge_table(n: int, da: int, db: int) -> tuple[Table, np.ndarray]:
    """The nonvanishing products of degree-da by degree-db basis monomials,
    as a `Table` on the right factor whose coefficient is the reorder sign,
    one int8 per pair, and the left factor's column of each pair."""
    left, right, sign, out = _disjoint_pairs(n, np.arange(_size(n, da)), da, db)
    by_out = np.argsort(out, kind="stable")
    left, right, sign, out = left[by_out], right[by_out], sign[by_out], out[by_out]
    starts = np.flatnonzero(np.concatenate(([True], out[1:] != out[:-1])))
    longest = int(np.diff(np.append(starts, out.size)).max())
    return Table(da + db, _size(n, da + db), right, sign, starts, out[starts], 1,
                 2 * longest, db), left


def _wedge_rows(a: Batch, b: Batch) -> Batch:
    """Row-by-row exterior products a_t ^ b_t on the compiled table: each
    pair is a left column times a right one times the real reorder sign."""
    if a.n != b.n or a.rows != b.rows:
        raise ValueError("batch mismatch in the exterior product")
    n, k = a.n, a.k + b.k
    if not (_size(n, a.k) and _size(n, b.k) and _size(n, k)):  # no table to build
        return Batch.zero(n, k, a.rows, a.den * b.den)
    table, left = _wedge_table(n, a.k, b.k)
    bound = _bounded(lambda x, y: table.gain * x * y, a, b)
    x, y = _cast(bound, a.num, b.num)
    return _reduced(n, table, a.rows, lambda rows: x[rows][:, left] * y[rows][:, table.src]
                    * table.coef, a.den * b.den, bound)


def _wedge_by(fixed: Form, d: int, k: int) -> Table:
    """Table of b -> fixed ^ b on degree-k forms, for fixed of degree d; only
    the terms of fixed are paired."""
    n = fixed.n
    if not (_size(n, d + k) and _size(n, k) and _size(n, d)):
        return _table(d + k, _size(n, d + k), [], [], np.zeros(0, np.complex128), 1, k)
    row = Batch.of(n, d, [fixed])
    terms = np.flatnonzero(row.num[0].astype(bool))
    left, right, sign, out = _disjoint_pairs(n, terms, d, k)
    return _table(d + k, _size(n, d + k), out, right, row.num[0, terms[left]] * sign, row.den, k)


def _sparse_product(n: int, a: Form, b: Form) -> dict[Monomial, GaussRational]:
    """Terms of a ^ b, term pair by term pair, over the numerators of a and
    b on their least common denominators."""
    den_a = lcm(1, *(c._d for c in a.terms.values()))
    den_b = lcm(1, *(c._d for c in b.terms.values()))
    terms_b = [(_bits(n, mono)[0], c._x * (den_b // c._d), c._y * (den_b // c._d))
               for mono, c in b.terms.items()]
    acc: dict[int, list[int]] = {}
    for mono, c in a.terms.items():
        mask_a, par_a = _bits(n, mono)
        xa, ya = c._x * (den_a // c._d), c._y * (den_a // c._d)
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
    return {_monomial_of(n, key): make(x, y, den) for key, (x, y) in acc.items() if x or y}
