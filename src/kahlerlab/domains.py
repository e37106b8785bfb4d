"""Classical bounded symmetric domains and their spectral bound tables.

The six classical families live in one table, `_FAMILIES`: each family's
parameter names in label order, the least value of its parameters, which
must also be nondecreasing (1 <= p <= q for type I), and one function
giving the invariants (dimension, genus, rank).  Factor validation and
invariants, labels, the arity check of `parse_product` and the default sweep
of `classical_table` all read that table.

Products combine additively through the squared length of the canonical
Kaehler potential gradient, L^2 = sum rank * genus.  With the Ricci
normalization Ric = -ricci * g the holomorphic sectional curvature is
bounded above by -K with K = 2 * ricci / L^2, and the bottom of the Laplace
spectrum on functions is at least n^2 * ricci / (2 L^2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

from .bounds import c_k, middle_k_bound


class _Family(NamedTuple):
    """One row of the family table: the parameter names in label order, their
    least value, and (dimension, genus, rank) as a function of them."""

    params: tuple[str, ...]
    least: int
    invariants: Callable[..., tuple[int, int, int]]


_FAMILIES = {
    "I": _Family(("p", "q"), 1, lambda p, q: (p * q, p + q, p)),
    "II": _Family(("m",), 2, lambda m: (m * (m - 1) // 2, 2 * (m - 1), m // 2)),
    "III": _Family(("m",), 1, lambda m: (m * (m + 1) // 2, m + 1, m)),
    "IV": _Family(("m",), 3, lambda m: (m, m, 2)),
    "V": _Family((), 0, lambda: (16, 12, 2)),
    "VI": _Family((), 0, lambda: (27, 18, 3)),
}
_SWEEP_TOP = 6  # largest parameter of the default classical_table sweep


def _label(family: str, params) -> str:
    return f"{family}({','.join(map(str, params))})" if params else family


@dataclass(frozen=True)
class DomainFactor:
    """One irreducible classical domain; its invariants are worked out once,
    from the family table, when the factor is made."""

    family: str
    p: int | None = None
    q: int | None = None
    m: int | None = None
    dimension: int = field(init=False, repr=False, compare=False)
    genus: int = field(init=False, repr=False, compare=False)
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family = _FAMILIES.get(self.family)
        if family is None:
            raise ValueError(f"unknown family {self.family!r}")
        names, least, invariants = family
        values = [least, *[getattr(self, name) for name in names]]
        # the family's parameters and no others, of type int (not bool),
        # nondecreasing from least
        if ((self.p, self.q, self.m).count(None) + len(names) != 3
                or not all(type(v) is int for v in values)
                or sorted(values) != values):
            takes = " <= ".join(map(str, [least, *names]))
            takes = f"integer{'s' * (len(names) > 1)} {takes}" if names else "no parameters"
            got = ", ".join(f"{name}={getattr(self, name)!r}" for name in ("p", "q", "m")
                            if getattr(self, name) is not None)
            raise ValueError(f"family {self.family} takes {takes}, got {got or 'none'}")
        dimension, genus, rank = invariants(*values[1:])
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rank", rank)

    def label(self) -> str:
        return _label(self.family, [getattr(self, name) for name in _FAMILIES[self.family].params])


def type_I(p: int, q: int) -> DomainFactor:
    return DomainFactor("I", p=p, q=q)


def type_II(m: int) -> DomainFactor:
    return DomainFactor("II", m=m)


def type_III(m: int) -> DomainFactor:
    return DomainFactor("III", m=m)


def type_IV(m: int) -> DomainFactor:
    return DomainFactor("IV", m=m)


def type_V() -> DomainFactor:
    return DomainFactor("V")


def type_VI() -> DomainFactor:
    return DomainFactor("VI")


@dataclass(frozen=True)
class DomainSpec:
    """A finite product of irreducible factors."""

    factors: tuple[DomainFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)

    def label(self) -> str:
        return " x ".join(f.label() for f in self.factors)


def domain(*factors: DomainFactor) -> DomainSpec:
    return DomainSpec(tuple(factors))


_FACTOR_RE = re.compile(r"^([A-Z]+)(?:\(([0-9]+(?:,[0-9]+)*)\))?$")


def parse_product(text: str) -> DomainSpec:
    """Parse 'I(2,3)xIV(5)' style product labels ('x' or '*' separated)."""
    factors = []
    for chunk in re.split(r"[x*]", text.replace(" ", "")):
        match = _FACTOR_RE.match(chunk)
        if not match or match.group(1) not in _FAMILIES:
            raise ValueError(f"cannot parse domain factor {chunk!r}")
        family, values = match.groups()
        values = values.split(",") if values else ()
        names = _FAMILIES[family].params
        if len(values) != len(names):
            raise ValueError(f"family {family} is written {_label(family, names)}, not {chunk!r}")
        factors.append(DomainFactor(family, **{n: int(v) for n, v in zip(names, values)}))
    return DomainSpec(tuple(factors))


def factor_invariants(factor: DomainFactor) -> tuple[int, int, int]:
    """Classical invariants (dimension, genus, rank) of one factor."""
    return (factor.dimension, factor.genus, factor.rank)


def kh_length_sq(spec: DomainSpec) -> Fraction:
    """L^2 = sum over factors of rank * genus; additive over products."""
    return Fraction(sum(f.rank * f.genus for f in spec.factors))


def _check_ricci(ricci: Fraction) -> Fraction:
    ricci = Fraction(ricci)
    if ricci <= 0:
        raise ValueError("Ricci constant must be positive")
    return ricci


def hsc_upper_bound(spec: DomainSpec, ricci: Fraction = Fraction(1)) -> Fraction:
    """K with holomorphic sectional curvature <= -K under Ric = -ricci*g."""
    return 2 * _check_ricci(ricci) / kh_length_sq(spec)


def lambda0_bound(spec: DomainSpec, ricci: Fraction = Fraction(1)) -> Fraction:
    """Lower bound n^2 * ricci / (2 L^2) for the spectral bottom on functions."""
    n = spec.dimension
    return Fraction(n * n) * _check_ricci(ricci) / (2 * kh_length_sq(spec))


def eta_min_sq(spec: DomainSpec) -> Fraction:
    """Minimal squared gradient norm of the canonical potential, L^2 / 2.

    Independent of the Ricci normalization.
    """
    return kh_length_sq(spec) / 2


@dataclass(frozen=True)
class DegreeBound:
    k: int
    value: Fraction
    route: str


def degree_k_bounds(
    spec: DomainSpec, ricci: Fraction = Fraction(1)
) -> list[DegreeBound]:
    """Per-degree spectral bounds c * 2 ricci / L^2.

    Degree zero gets a second, sharper function-route row; the middle degree
    uses the adjacent-degree substitute and is labeled as such.  Each
    constant below the middle is built and scaled once, then mirrored to
    degree 2n - k.
    """
    ricci = _check_ricci(ricci)
    n = spec.dimension
    scale = 2 * ricci / kh_length_sq(spec)
    lower = [DegreeBound(k, c_k(n, k) * scale, "degree constant") for k in range(n)]
    return (
        [DegreeBound(0, lambda0_bound(spec, ricci), "function route (sharper)")]
        + lower
        + [DegreeBound(n, middle_k_bound(n) * scale, "middle degree substitute")]
        + [DegreeBound(2 * n - row.k, row.value, row.route) for row in reversed(lower)]
    )


@dataclass(frozen=True)
class BoundReport:
    """Everything the domain table emits for one product."""

    spec: DomainSpec
    ricci: Fraction
    dimension: int
    length_sq: Fraction
    hsc_bound: Fraction
    lambda0: Fraction
    eta_sq: Fraction

    @classmethod
    def build(cls, spec: DomainSpec, ricci: Fraction = Fraction(1)) -> "BoundReport":
        ricci = _check_ricci(ricci)
        return cls(
            spec=spec,
            ricci=ricci,
            dimension=spec.dimension,
            length_sq=kh_length_sq(spec),
            hsc_bound=hsc_upper_bound(spec, ricci),
            lambda0=lambda0_bound(spec, ricci),
            eta_sq=eta_min_sq(spec),
        )


def classical_table(ricci: Fraction = Fraction(1)) -> list[BoundReport]:
    """Reports for every classical factor whose parameters are at most 6,
    family by family in table order, parameters in lexicographic order."""
    return [
        BoundReport.build(domain(DomainFactor(family, **dict(zip(names, values)))), ricci)
        for family, (names, least, _) in _FAMILIES.items()
        for values in combinations_with_replacement(range(least, _SWEEP_TOP + 1), len(names))
    ]


__all__ = [
    "BoundReport",
    "DegreeBound",
    "DomainFactor",
    "DomainSpec",
    "classical_table",
    "degree_k_bounds",
    "domain",
    "eta_min_sq",
    "factor_invariants",
    "hsc_upper_bound",
    "lambda0_bound",
    "parse_product",
    "kh_length_sq",
    "type_I",
    "type_II",
    "type_III",
    "type_IV",
    "type_V",
    "type_VI",
]
