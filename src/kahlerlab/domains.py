"""Classical bounded symmetric domains and their spectral bound tables.

Each irreducible factor carries the invariants (dimension, genus, rank)
from the classical list; products combine additively through the squared
length of the canonical Kaehler potential gradient, L^2 = sum rank * genus.
With the Ricci normalization Ric = -ricci * g the holomorphic sectional
curvature is bounded above by -K with K = 2 * ricci / L^2, and the bottom
of the Laplace spectrum on functions is at least n^2 * ricci / (2 L^2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .bounds import c_k, middle_k_bound

_FAMILIES = ("I", "II", "III", "IV", "V", "VI")


@dataclass(frozen=True)
class DomainFactor:
    """One irreducible classical domain."""

    family: str
    p: int | None = None
    q: int | None = None
    m: int | None = None

    def __post_init__(self):
        f = self.family
        if f not in _FAMILIES:
            raise ValueError(f"unknown family {f!r}")
        if f == "I":
            if self.p is None or self.q is None or not (1 <= self.p <= self.q):
                raise ValueError("family I needs integers 1 <= p <= q")
            if self.m is not None:
                raise ValueError("family I takes (p, q), not m")
        elif f in ("II", "III", "IV"):
            floor = {"II": 2, "III": 1, "IV": 3}[f]
            if self.m is None or self.m < floor:
                raise ValueError(f"family {f} needs integer m >= {floor}")
            if self.p is not None or self.q is not None:
                raise ValueError(f"family {f} takes m, not (p, q)")
        else:
            if self.p is not None or self.q is not None or self.m is not None:
                raise ValueError(f"family {f} takes no parameters")

    @property
    def dimension(self) -> int:
        f = self.family
        if f == "I":
            return self.p * self.q
        if f == "II":
            return self.m * (self.m - 1) // 2
        if f == "III":
            return self.m * (self.m + 1) // 2
        if f == "IV":
            return self.m
        return 16 if f == "V" else 27

    @property
    def genus(self) -> int:
        f = self.family
        if f == "I":
            return self.p + self.q
        if f == "II":
            return 2 * (self.m - 1)
        if f == "III":
            return self.m + 1
        if f == "IV":
            return self.m
        return 12 if f == "V" else 18

    @property
    def rank(self) -> int:
        f = self.family
        if f == "I":
            return self.p
        if f == "II":
            return self.m // 2
        if f == "III":
            return self.m
        if f == "IV":
            return 2
        return 2 if f == "V" else 3

    def label(self) -> str:
        if self.family == "I":
            return f"I({self.p},{self.q})"
        if self.family in ("II", "III", "IV"):
            return f"{self.family}({self.m})"
        return self.family


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


_FACTOR_RE = re.compile(r"^(VI|V|IV|III|II|I)(?:\(([0-9]+)(?:,([0-9]+))?\))?$")


def parse_product(text: str) -> DomainSpec:
    """Parse 'I(2,3)xIV(5)' style product labels ('x' or '*' separated)."""
    factors = []
    for chunk in re.split(r"[x*]", text.replace(" ", "")):
        m = _FACTOR_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse domain factor {chunk!r}")
        fam, a, b = m.group(1), m.group(2), m.group(3)
        if fam == "I":
            if a is None or b is None:
                raise ValueError("family I needs two parameters, e.g. I(2,3)")
            factors.append(type_I(int(a), int(b)))
        elif fam in ("II", "III", "IV"):
            if a is None or b is not None:
                raise ValueError(f"family {fam} needs one parameter")
            factors.append(DomainFactor(fam, m=int(a)))
        else:
            if a is not None:
                raise ValueError(f"family {fam} takes no parameters")
            factors.append(DomainFactor(fam))
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


def classical_table(
    ranges: dict[str, list] | None = None,
    ricci: Fraction = Fraction(1),
    max_param: int = 6,
) -> list[BoundReport]:
    """Reports for a sweep of the classical families.

    `ranges` maps family name to parameter lists ((p,q) pairs for I, m for
    II/III/IV, anything truthy for V/VI); when omitted a default sweep up to
    max_param is used.
    """
    if ranges is None:
        ranges = {
            "I": [(p, q) for p in range(1, max_param + 1) for q in range(p, max_param + 1)],
            "II": list(range(2, max_param + 1)),
            "III": list(range(1, max_param + 1)),
            "IV": list(range(3, max_param + 1)),
            "V": [()],
            "VI": [()],
        }
    reports = []
    for fam in _FAMILIES:
        for params in ranges.get(fam, []):
            if fam == "I":
                factor = type_I(*params)
            elif fam in ("II", "III", "IV"):
                factor = DomainFactor(fam, m=params)
            else:
                factor = DomainFactor(fam)
            reports.append(BoundReport.build(domain(factor), ricci))
    return reports


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
