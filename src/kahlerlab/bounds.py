"""Exact spectral lower-bound constants for the pointwise Kaehler estimates.

Every value is an exact Fraction.  The middle degree k = n carries no
uniform constant of this family; asking for one raises a ValueError.  The
middle-degree substitutes compare against the adjacent bidegrees instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


def _check_dim(n: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")


def _check_bidegree(n: int, p: int, q: int) -> None:
    _check_dim(n)
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")


def c_pq(n: int, p: int, q: int) -> Fraction:
    """Constant for (p,q)-forms, k = p + q != n.

    ((n-k)!^4 / 4) * ((p+1)!^4 / (n-q)!^4) below the middle degree; above
    it the value at the reflected bidegree (n-p, n-q).
    """
    _check_bidegree(n, p, q)
    k = p + q
    if k == n:
        raise ValueError("middle degree has no uniform bound")
    if k > n:
        return c_pq(n, n - p, n - q)
    return Fraction(factorial(n - k) ** 4, 4) * Fraction(
        factorial(p + 1) ** 4, factorial(n - q) ** 4
    )


def c_k(n: int, k: int) -> Fraction:
    """Constant for degree-k forms, k != n, via the near-middle bidegree."""
    _check_dim(n)
    if not (0 <= k <= 2 * n):
        raise ValueError(f"degree {k} out of range for n={n}")
    if k == n:
        raise ValueError("middle degree has no uniform bound")
    k = min(k, 2 * n - k)  # c_k(n, k) = c_k(n, 2n - k)
    return Fraction(
        factorial(n - k) ** 4 * factorial((k + 1) // 2 + 1) ** 4,
        4 * factorial(n - k // 2) ** 4,
    )


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of comparing the degree constant with its bidegree family."""

    n: int
    k: int
    degree_value: Fraction
    minimum: Fraction
    argmin: tuple[int, int]
    passed: bool


def verify_ck_is_min(n: int, k: int) -> MinimalityReport:
    """Check c_k(n,k) == min over {c_pq: p+q=k}.

    Exhaustive over every bidegree with both indices in range.  Reports the
    argmin; passed is False whenever the minimum undercuts the degree value
    (which happens once bidegrees far from balanced enter the family).
    """
    _check_dim(n)
    if k == n:
        raise ValueError("middle degree has no uniform bound")
    values: dict[tuple[int, int], Fraction] = {}
    for p in range(max(0, k - n), min(k, n) + 1):
        q = k - p
        values[(p, q)] = c_pq(n, p, q)
    if not values:
        raise ValueError(f"degree {k} out of range for n={n}")
    minimum = min(values.values())
    argmin = min(pq for pq, v in values.items() if v == minimum)
    ck = c_k(n, k)
    return MinimalityReport(n, k, ck, minimum, argmin, ck == minimum)


def middle_pq_bound(n: int, p: int, q: int) -> Fraction:
    """Middle-degree (p+q = n) bound from the adjacent bidegrees (p, q-1)
    and (p, q+1); with n >= 1, at least one of them is in range."""
    _check_bidegree(n, p, q)
    if p + q != n:
        raise ValueError(f"expected p+q = n = {n}, got p+q = {p + q}")
    return min(c_pq(n, p, q + d) for d in (-1, 1) if 0 <= q + d <= n)


def middle_k_bound(n: int) -> Fraction:
    """Middle-degree bound min(c_k at n-1, n+1), which is c_k(n, n-1): the
    two adjacent degrees reflect into each other."""
    _check_dim(n)
    return c_k(n, n - 1)


def _check_eta_sq(eta_sq: Fraction) -> Fraction:
    eta_sq = Fraction(eta_sq)
    if eta_sq <= 0:
        raise ValueError("squared potential norm must be positive")
    return eta_sq


def function_bound(n: int, eta_sq: Fraction) -> Fraction:
    """Sharper function-level bound n^2 / (4 |eta|^2)."""
    _check_dim(n)
    return Fraction(n * n, 4) / _check_eta_sq(eta_sq)


def primitive_remark_bound(n: int, k: int, eta_sq: Fraction) -> Fraction:
    """Bound (n-k)^2 / (4 |eta|^2) for primitive degree-k forms, k < n."""
    _check_dim(n)
    if not (0 <= k < n):
        raise ValueError(f"expected 0 <= k < n, got k={k}")
    return Fraction((n - k) ** 2, 4) / _check_eta_sq(eta_sq)


def spectral_bound(constant: Fraction, eta_sq: Fraction) -> Fraction:
    """Turn a pointwise constant into a spectral bound constant / |eta|^2."""
    constant = Fraction(constant)
    if constant < 0:
        raise ValueError("constant must be nonnegative")
    return constant / _check_eta_sq(eta_sq)


@dataclass(frozen=True)
class BoundConstant:
    """A labeled table entry: exact value plus the parameters it came from."""

    label: str
    value: Fraction
    n: int
    k: int | None = None
    p: int | None = None
    q: int | None = None

    def with_eta(self, eta_sq: Fraction) -> Fraction:
        return spectral_bound(self.value, eta_sq)


def constant_table(n: int) -> list[BoundConstant]:
    """Degree-constant rows for every k, middle degree substituted.

    Each constant below the middle is built once and mirrored to 2n - k.
    """
    _check_dim(n)
    lower = [BoundConstant(label="degree", value=c_k(n, k), n=n, k=k) for k in range(n)]
    middle = BoundConstant(
        label="middle degree, adjacent-degree substitute",
        value=middle_k_bound(n),
        n=n,
        k=n,
    )
    upper = [
        BoundConstant(label="degree", value=row.value, n=n, k=2 * n - row.k)
        for row in reversed(lower)
    ]
    return lower + [middle] + upper
