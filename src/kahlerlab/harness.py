"""Randomized exact verification suites for the pointwise operator identities.

Every suite draws forms with Gaussian-integer coefficients from seeded,
splittable streams, evaluates both sides of an identity (or inequality) in
exact arithmetic, and records any nonzero discrepancy as a counterexample.
There are no tolerances anywhere in this module.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional, Sequence

import numpy as np

from . import rational_linalg as rl
from .exterior import (
    Form,
    GaussRational,
    ZERO,
    bidegree_basis,
    conjugate,
    inner,
    monomial_basis,
    norm_sq,
)
from .kaehler import (
    dual_lefschetz,
    hodge_star,
    hr_pairing,
    is_primitive,
    lefschetz_L,
    lefschetz_power,
    operator_matrix,
    primitive_basis,
    primitive_bidegree_basis,
    primitive_decompose,
    primitive_dimension,
    primitive_projection,
    recompose,
    star_inverse,
    weil_operator,
)

SUITES = (
    "prop31",
    "lemma32",
    "prop33",
    "federer",
    "lefschetz",
    "star",
    "hodge-riemann",
    "sl2",
)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for random forms.

    Coefficients are Gaussian integers with |re|, |im| <= coeff_bound.  The
    stream feeding a given (suite, n, parameters, trial) tuple is a pure
    function of that tuple and the seed, so trials are order-independent
    and reports are reproducible.
    """

    seed: int = 42
    coeff_bound: int = 3
    p: Optional[int] = None
    q: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be a positive integer")

    def generator(self, suite: str, n: int, trial: int, *extra: int) -> np.random.Generator:
        key = zlib.crc32(suite.encode("utf-8"))
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(key, n, *extra, trial)
        )
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class FailureRecord:
    """One exact counterexample: the identity, the trial, and both sides."""

    identity: str
    trial: int
    inputs: str
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "trial": self.trial,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: int
    failures: tuple[FailureRecord, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [f.to_dict() for f in self.failures],
            "pass": self.passed,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def random_form(n: int, p: int, q: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Random (p,q)-form with independent Gaussian-integer coefficients."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    rng = rspec.generator("random_form", n, trial, p, q)
    return _draw_bidegree(rng, n, p, q, rspec.coeff_bound)


def simple_random_form(n: int, k: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Wedge of k random 1-forms; simple by construction."""
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    rng = rspec.generator("simple_random_form", n, trial, k)
    return _draw_simple(rng, n, k, rspec.coeff_bound)


def _drawn(rng, n: int, basis, bound: int) -> Form:
    """Gaussian-integer coefficients for every monomial of basis, in order.

    One batched draw of (re, im) pairs; PCG64 hands out the same stream as a
    draw of size 2 per monomial.
    """
    values = iter(rng.integers(-bound, bound + 1, size=2 * len(basis)).tolist())
    terms = {}
    for mono, re, im in zip(basis, values, values):
        if re or im:
            terms[mono] = GaussRational._raw(re, im, 1)
    return Form._trusted(n, terms)


def _draw_bidegree(rng, n: int, p: int, q: int, bound: int) -> Form:
    return _drawn(rng, n, bidegree_basis(n, p, q), bound)


def _draw_degree(rng, n: int, k: int, bound: int) -> Form:
    return _drawn(rng, n, monomial_basis(n, k), bound)


def _draw_simple(rng, n: int, k: int, bound: int) -> Form:
    if k == 0:
        return _drawn(rng, n, monomial_basis(n, 0), bound)
    out = Form.one(n)
    for _ in range(k):
        out = out.wedge(_draw_degree(rng, n, 1, bound))
    return out


def _draw_primitive(rng, n: int, k: int, bound: int) -> Form:
    return primitive_projection(_draw_degree(rng, n, k, bound))


class _Inputs:
    """Named input forms of a check, rendered only when the check fails."""

    __slots__ = ("forms",)

    def __init__(self, forms: dict[str, Form]):
        self.forms = forms

    def __str__(self) -> str:
        return "; ".join(f"{name} = {form}" for name, form in self.forms.items())


def _inputs(**forms: Form) -> _Inputs:
    return _Inputs(forms)


class _Recorder:
    """Collects failures for one suite invocation."""

    def __init__(self):
        self.failures: list[FailureRecord] = []

    def equal(self, identity: str, trial: int, inputs, lhs, rhs) -> None:
        if lhs != rhs:
            self.failures.append(
                FailureRecord(identity, trial, str(inputs), str(lhs), str(rhs))
            )

    def less_equal(self, identity: str, trial: int, inputs, lhs, rhs) -> None:
        if not lhs <= rhs:
            self.failures.append(
                FailureRecord(identity, trial, str(inputs), str(lhs), str(rhs))
            )

    def true(self, identity: str, trial: int, inputs, condition: bool) -> None:
        if not condition:
            self.failures.append(
                FailureRecord(identity, trial, str(inputs), "false", "true")
            )


def _report(suite: str, n: int, trials: int, rspec: RandomSpec, rec: _Recorder, t0: float) -> SuiteReport:
    return SuiteReport(
        suite=suite,
        n=n,
        trials=trials,
        seed=rspec.seed,
        failures=tuple(rec.failures),
        elapsed=time.perf_counter() - t0,
    )


def check_prop_31(n: int, k: int, j: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Inner products of equal Lefschetz powers of primitive forms.

    For primitive degree-k forms, <L^j a, L^j b> = j!(n-k)!/(n-k-j)! <a, b>
    for 0 <= j <= n-k, and L^j kills primitives for j beyond n-k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} out of range for n={n}")
    if not 0 <= j <= n - k:
        raise ValueError(f"power {j} outside 0..{n - k}")
    t0 = time.perf_counter()
    rec = _Recorder()
    factor = Fraction(factorial(j) * factorial(n - k), factorial(n - k - j))
    tag = f"[k={k},j={j}]"
    for trial in range(trials):
        rng = rspec.generator("prop31", n, trial, k, j)
        a = _draw_primitive(rng, n, k, rspec.coeff_bound)
        b = _draw_primitive(rng, n, k, rspec.coeff_bound)
        ins = _inputs(a=a, b=b)
        lhs = inner(lefschetz_power(a, j), lefschetz_power(b, j))
        rec.equal("power-scaling" + tag, trial, ins, lhs, inner(a, b) * factor)
        if j == n - k:
            rec.equal(
                "power-vanishing" + tag,
                trial,
                ins,
                lefschetz_power(a, j + 1),
                Form.zero(n),
            )
    return _report("prop31", n, trials, rspec, rec, t0)


_DECOMP_COEFFS = (
    # (identity tag, power as a function of n-k, coefficient in r)
    ("norm-expansion", lambda m: 0, lambda m, r: Fraction(
        factorial(r) * factorial(m + 2 * r), factorial(m + r))),
    ("top-power-expansion", lambda m: m, lambda m, r: Fraction(
        factorial(m + r) * factorial(m + 2 * r), factorial(r))),
    ("subtop-power-expansion", lambda m: m - 1, lambda m, r: Fraction(
        factorial(m - 1 + r) * factorial(m + 2 * r), factorial(r + 1))),
)


def check_lemma_32(n: int, k: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Norm expansions of a form through its primitive decomposition.

    With a = sum_r L^r a_r and b = sum_r L^r b_r of degree k < n, the inner
    products <L^j a, L^j b> for j in {0, n-k, n-k-1} expand into weighted
    sums of <a_r, b_r> with explicit factorial weights.
    """
    if not 0 <= k < n:
        raise ValueError(f"needs degree k < n, got k={k}, n={n}")
    t0 = time.perf_counter()
    rec = _Recorder()
    m = n - k
    for trial in range(trials):
        rng = rspec.generator("lemma32", n, trial, k)
        a = _draw_degree(rng, n, k, rspec.coeff_bound)
        b = _draw_degree(rng, n, k, rspec.coeff_bound)
        ins = _inputs(a=a, b=b)
        da = primitive_decompose(a)
        db = primitive_decompose(b)
        rs = sorted(set(da.parts) | set(db.parts))
        for tag, power_of, coeff in _DECOMP_COEFFS:
            jpow = power_of(m)
            lhs = inner(lefschetz_power(a, jpow), lefschetz_power(b, jpow))
            rhs = ZERO
            for r in rs:
                rhs = rhs + inner(da.part(r), db.part(r)) * coeff(m, r)
            rec.equal(f"{tag}[k={k}]", trial, ins, lhs, rhs)
    return _report("lemma32", n, trials, rspec, rec, t0)


def check_prop_33(n: int, p: int, q: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Two-sided bounds for Lefschetz powers of (p,q)-forms below middle degree.

    On the diagonal a = b the squared norms of L^(n-k) a and L^(n-k-1) a are
    pinched between explicit factorial multiples of |a|^2; the sesquilinear
    version is checked against the decomposition expansion (polarization).
    """
    if not (0 <= p <= q <= n):
        raise ValueError(f"needs 0 <= p <= q <= n, got ({p},{q}), n={n}")
    k = p + q
    if k >= n:
        raise ValueError(f"needs p+q < n, got p+q={k}, n={n}")
    t0 = time.perf_counter()
    rec = _Recorder()
    m = n - k
    lower_top = Fraction(factorial(m)) ** 2
    upper_top = Fraction(factorial(n - q), factorial(p)) ** 2
    lower_sub = Fraction(factorial(m - 1) * factorial(m))
    upper_sub = Fraction(
        factorial(n - q - 1) * factorial(n - q), factorial(p) * factorial(p + 1)
    )
    tag = f"[p={p},q={q}]"
    for trial in range(trials):
        rng = rspec.generator("prop33", n, trial, p, q)
        a = _draw_bidegree(rng, n, p, q, rspec.coeff_bound)
        ins = _inputs(a=a)
        nsq = norm_sq(a)
        top = norm_sq(lefschetz_power(a, m))
        rec.less_equal("top-power-lower" + tag, trial, ins, lower_top * nsq, top)
        rec.less_equal("top-power-upper" + tag, trial, ins, top, upper_top * nsq)
        sub = norm_sq(lefschetz_power(a, m - 1))
        rec.less_equal("subtop-power-lower" + tag, trial, ins, lower_sub * nsq, sub)
        rec.less_equal("subtop-power-upper" + tag, trial, ins, sub, upper_sub * nsq)
        b = _draw_bidegree(rng, n, p, q, rspec.coeff_bound)
        da = primitive_decompose(a)
        db = primitive_decompose(b)
        rhs = ZERO
        for r in sorted(set(da.parts) | set(db.parts)):
            rhs = rhs + inner(da.part(r), db.part(r)) * Fraction(
                factorial(m + r) * factorial(m + 2 * r), factorial(r)
            )
        rec.equal(
            "polarization-expansion" + tag,
            trial,
            _inputs(a=a, b=b),
            inner(lefschetz_power(a, m), lefschetz_power(b, m)),
            rhs,
        )
    return _report("prop33", n, trials, rspec, rec, t0)


def check_federer(
    n: int,
    degrees: Optional[Sequence[tuple[int, int]]],
    trials: int,
    rspec: RandomSpec,
) -> SuiteReport:
    """Wedge-product norm inequalities.

    |a ^ b|^2 <= C(da+db, da) |a|^2 |b|^2 in general, and without the
    binomial factor when one factor is simple.
    """
    if degrees is None:
        degrees = [
            (da, db)
            for da in range(2 * n + 1)
            for db in range(da, 2 * n + 1)
            if da + db <= 2 * n
        ]
    t0 = time.perf_counter()
    rec = _Recorder()
    for da, db in degrees:
        if da < 0 or db < 0 or da + db > 2 * n:
            raise ValueError(f"degree pair ({da},{db}) out of range for n={n}")
        binom = comb(da + db, da)
        tag = f"[{da},{db}]"
        for trial in range(trials):
            rng = rspec.generator("federer", n, trial, da, db)
            a = _draw_degree(rng, n, da, rspec.coeff_bound)
            b = _draw_degree(rng, n, db, rspec.coeff_bound)
            rec.less_equal(
                "binomial-bound" + tag,
                trial,
                _inputs(a=a, b=b),
                norm_sq(a.wedge(b)),
                binom * norm_sq(a) * norm_sq(b),
            )
            s = _draw_simple(rng, n, db, rspec.coeff_bound)
            rec.less_equal(
                "simple-bound" + tag,
                trial,
                _inputs(a=a, s=s),
                norm_sq(a.wedge(s)),
                norm_sq(a) * norm_sq(s),
            )
    return _report("federer", n, trials, rspec, rec, t0)


def check_lefschetz_structure(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Dimensions, ranks, and round-trips of the Lefschetz decomposition.

    Exhaustive once per dimension: primitive dimension counts, injectivity
    of L^(n-k) on primitives, bijectivity on the full degree, the kernel
    characterization of primitives, and agreement of the two constructions
    of the dual Lefschetz operator.  Per trial: decomposition round-trips
    and adjointness on random forms.
    """
    t0 = time.perf_counter()
    rec = _Recorder()
    bound = rspec.coeff_bound
    for k in range(2 * n + 1):
        expected = primitive_dimension(n, k)
        basis = primitive_basis(n, k)
        rec.equal(
            f"primitive-dimension[k={k}]", 0, f"n={n}", len(basis), expected
        )
        if k <= n:
            # C(2n,k) - C(2n,k-2) against the sum of the bidegree counts
            by_bidegree = sum(
                comb(n, p) * comb(n, k - p)
                - (comb(n, p - 1) * comb(n, k - p - 1) if 0 < p < k else 0)
                for p in range(k + 1)
            )
            rec.equal(
                f"primitive-dimension-formula[k={k}]", 0, f"n={n}",
                expected, by_bidegree,
            )
    for p in range(n + 1):
        for q in range(n + 1):
            got = len(primitive_bidegree_basis(n, p, q))
            if p + q <= n:
                want = comb(n, p) * comb(n, q)
                if p >= 1 and q >= 1:
                    want -= comb(n, p - 1) * comb(n, q - 1)
            else:
                want = 0
            rec.equal(
                f"primitive-bidegree-dimension[p={p},q={q}]", 0, f"n={n}", got, want
            )
    for k in range(n + 1):
        full = operator_matrix(
            lambda f, jj=n - k: lefschetz_power(f, jj), n, k, 2 * n - k
        )
        rec.equal(
            f"hard-lefschetz-bijective[k={k}]", 0, f"n={n}",
            full.rank(), comb(2 * n, k),
        )
        basis = primitive_basis(n, k)
        index = {mono: i for i, mono in enumerate(monomial_basis(n, 2 * n - k))}
        # the rank of the images L^(n-k) b, as sparse rows
        prim_rank = rl.rank([
            {index[mono]: c for mono, c in lefschetz_power(b, n - k).terms.items()}
            for b in basis
        ])
        rec.equal(
            f"hard-lefschetz-primitive-injective[k={k}]", 0, f"n={n}",
            prim_rank, len(basis),
        )
        killer = operator_matrix(
            lambda f, jj=n - k + 1: lefschetz_power(f, jj), n, k, 2 * n - k + 2
        )
        kernel_dim = len(monomial_basis(n, k)) - killer.rank()
        rec.equal(
            f"primitive-kernel-dimension[k={k}]", 0, f"n={n}",
            kernel_dim, len(basis),
        )
        for i, b in enumerate(basis):
            rec.equal(
                f"primitive-kernel-member[k={k}]", i, f"n={n}",
                lefschetz_power(b, n - k + 1), Form.zero(n),
            )
    for k in range(2, 2 * n + 1):
        direct = operator_matrix(dual_lefschetz, n, k, k - 2, name="adjoint route")
        via_star = operator_matrix(
            lambda f: star_inverse(lefschetz_L(hodge_star(f))), n, k, k - 2,
            name="star route",
        )
        rec.equal(
            f"dual-lefschetz-star-route[k={k}]", 0, f"n={n}",
            direct.entries, via_star.entries,
        )
    for trial in range(trials):
        rng = rspec.generator("lefschetz", n, trial)
        for k in range(2 * n + 1):
            a = _draw_degree(rng, n, k, bound)
            ins = _inputs(a=a)
            try:
                dec = primitive_decompose(a)
                back = recompose(dec)
            except ValueError as exc:
                rec.true(f"decomposition-round-trip[k={k}]", trial,
                         f"{ins}; error: {exc}", False)
                continue
            rec.equal(f"decomposition-round-trip[k={k}]", trial, ins, back, a)
            rec.true(
                f"decomposition-parts-primitive[k={k}]", trial, ins,
                all(is_primitive(part) for part in dec.parts.values()),
            )
        for k in range(2 * n - 1):
            a = _draw_degree(rng, n, k, bound)
            b = _draw_degree(rng, n, k + 2, bound)
            rec.equal(
                f"adjointness[k={k}]", trial, _inputs(a=a, b=b),
                inner(lefschetz_L(a), b), inner(a, dual_lefschetz(b)),
            )
    return _report("lefschetz", n, trials, rspec, rec, t0)


def check_star_primitive(
    n: int,
    trials: int,
    rspec: RandomSpec,
    star_fn: Optional[Callable[[Form], Form]] = None,
) -> SuiteReport:
    """Star of Lefschetz powers of primitive forms, and the double star.

    For a primitive degree-k form a and 0 <= r <= n-k,
    star(L^r a) = i^(k(k+1)) * r!/(n-k-r)! * L^(n-k-r) I(a), with I the
    bidegree rotation; star_fn is injectable so the suite can be pointed
    at a deliberately perturbed operator to prove it would notice.
    """
    star = star_fn if star_fn is not None else hodge_star
    t0 = time.perf_counter()
    rec = _Recorder()
    for k in range(n + 1):
        for bi, b in enumerate(primitive_basis(n, k)):
            rotated = weil_operator(b)
            for r in range(n - k + 1):
                scale = GaussRational.i_power(k * (k + 1)) * Fraction(
                    factorial(r), factorial(n - k - r)
                )
                rec.equal(
                    f"star-of-power[k={k},r={r}]", bi, _inputs(a=b),
                    star(lefschetz_power(b, r)),
                    lefschetz_power(rotated, n - k - r) * scale,
                )
    for trial in range(trials):
        rng = rspec.generator("star", n, trial)
        for k in range(2 * n + 1):
            a = _draw_degree(rng, n, k, rspec.coeff_bound)
            sign = 1 if k % 2 == 0 else -1
            rec.equal(
                f"double-star[k={k}]", trial, _inputs(a=a),
                star(star(a)), a * sign,
            )
    return _report("star", n, trials, rspec, rec, t0)


def check_hodge_riemann(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Bilinear relation on primitive (p,q)-forms.

    i^(p-q) Q(a, conj(b)) = (n-p-q)! <a, b> with Q the pairing against
    omega^(n-k), checked for independently drawn primitive a, b.
    """
    t0 = time.perf_counter()
    rec = _Recorder()
    for p in range(n + 1):
        for q in range(n - p + 1):
            k = p + q
            factor = Fraction(factorial(n - k))
            rotation = GaussRational.i_power(p - q)
            tag = f"[p={p},q={q}]"
            for trial in range(trials):
                rng = rspec.generator("hodge-riemann", n, trial, p, q)
                a = primitive_projection(
                    _draw_bidegree(rng, n, p, q, rspec.coeff_bound)
                )
                b = primitive_projection(
                    _draw_bidegree(rng, n, p, q, rspec.coeff_bound)
                )
                rec.equal(
                    "bilinear-relation" + tag, trial, _inputs(a=a, b=b),
                    rotation * hr_pairing(a, conjugate(b)),
                    inner(a, b) * factor,
                )
    return _report("hodge-riemann", n, trials, rspec, rec, t0)


def check_sl2(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Commutator [L, dual L] = (k - n) id on homogeneous degree k."""
    t0 = time.perf_counter()
    rec = _Recorder()
    for trial in range(trials):
        rng = rspec.generator("sl2", n, trial)
        for k in range(2 * n + 1):
            a = _draw_degree(rng, n, k, rspec.coeff_bound)
            commutator = lefschetz_L(dual_lefschetz(a)) - dual_lefschetz(
                lefschetz_L(a)
            )
            rec.equal(
                f"commutator[k={k}]", trial, _inputs(a=a),
                commutator, a * (k - n),
            )
    return _report("sl2", n, trials, rspec, rec, t0)


def _merge(suite: str, n: int, trials: int, rspec: RandomSpec,
           reports: Sequence[SuiteReport]) -> SuiteReport:
    failures: list[FailureRecord] = []
    elapsed = 0.0
    for rep in reports:
        failures.extend(rep.failures)
        elapsed += rep.elapsed
    return SuiteReport(
        suite=suite, n=n, trials=trials, seed=rspec.seed,
        failures=tuple(failures), elapsed=elapsed,
    )


def run_suite(suite: str, n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Run one named suite over its full parameter sweep at dimension n.

    The returned trial count is per parameter combination.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if trials < 1:
        raise ValueError("trial count must be positive")
    if suite == "prop31":
        parts = [
            check_prop_31(n, k, j, trials, rspec)
            for k in range(n + 1)
            for j in range(n - k + 1)
        ]
    elif suite == "lemma32":
        parts = [check_lemma_32(n, k, trials, rspec) for k in range(n)]
    elif suite == "prop33":
        parts = [
            check_prop_33(n, p, q, trials, rspec)
            for p in range(n + 1)
            for q in range(p, n - p)
        ]
    elif suite == "federer":
        parts = [check_federer(n, None, trials, rspec)]
    elif suite == "lefschetz":
        parts = [check_lefschetz_structure(n, trials, rspec)]
    elif suite == "star":
        parts = [check_star_primitive(n, trials, rspec)]
    elif suite == "hodge-riemann":
        parts = [check_hodge_riemann(n, trials, rspec)]
    elif suite == "sl2":
        parts = [check_sl2(n, trials, rspec)]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _merge(suite, n, trials, rspec, parts)


def run_all(n: int, trials: int, rspec: RandomSpec) -> list[SuiteReport]:
    """All suites in canonical order."""
    return [run_suite(s, n, trials, rspec) for s in SUITES]
