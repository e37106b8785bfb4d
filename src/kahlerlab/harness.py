"""Exact verification suites for the pointwise operator identities.

Every check evaluates both sides of an identity (or inequality) in exact
arithmetic and records any nonzero discrepancy as a counterexample; there
are no tolerances anywhere in this module.  The checks on the primitive
basis are table identities: both sides are composed once and cached per
operator, and each run compares them table against table, one comparison
per basis index.  The other checks draw forms with Gaussian-integer
coefficients from seeded, splittable streams, one per trial, and stack the
draws of all trials into one `Batch`, so every operator is applied once
per check to all trials.  The recorder sees one comparison per (identity,
trial); a form is rendered only when its check fails.
"""

from __future__ import annotations

import json
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from .exterior import (
    ZERO,
    Batch,
    Form,
    GaussRational,
    Monomial,
    Table,
    _basis_rank,
    _combined,
    _compiled,
    _composed,
    _equal_tables,
    _images,
    _pair_outputs,
    _table,
    bidegree_basis,
    conjugate,
    inner,
    monomial_basis,
    norm_sq,
)
from .kaehler import (
    _dual_lefschetz_table,
    _inputs,
    _left_inverse_table,
    _power_table,
    _primitive_table,
    _star_table,
    _weil_table,
    dual_lefschetz,
    hr_pairing,
    lefschetz_L,
    lefschetz_power,
    primitive_basis,
    primitive_decompose,
    primitive_dimension,
    primitive_projection,
)
from .rational_linalg import independent_columns, is_left_inverse

_ONE_MONOMIAL = Monomial((), ())


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
        return asdict(self)


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
        out = {"suite": self.suite, "n": self.n, "trials": self.trials, "seed": self.seed,
               "failures": [f.to_dict() for f in self.failures], "pass": self.passed}
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing))


def random_form(n: int, p: int, q: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Random (p,q)-form with independent Gaussian-integer coefficients."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    rng = rspec.generator("random_form", n, trial, p, q)
    return _draw_bidegree([rng], n, p, q, rspec.coeff_bound).form(0)


def simple_random_form(n: int, k: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Wedge of k random 1-forms; simple by construction."""
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    rng = rspec.generator("simple_random_form", n, trial, k)
    return _draw_simple([rng], n, k, rspec.coeff_bound).form(0)


# Trials evaluated together: even at n = 5 a block's arrays stay a few MB.
_TRIAL_BLOCK = 1024


def _drawn(rngs, columns: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-integer coefficients for `columns` monomials, one row per stream.

    One draw of (re, im) pairs per stream; PCG64 hands out the same stream
    as a draw of size 2 per monomial.
    """
    values = np.array(
        [rng.integers(-bound, bound + 1, size=2 * columns) for rng in rngs],
        dtype=np.int64,
    ).reshape(len(rngs), 2 * columns)
    return values[:, 0::2], values[:, 1::2]


def _draw_degree(rngs, n: int, k: int, bound: int) -> Batch:
    re, im = _drawn(rngs, comb(2 * n, k), bound)
    return Batch(n, k, re, im, 1)


@lru_cache(maxsize=None)
def _bidegree_columns(n: int, p: int, q: int) -> np.ndarray:
    """Ranks of the (p, q) monomials among the monomials of degree p + q."""
    rank = _basis_rank(n, p + q)
    return np.array([rank[mono] for mono in bidegree_basis(n, p, q)], dtype=np.int64)


def _draw_bidegree(rngs, n: int, p: int, q: int, bound: int) -> Batch:
    cols = _bidegree_columns(n, p, q)
    re = np.zeros((len(rngs), comb(2 * n, p + q)), dtype=np.int64)
    im = np.zeros_like(re)
    re[:, cols], im[:, cols] = _drawn(rngs, len(cols), bound)
    return Batch(n, p + q, re, im, 1)


def _draw_simple(rngs, n: int, k: int, bound: int) -> Batch:
    if k == 0:
        return _draw_degree(rngs, n, 0, bound)
    out = _draw_degree(rngs, n, 1, bound)
    for _ in range(k - 1):
        out = out.wedge(_draw_degree(rngs, n, 1, bound))
    return out


def _draw_primitive(rngs, n: int, k: int, bound: int) -> Batch:
    return primitive_projection(_draw_degree(rngs, n, k, bound))


class _Value:
    """One trial's side of a batched check.

    key is what the recorder compares: whether an equality held, or, for
    an inequality, 0 against the numerator of rhs - lhs; show renders the
    value, which happens only when the check fails.
    """

    __slots__ = ("key", "show")

    def __init__(self, key, show: Callable[[], object]):
        self.key = key
        self.show = show

    def __eq__(self, other: object) -> bool:
        return self.key == other.key

    def __le__(self, other: "_Value") -> bool:
        return self.key <= other.key

    def __str__(self) -> str:
        return str(self.show())


def _shown(batch: Batch, t: int, scalar: bool) -> Callable[[], object]:
    if scalar:
        return lambda: batch.form(t).coefficient(_ONE_MONOMIAL)
    return lambda: batch.form(t)


Check = Callable[["_Recorder", int, int], None]  # (recorder, row, trial)


def _equal(identity: str, inputs, lhs: Batch, rhs: Batch, scalar: bool = False) -> Check:
    """lhs == rhs, trial by trial; scalar sides are degree-0 batches shown as
    numbers."""
    held = (lhs - rhs).is_zero().tolist()

    def check(rec, t, trial):
        rec.equal(identity, trial, _at(inputs, t),
                  _Value(held[t], _shown(lhs, t, scalar)),
                  _Value(True, _shown(rhs, t, scalar)))
    return check


def _less_equal(identity: str, inputs, lhs: Batch, rhs: Batch) -> Check:
    """lhs <= rhs, trial by trial, for real degree-0 batches: rhs - lhs has
    a nonnegative numerator over its positive denominator."""
    gap = (rhs - lhs).re[:, 0].tolist()

    def check(rec, t, trial):
        rec.less_equal(identity, trial, _at(inputs, t),
                       _Value(0, _shown(lhs, t, True)),
                       _Value(gap[t], _shown(rhs, t, True)))
    return check


def _true(identity: str, inputs, conditions: np.ndarray) -> Check:
    held = conditions.tolist()

    def check(rec, t, trial):
        rec.true(identity, trial, _at(inputs, t), held[t])
    return check


def _at(inputs, t: int):
    """The inputs of a check at trial t: a fixed string, or the named input
    batches, whose row t is rendered only when the check fails."""
    if isinstance(inputs, str):
        return inputs
    return _Value(None, lambda: "; ".join(
        f"{name} = {batch.form(t)}" for name, batch in inputs.items()))


def _record(rec: "_Recorder", rows: int, checks: Sequence[Check], first: int = 0) -> None:
    """Every check on row 0, then on row 1, and so on; row t is reported as
    trial first + t."""
    for t in range(rows):
        for check in checks:
            check(rec, t, first + t)


class _Recorder:
    """One suite invocation: refuses a dimension or trial count below 1,
    hands out the trial streams, collects the failures and builds the
    report."""

    def __init__(self, suite: str, n: int, trials: int, rspec: RandomSpec):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if trials < 1:
            raise ValueError("trial count must be positive")
        self.suite, self.n, self.trials, self.rspec = suite, n, trials, rspec
        self.failures: list[FailureRecord] = []
        self.t0 = time.perf_counter()

    def blocks(self, *extra: int):
        """(first trial, one stream per trial) for consecutive blocks of trials."""
        for start in range(0, self.trials, _TRIAL_BLOCK):
            yield start, [self.rspec.generator(self.suite, self.n, t, *extra)
                          for t in range(start, min(start + _TRIAL_BLOCK, self.trials))]

    def _held(self, held: bool, identity: str, trial: int, inputs, lhs, rhs) -> None:
        if not held:
            self.failures.append(FailureRecord(identity, trial, *map(str, (inputs, lhs, rhs))))

    def equal(self, identity: str, trial: int, inputs, lhs, rhs) -> None:
        self._held(lhs == rhs, identity, trial, inputs, lhs, rhs)

    def less_equal(self, identity: str, trial: int, inputs, lhs, rhs) -> None:
        self._held(lhs <= rhs, identity, trial, inputs, lhs, rhs)

    def true(self, identity: str, trial: int, inputs, condition: bool) -> None:
        self._held(condition, identity, trial, inputs, "false", "true")

    def report(self) -> SuiteReport:
        return SuiteReport(self.suite, self.n, self.trials, self.rspec.seed,
                           tuple(self.failures), time.perf_counter() - self.t0)


def check_prop_31(n: int, k: int, j: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Inner products of equal Lefschetz powers of primitive forms.

    For primitive degree-k forms, <L^j a, L^j b> = j!(n-k)!/(n-k-j)! <a, b>
    for 0 <= j <= n-k, and L^j kills primitives for j beyond n-k.
    """
    rec = _Recorder("prop31", n, trials, rspec)
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} out of range for n={n}")
    if not 0 <= j <= n - k:
        raise ValueError(f"power {j} outside 0..{n - k}")
    factor = Fraction(factorial(j) * factorial(n - k), factorial(n - k - j))
    tag = f"[k={k},j={j}]"
    for first, rngs in rec.blocks(k, j):
        a = _draw_primitive(rngs, n, k, rspec.coeff_bound)
        b = _draw_primitive(rngs, n, k, rspec.coeff_bound)
        ins = dict(a=a, b=b)
        lhs = inner(lefschetz_power(a, j), lefschetz_power(b, j))
        checks = [_equal("power-scaling" + tag, ins, lhs, inner(a, b) * factor, scalar=True)]
        if j == n - k:
            vanished = lefschetz_power(a, j + 1)
            checks.append(_equal("power-vanishing" + tag, ins, vanished,
                                 Batch.zero(n, vanished.k, len(rngs))))
        _record(rec, len(rngs), checks, first)
    return rec.report()


_DECOMP_COEFFS = (
    # (identity tag, power as a function of n-k, coefficient in r)
    ("norm-expansion", lambda m: 0, lambda m, r: Fraction(
        factorial(r) * factorial(m + 2 * r), factorial(m + r))),
    ("top-power-expansion", lambda m: m, lambda m, r: Fraction(
        factorial(m + r) * factorial(m + 2 * r), factorial(r))),
    ("subtop-power-expansion", lambda m: m - 1, lambda m, r: Fraction(
        factorial(m - 1 + r) * factorial(m + 2 * r), factorial(r + 1))),
)


def _expansion(parts_a, parts_b, coeff: Callable[[int], Fraction]) -> Batch:
    """sum_r coeff(r) <a_r, b_r> over two primitive decompositions."""
    return reduce(add, [inner(parts_a[r], parts_b[r]) * coeff(r) for r in parts_a])


def check_lemma_32(n: int, k: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Norm expansions of a form through its primitive decomposition.

    With a = sum_r L^r a_r and b = sum_r L^r b_r of degree k < n, the inner
    products <L^j a, L^j b> for j in {0, n-k, n-k-1} expand into weighted
    sums of <a_r, b_r> with explicit factorial weights.
    """
    rec = _Recorder("lemma32", n, trials, rspec)
    if not 0 <= k < n:
        raise ValueError(f"needs degree k < n, got k={k}, n={n}")
    m = n - k
    for first, rngs in rec.blocks(k):
        a = _draw_degree(rngs, n, k, rspec.coeff_bound)
        b = _draw_degree(rngs, n, k, rspec.coeff_bound)
        ins = dict(a=a, b=b)
        parts_a, parts_b = primitive_decompose(a).parts, primitive_decompose(b).parts
        checks = []
        for tag, power_of, coeff in _DECOMP_COEFFS:
            jpow = power_of(m)
            lhs = inner(lefschetz_power(a, jpow), lefschetz_power(b, jpow))
            rhs = _expansion(parts_a, parts_b, lambda r: coeff(m, r))
            checks.append(_equal(f"{tag}[k={k}]", ins, lhs, rhs, scalar=True))
        _record(rec, len(rngs), checks, first)
    return rec.report()


def check_prop_33(n: int, p: int, q: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Two-sided bounds for Lefschetz powers of (p,q)-forms below middle degree.

    On the diagonal a = b the squared norms of L^(n-k) a and L^(n-k-1) a are
    pinched between explicit factorial multiples of |a|^2; the sesquilinear
    version is checked against the decomposition expansion (polarization).
    """
    rec = _Recorder("prop33", n, trials, rspec)
    if not (0 <= p <= q <= n):
        raise ValueError(f"needs 0 <= p <= q <= n, got ({p},{q}), n={n}")
    k = p + q
    if k >= n:
        raise ValueError(f"needs p+q < n, got p+q={k}, n={n}")
    m = n - k
    lower_top = Fraction(factorial(m)) ** 2
    upper_top = Fraction(factorial(n - q), factorial(p)) ** 2
    lower_sub = Fraction(factorial(m - 1) * factorial(m))
    upper_sub = Fraction(
        factorial(n - q - 1) * factorial(n - q), factorial(p) * factorial(p + 1)
    )
    tag = f"[p={p},q={q}]"
    for first, rngs in rec.blocks(p, q):
        a = _draw_bidegree(rngs, n, p, q, rspec.coeff_bound)
        b = _draw_bidegree(rngs, n, p, q, rspec.coeff_bound)
        ins = dict(a=a)
        nsq = norm_sq(a)
        top = norm_sq(lefschetz_power(a, m))
        sub = norm_sq(lefschetz_power(a, m - 1))
        rhs = _expansion(
            primitive_decompose(a).parts, primitive_decompose(b).parts,
            lambda r: Fraction(factorial(m + r) * factorial(m + 2 * r), factorial(r)),
        )
        _record(rec, len(rngs), [
            _less_equal("top-power-lower" + tag, ins, nsq * lower_top, top),
            _less_equal("top-power-upper" + tag, ins, top, nsq * upper_top),
            _less_equal("subtop-power-lower" + tag, ins, nsq * lower_sub, sub),
            _less_equal("subtop-power-upper" + tag, ins, sub, nsq * upper_sub),
            _equal("polarization-expansion" + tag, dict(a=a, b=b),
                   inner(lefschetz_power(a, m), lefschetz_power(b, m)), rhs, scalar=True),
        ], first)
    return rec.report()


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
    rec = _Recorder("federer", n, trials, rspec)
    if degrees is None:
        degrees = [
            (da, db)
            for da in range(2 * n + 1)
            for db in range(da, 2 * n + 1)
            if da + db <= 2 * n
        ]
    if not degrees:
        raise ValueError("needs at least one degree pair")
    for da, db in degrees:
        if da < 0 or db < 0 or da + db > 2 * n:
            raise ValueError(f"degree pair ({da},{db}) out of range for n={n}")
    for da, db in degrees:
        tag = f"[{da},{db}]"
        for first, rngs in rec.blocks(da, db):
            a = _draw_degree(rngs, n, da, rspec.coeff_bound)
            b = _draw_degree(rngs, n, db, rspec.coeff_bound)
            s = _draw_simple(rngs, n, db, rspec.coeff_bound)
            nsq_a = norm_sq(a)
            _record(rec, len(rngs), [
                _less_equal("binomial-bound" + tag, dict(a=a, b=b),
                            norm_sq(a.wedge(b)), nsq_a * norm_sq(b) * comb(da + db, da)),
                _less_equal("simple-bound" + tag, dict(a=a, s=s),
                            norm_sq(a.wedge(s)), nsq_a * norm_sq(s)),
            ], first)
    return rec.report()


def _shown_entries(n: int, k: int, table: Table, other: Table) -> Callable[[], str]:
    """The entries of table, a map on degree k, where other's differ, as
    output <- input: entry; rendered when called."""
    def show() -> str:
        rows, diff = table.rows(), _combined([(1, table), (-1, other)])
        outs, ins = monomial_basis(n, table.k), monomial_basis(n, k)
        return "; ".join(
            f"{outs[o].label()} <- {ins[i].label()}: {rows.get(o, {}).get(i, ZERO)}"
            for o, i in zip(_pair_outputs(diff).tolist(), diff.src.tolist()))
    return show


def _on_basis(identity: str, n: int, k: int, lhs: Table, rhs: Table,
              inputs: Optional[str] = None) -> Check:
    """lhs == rhs on each primitive basis form of degree k, for two tables on
    the basis indices; a check's trial is the index, its inputs the basis
    form unless given.  The tables are compared once: when they differ, the
    failing indices are the inputs of their difference."""
    failing = set() if _equal_tables(lhs, rhs) else set(
        _combined([(1, lhs), (-1, rhs)]).src.tolist())
    count = _inputs(_primitive_table(n, k))

    def check(rec, t, trial):
        rec.equal(identity, trial,
                  inputs or _Value(None, lambda: f"a = {primitive_basis(n, k)[t]}"),
                  _Value(t not in failing, lambda: _images(n, lhs, count)[t]),
                  _Value(True, lambda: _images(n, rhs, count)[t]))
    return check


def _scalar(n: int, k: int, c: int | Fraction) -> Table:
    """c times the identity on degree k."""
    c, ids = Fraction(c), np.arange(comb(2 * n, k))
    return _table(k, ids.size, ids, ids, [c.numerator] * ids.size, [0] * ids.size,
                  c.denominator)


@lru_cache(maxsize=None)
def _chain(n: int, k: int, *ops: tuple) -> Table:
    """The table of the operators ops, each (table function, *args), applied
    in turn as function(n, degree, *args), from degree k on.  Cached per
    operator, so a patched or injected operator gets entries of its own and
    never replaces those of the genuine one."""
    function, *args = ops[-1]
    if len(ops) == 1:
        return function(n, k, *args)
    inner = _chain(n, k, *ops[:-1])
    return _composed(function(n, inner.k, *args), inner)


def _certified(rec: _Recorder, identity: str, at: str, conditions: dict[str, bool]) -> None:
    """One comparison: every named condition holds.  A failure shows the
    conditions that do not, against all of them."""
    failed = [name for name, held in conditions.items() if not held]
    rec.equal(identity, 0, at, _Value(not failed, lambda: "fails: " + "; ".join(failed)),
              _Value(True, lambda: "holds: " + "; ".join(conditions)))


def check_lefschetz_structure(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Dimensions, hard Lefschetz, and round-trips of the Lefschetz
    decomposition.

    Exhaustive once per dimension, on tables: primitive dimension counts,
    per bidegree the basis forms the dual Lefschetz operator kills, the
    kernel characterization of primitives, and agreement of the dual
    Lefschetz operator (the adjoint of L) with star^-1 o L o star.

    Hard Lefschetz is certified without elimination.  X_k, a left inverse
    of L^(n-k) on degree k <= n, is composed in `kaehler` from its own
    tables; a wrong X_k can only fail a check.  B is the primitive basis
    table, and its columns are independent when their largest nonzero
    rows are pairwise distinct (`rational_linalg`).
    - bijective: X_k o L^(n-k) = id, so L^(n-k) is injective between
      degrees of equal dimension C(2n, k).
    - primitive-injective: B has independent columns and
      X_k o L^(n-k) o B = B, so L^(n-k) o B has independent columns.
    - kernel dimension: L^(n-k+1) o B = 0 with B's C(2n,k) - C(2n,k-2)
      columns independent bounds the kernel of L^(n-k+1) below, and
      X_(k-2) o L^(n-k+1) o L = id, which puts an image of dimension
      C(2n, k-2) inside that of L^(n-k+1), bounds it above.
    Per trial: decomposition round-trips and adjointness on random forms.
    """
    rec = _Recorder("lefschetz", n, trials, rspec)
    bound, at = rspec.coeff_bound, f"n={n}"

    def by_bidegree(p: int, q: int) -> int:
        return comb(n, p) * comb(n, q) - (comb(n, p - 1) * comb(n, q - 1) if p and q else 0)
    killed = Counter()  # basis forms of each bidegree that the dual Lefschetz kills
    for k in range(2 * n + 1):
        expected, basis = primitive_dimension(n, k), _primitive_table(n, k)
        count = _inputs(basis)
        rec.equal(f"primitive-dimension[k={k}]", 0, at, count, expected)
        holomorphic = np.zeros(count, dtype=np.int64)
        holomorphic[basis.src] = np.array(
            [len(mono.s) for mono in monomial_basis(n, k)])[_pair_outputs(basis)]
        kept = np.ones(count, dtype=bool)
        kept[_chain(n, k, (_primitive_table,), (_dual_lefschetz_table,)).src] = False
        killed.update((p, k - p) for p in holomorphic[kept].tolist())
        if k <= n:  # C(2n,k) - C(2n,k-2) against the sum of the bidegree counts
            rec.equal(f"primitive-dimension-formula[k={k}]", 0, at, expected,
                      sum(by_bidegree(p, k - p) for p in range(k + 1)))
    for p in range(n + 1):
        for q in range(n + 1):
            rec.equal(f"primitive-bidegree-dimension[p={p},q={q}]", 0, at,
                      killed[p, q], by_bidegree(p, q) if p + q <= n else 0)
    for k in range(n + 1):
        basis, inverse = _primitive_table(n, k), _left_inverse_table(n, k)
        count = _inputs(basis)
        independent = independent_columns(
            basis, comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0))
        on_basis = _chain(n, k, (_primitive_table,), (_power_table, n - k))
        killer = _chain(n, k, (_primitive_table,), (_power_table, n - k + 1))
        _certified(rec, f"hard-lefschetz-bijective[k={k}]", at, {
            "X_k o L^(n-k) = id": is_left_inverse(inverse, _power_table(n, k, n - k))})
        _certified(rec, f"hard-lefschetz-primitive-injective[k={k}]", at, {
            "B has independent columns": independent,
            "X_k o L^(n-k) o B = B": _equal_tables(_composed(inverse, on_basis), basis)})
        kernel = {"L^(n-k+1) o B = 0": not killer.src.size,
                  "B has independent columns": independent}
        if k >= 2:
            kernel["X_(k-2) o L^(n-k+1) o L = id"] = is_left_inverse(
                _left_inverse_table(n, k - 2),
                _chain(n, k - 2, (_power_table, 1), (_power_table, n - k + 1)))
        _certified(rec, f"primitive-kernel-dimension[k={k}]", at, kernel)
        _record(rec, count, [_on_basis(f"primitive-kernel-member[k={k}]", n, k, killer,
                                       _table(killer.k, killer.size, [], [], [], [], 1), at)])
    for k in range(2, 2 * n + 1):
        # star^-1 o L o star, with star^-1 = (-1)^k star on degree 2n - k + 2
        route = _chain(n, k, (_star_table,), (_power_table, 1), (_star_table,),
                       (_scalar, (-1) ** k))
        adjoint = _dual_lefschetz_table(n, k)
        rec.equal(f"dual-lefschetz-star-route[k={k}]", 0, at,
                  _Value(_equal_tables(adjoint, route), _shown_entries(n, k, adjoint, route)),
                  _Value(True, _shown_entries(n, k, route, adjoint)))
    for first, rngs in rec.blocks():
        checks = []
        for k in range(2 * n + 1):
            a = _draw_degree(rngs, n, k, bound)
            parts = primitive_decompose(a).parts
            back = reduce(add, [lefschetz_power(part, r) for r, part in parts.items()])
            primitive = np.logical_and.reduce(
                [dual_lefschetz(part).is_zero() for part in parts.values()]
            )
            ins = dict(a=a)
            checks.append(_equal(f"decomposition-round-trip[k={k}]", ins, back, a))
            checks.append(_true(f"decomposition-parts-primitive[k={k}]", ins, primitive))
        for k in range(2 * n - 1):
            a = _draw_degree(rngs, n, k, bound)
            b = _draw_degree(rngs, n, k + 2, bound)
            checks.append(_equal(
                f"adjointness[k={k}]", dict(a=a, b=b),
                inner(lefschetz_L(a), b), inner(a, dual_lefschetz(b)), scalar=True,
            ))
        _record(rec, len(rngs), checks, first)
    return rec.report()


@lru_cache(maxsize=None)
def _compiled_star(star_fn: Callable[[Form], Form]) -> Callable[[int, int], Table]:
    """An injected linear Form -> Form star, as its table on each degree."""
    @lru_cache(maxsize=None)
    def star(n: int, k: int) -> Table:
        return _compiled(n, k, 2 * n - k, {
            mu: star_fn(Form.monomial(n, mu.s, mu.t)).terms for mu in monomial_basis(n, k)
        })
    return star


def check_star_primitive(n: int, trials: int, rspec: RandomSpec,
                         star_fn: Optional[Callable[[Form], Form]] = None) -> SuiteReport:
    """Star of Lefschetz powers of primitive forms, and the double star.

    For a primitive degree-k form a and 0 <= r <= n-k,
    star(L^r a) = i^(k(k+1)) * r!/(n-k-r)! * L^(n-k-r) I(a), with I the
    bidegree rotation, checked as a table identity on the primitive basis.
    star_fn is injectable so the suite can be pointed at a deliberately
    perturbed operator to prove it would notice; it is compiled into a
    table from its value on each monomial and checked on the same route.
    """
    rec = _Recorder("star", n, trials, rspec)
    star = _star_table if star_fn is None else _compiled_star(star_fn)
    for k in range(n + 1):
        checks = []
        for r in range(n - k + 1):
            scale = (-1) ** (k * (k + 1) // 2) * Fraction(factorial(r), factorial(n - k - r))
            checks.append(_on_basis(
                f"star-of-power[k={k},r={r}]", n, k,
                _chain(n, k, (_primitive_table,), (_power_table, r), (star,)),
                _chain(n, k, (_primitive_table,), (_weil_table,), (_power_table, n - k - r),
                       (_scalar, scale)),
            ))
        _record(rec, _inputs(_primitive_table(n, k)), checks)
    for first, rngs in rec.blocks():
        checks = []
        for k in range(2 * n + 1):
            a = _draw_degree(rngs, n, k, rspec.coeff_bound)
            sign = 1 if k % 2 == 0 else -1
            checks.append(_equal(f"double-star[k={k}]", dict(a=a),
                                 star(n, 2 * n - k)(star(n, k)(a)), a * sign))
        _record(rec, len(rngs), checks, first)
    return rec.report()


def check_hodge_riemann(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Bilinear relation on primitive (p,q)-forms.

    i^(p-q) Q(a, conj(b)) = (n-p-q)! <a, b> with Q the pairing against
    omega^(n-k), checked for independently drawn primitive a, b.
    """
    rec = _Recorder("hodge-riemann", n, trials, rspec)
    for p in range(n + 1):
        for q in range(n - p + 1):
            factor = Fraction(factorial(n - p - q))
            rotation = GaussRational.i_power(p - q)
            for first, rngs in rec.blocks(p, q):
                a = primitive_projection(_draw_bidegree(rngs, n, p, q, rspec.coeff_bound))
                b = primitive_projection(_draw_bidegree(rngs, n, p, q, rspec.coeff_bound))
                _record(rec, len(rngs), [_equal(
                    f"bilinear-relation[p={p},q={q}]", dict(a=a, b=b),
                    hr_pairing(a, conjugate(b)) * rotation,
                    inner(a, b) * factor, scalar=True,
                )], first)
    return rec.report()


def check_sl2(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Commutator [L, dual L] = (k - n) id on homogeneous degree k."""
    rec = _Recorder("sl2", n, trials, rspec)
    for first, rngs in rec.blocks():
        checks = []
        for k in range(2 * n + 1):
            a = _draw_degree(rngs, n, k, rspec.coeff_bound)
            commutator = lefschetz_L(dual_lefschetz(a)) - dual_lefschetz(lefschetz_L(a))
            checks.append(_equal(f"commutator[k={k}]", dict(a=a), commutator, a * (k - n)))
        _record(rec, len(rngs), checks, first)
    return rec.report()


# Each suite's checks over its parameter points at dimension n, in report
# order, called with (n, trials, rspec).  The bodies name each check, so a
# call runs whatever the module binds to that name at the time.
_SWEEPS: dict[str, Callable[..., list[SuiteReport]]] = {
    "prop31": lambda n, *run: [
        check_prop_31(n, k, j, *run) for k in range(n + 1) for j in range(n - k + 1)
    ],
    "lemma32": lambda n, *run: [check_lemma_32(n, k, *run) for k in range(n)],
    "prop33": lambda n, *run: [
        check_prop_33(n, p, q, *run) for p in range(n + 1) for q in range(p, n - p)
    ],
    "federer": lambda n, *run: [check_federer(n, None, *run)],
    "lefschetz": lambda n, *run: [check_lefschetz_structure(n, *run)],
    "star": lambda n, *run: [check_star_primitive(n, *run)],
    "hodge-riemann": lambda n, *run: [check_hodge_riemann(n, *run)],
    "sl2": lambda n, *run: [check_sl2(n, *run)],
}

SUITES = tuple(_SWEEPS)


def run_suite(suite: str, n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Run one named suite over its full parameter sweep at dimension n.

    The returned trial count is per parameter combination, and the elapsed
    time covers the whole sweep.
    """
    if suite not in _SWEEPS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    rec = _Recorder(suite, n, trials, rspec)
    for part in _SWEEPS[suite](n, trials, rspec):
        rec.failures.extend(part.failures)
    return rec.report()


def run_all(n: int, trials: int, rspec: RandomSpec) -> list[SuiteReport]:
    """All suites in canonical order."""
    return [run_suite(s, n, trials, rspec) for s in SUITES]
