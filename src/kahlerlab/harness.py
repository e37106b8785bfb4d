"""Exact verification suites for the pointwise operator identities.

Every check evaluates both sides of an identity (or inequality) in exact
arithmetic and records any nonzero discrepancy as a counterexample, with
no tolerance.  Checks on the primitive basis are table identities, both
sides composed once and cached per operator, one comparison per basis
index.  The others draw Gaussian-integer forms from seeded, splittable
streams, one per parameter point, once per block of trials: trial t is
row t of its point's stream.  Points whose forms share a degree are
stacked into one `Batch`, so every operator is applied once per group.
Each suite is one function `check_<suite>(n, trials, rspec)` (federer also
takes its degree pairs) that runs its whole parameter sweep in one report.

A check is one `Check`: its identity, a verdict per row (a trial, a basis
index, or the one row of a check made once), computed in numpy for the
whole batch, and a renderer giving a row's (inputs, lhs, rhs) strings.
`_record` hands the recorder one comparison per (identity, row); the
recorder compares nothing, and calls the renderer only for a row that
failed, so a form is rendered only when its check fails.
"""

from __future__ import annotations

import json
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product
from math import comb, factorial
from operator import add
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .exterior import (
    Batch,
    Form,
    GaussRational,
    Monomial,
    Table,
    _combined,
    _composed,
    _equal_tables,
    _gaussian,
    _holomorphic,
    _images,
    _pair_outputs,
    _parts,
    _table,
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
from .rational_linalg import independent_columns

_ONE_MONOMIAL = Monomial((), ())


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for random forms.

    Coefficients are Gaussian integers with |re|, |im| <= coeff_bound.  The
    stream of generator(suite, n, trial, *point) is a pure function of its
    arguments and the seed.  A suite draws trial t of a parameter point as
    row t of the point's trial-0 stream, so no row depends on the trial
    count or the block size, and reports are reproducible.
    """

    seed: int = 42
    coeff_bound: int = 3

    def __post_init__(self):
        # the largest bound rng.integers(-b, b + 1) takes is 2^63 - 1
        for name, value, low, high in (("seed", self.seed, 0, 2 ** 64 - 1),
                                       ("coefficient bound", self.coeff_bound, 1, 2 ** 63 - 1)):
            if type(value) is bool or not isinstance(value, int) or not low <= value <= high:
                raise ValueError(f"{name} must be an integer in {low}..{high}, got {value!r}")

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

    def to_dict(self) -> dict:
        return {"suite": self.suite, "n": self.n, "trials": self.trials, "seed": self.seed,
                "failures": [f.to_dict() for f in self.failures], "pass": self.passed,
                "elapsed": self.elapsed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def random_form(n: int, p: int, q: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Random (p,q)-form with independent Gaussian-integer coefficients."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    rng = rspec.generator("random_form", n, trial, p, q)
    return _draw_degree(rng, 1, n, [(p, q)], rspec.coeff_bound)[0].form(0)


def simple_random_form(n: int, k: int, rspec: RandomSpec, trial: int = 0) -> Form:
    """Wedge of k random 1-forms; simple by construction."""
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    rng = rspec.generator("simple_random_form", n, trial, k)
    return reduce(Batch.wedge, _draw_degree(rng, 1, n, [1] * k or [0], rspec.coeff_bound)).form(0)


# Rows evaluated together: even at n = 5 a group's arrays stay a few MB.
_TRIAL_BLOCK = 1024


@lru_cache(maxsize=None)
def _columns(n: int, shape) -> tuple[int, np.ndarray]:
    """The degree of a shape, a degree k or a bidegree (p, q), and the ranks
    of its monomials among those of the degree."""
    if isinstance(shape, int):
        return shape, np.arange(comb(2 * n, shape))
    return sum(shape), np.flatnonzero(_holomorphic(n, sum(shape)) == shape[0])


def _draw_degree(rng, rows: int, n: int, shapes, bound: int) -> list[Batch]:
    """rows rows of Gaussian-integer coefficients in |re|, |im| <= bound per
    shape, a degree k or a bidegree (p, q), from one draw of rng: row t takes
    every shape's (re, im) pairs in turn, as the t-th run of size-2 draws per
    monomial would, however the rows are split into calls."""
    out, start, shapes = [], 0, [_columns(n, shape) for shape in shapes]
    drawn = rng.integers(-bound, bound + 1, (rows, 2 * sum(c.size for _, c in shapes)))
    drawn = _gaussian(drawn[:, 0::2], drawn[:, 1::2], bound=bound)
    for k, cols in shapes:
        num, start = drawn[:, start:start + cols.size], start + cols.size
        if cols.size < comb(2 * n, k):  # a bidegree: spread over the degree's monomials
            num, drawn_cols = np.zeros((rows, comb(2 * n, k)), dtype=drawn.dtype), num
            num[:, cols] = drawn_cols
        out.append(Batch(n, k, num, 1, bound))
    return out


class Check(NamedTuple):
    """One identity checked on rows 0, 1, ...: held[t] is row t's verdict,
    and render(t) gives row t's (inputs, lhs, rhs), called only when the
    row fails."""

    identity: str
    held: list[bool]
    render: Callable[[int], tuple[str, str, str]]


def _inputs_at(inputs, t: int) -> str:
    """The inputs of a check at row t: a fixed string, or row t of the named
    input batches."""
    if isinstance(inputs, str):
        return inputs
    return "; ".join(f"{name} = {batch.form(t)}" for name, batch in inputs.items())


def _side(batch: Batch, t: int, scalar: bool) -> str:
    form = batch.form(t)
    return str(form.coefficient(_ONE_MONOMIAL) if scalar else form)


def _equal(identity: str, inputs, lhs: Batch, rhs: Batch, scalar: bool = False) -> Check:
    """lhs == rhs, trial by trial; scalar sides are degree-0 batches shown as
    numbers."""
    return Check(identity, (lhs - rhs).is_zero().tolist(), lambda t: (
        _inputs_at(inputs, t), _side(lhs, t, scalar), _side(rhs, t, scalar)))


def _less_equal(identity: str, inputs, lhs: Batch, rhs: Batch) -> Check:
    """lhs <= rhs, trial by trial, for real degree-0 batches: rhs - lhs has
    a nonnegative numerator over its positive denominator."""
    gaps = (rhs - lhs).num[:, 0]
    gaps = gaps.real if gaps.dtype != object else _parts(gaps)[0]
    return Check(identity, (gaps >= 0).tolist(), lambda t: (
        _inputs_at(inputs, t), _side(lhs, t, True), _side(rhs, t, True)))


def _true(identity: str, inputs, conditions: np.ndarray) -> Check:
    return Check(identity, conditions.tolist(),
                 lambda t: (_inputs_at(inputs, t), "false", "true"))


def _once(identity: str, at: str, held: bool, sides: Callable[[], tuple]) -> Check:
    """A check on one row: held, with inputs at and the two sides that
    sides() gives, rendered with str on failure."""
    return Check(identity, [held], lambda t: (at, *map(str, sides())))


def _record(rec: "_Recorder", checks: Sequence[Check], first: int = 0) -> None:
    """Every check on row 0, then on row 1, and so on; row t is reported as
    trial first + t.  The checks must have one row count."""
    rows = {len(check.held) for check in checks}
    if len(rows) > 1:
        raise ValueError(f"checks of unequal row counts {sorted(rows)}")
    for t in range(max(rows, default=0)):
        for identity, held, render in checks:
            rec.equal(identity, first + t, held[t], partial(render, t))


def _stacked(units: list, j: int, op: Callable[[Batch], Batch] = lambda batch: batch) -> Batch:
    """op on the j-th drawn batch of every unit of a group, as one batch;
    its rows then stand in for each unit's own, and the drawn arrays go."""
    out = op(Batch.stacked([unit[2][j] for unit in units]))
    for _, rows, forms in units:
        forms[j] = out[rows]
    return out


class _Recorder:
    """One suite invocation: refuses a dimension or trial count below 1,
    draws and checks the trials group by group, collects the failures and
    builds the report."""

    def __init__(self, suite: str, n: int, trials: int, rspec: RandomSpec):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if trials < 1:
            raise ValueError("trial count must be positive")
        self.suite, self.n, self.trials, self.rspec = suite, n, trials, rspec
        self.failures: list[FailureRecord] = []
        self.t0 = time.perf_counter()

    def grouped(self, points, shapes, on_group, key=lambda *point: 0) -> SuiteReport:
        """The report of the checks on every group, with the failures of
        every point in turn.

        A group is one block of at most _TRIAL_BLOCK trials of up to
        _TRIAL_BLOCK // trials points that share key(*point).  Its units,
        one per point, are (point, its rows in the group, the batches drawn
        for shapes(*point) from the point's stream, which runs on across its
        blocks), and on_group(units) yields each unit's checks in turn.
        Each point records on its own, so no report depends on the grouping."""
        recs, by_key = [_Recorder(self.suite, self.n, self.trials, self.rspec) for _ in points], {}
        rngs = [self.rspec.generator(self.suite, self.n, 0, *point) for point in points]
        for at, point in enumerate(points):
            by_key.setdefault(key(*point), []).append(at)

        def run(ats: list[int], first: int) -> None:  # a group's arrays go on return
            rows = min(_TRIAL_BLOCK, self.trials - first)
            units = [(points[at], slice(u * rows, (u + 1) * rows), _draw_degree(
                rngs[at], rows, self.n, shapes(*points[at]), self.rspec.coeff_bound))
                for u, at in enumerate(ats)]
            for at, checks in zip(ats, on_group(units), strict=True):
                _record(recs[at], checks, first)

        size = max(1, _TRIAL_BLOCK // self.trials)
        for ats, first in product([ats[i:i + size] for ats in by_key.values()
                                   for i in range(0, len(ats), size)],
                                  range(0, self.trials, _TRIAL_BLOCK)):
            run(ats, first)
        self.failures += [failure for rec in recs for failure in rec.failures]
        return self.report()

    def equal(self, identity: str, trial: int, held: bool,
              show: Callable[[], tuple[str, str, str]]) -> None:
        """One comparison, already decided: a failure keeps the (inputs, lhs,
        rhs) that show() renders."""
        if not held:
            self.failures.append(FailureRecord(identity, trial, *show()))

    # only for perfbench's counting_checks, which reads all three names
    less_equal = true = equal

    def report(self) -> SuiteReport:
        return SuiteReport(self.suite, self.n, self.trials, self.rspec.seed,
                           tuple(self.failures), time.perf_counter() - self.t0)


def check_prop_31(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Inner products of equal Lefschetz powers of primitive forms.

    For primitive degree-k forms, <L^j a, L^j b> = j!(n-k)!/(n-k-j)! <a, b>
    for 0 <= j <= n-k, and L^j kills primitives for j beyond n-k.
    """
    def on_group(units):
        scalars = inner(*(_stacked(units, i, primitive_projection) for i in (0, 1)))
        for (k, j), rows, (a, b) in units:
            ins, tag = dict(a=a, b=b), f"[k={k},j={j}]"
            lhs = inner(lefschetz_power(a, j), lefschetz_power(b, j))
            factor = Fraction(factorial(j) * factorial(n - k), factorial(n - k - j))
            checks = [_equal("power-scaling" + tag, ins, lhs, scalars[rows] * factor, scalar=True)]
            if j == n - k:
                vanished = lefschetz_power(a, j + 1)
                checks.append(_equal("power-vanishing" + tag, ins, vanished,
                                     Batch.zero(n, vanished.k, vanished.rows)))
            yield checks
    return _Recorder("prop31", n, trials, rspec).grouped(
        [(k, j) for k in range(n + 1) for j in range(n - k + 1)],
        lambda k, j: [k, k], on_group, lambda k, j: k)


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


def check_lemma_32(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Norm expansions of a form through its primitive decomposition.

    With a = sum_r L^r a_r and b = sum_r L^r b_r of degree k < n, the inner
    products <L^j a, L^j b> for j in {0, n-k, n-k-1} expand into weighted
    sums of <a_r, b_r> with explicit factorial weights.
    """
    def on_group(units):
        (((k,), _, (a, b)),) = units
        parts_a, parts_b = primitive_decompose(a).parts, primitive_decompose(b).parts
        yield [_equal(
            f"{tag}[k={k}]", dict(a=a, b=b),
            inner(lefschetz_power(a, power_of(n - k)), lefschetz_power(b, power_of(n - k))),
            _expansion(parts_a, parts_b, lambda r: coeff(n - k, r)), scalar=True,
        ) for tag, power_of, coeff in _DECOMP_COEFFS]
    return _Recorder("lemma32", n, trials, rspec).grouped(
        [(k,) for k in range(n)], lambda k: [k, k], on_group, lambda k: k)


def check_prop_33(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Two-sided bounds for Lefschetz powers of (p,q)-forms below middle degree.

    On the diagonal a = b the squared norms of L^(n-k) a and L^(n-k-1) a are
    pinched between explicit factorial multiples of |a|^2; the sesquilinear
    version is checked against the decomposition expansion (polarization).
    """
    def on_group(units):
        a, b = _stacked(units, 0), _stacked(units, 1)
        m = n - a.k
        top_a = lefschetz_power(a, m)
        nsq, top, sub = norm_sq(a), norm_sq(top_a), norm_sq(lefschetz_power(a, m - 1))
        lower_top, lower_sub = nsq * factorial(m) ** 2, nsq * (factorial(m - 1) * factorial(m))
        polar = inner(top_a, lefschetz_power(b, m))
        # weighted by top-power-expansion's (m+r)!(m+2r)!/r!
        rhs = _expansion(primitive_decompose(a).parts, primitive_decompose(b).parts,
                         partial(_DECOMP_COEFFS[1][2], m))
        for (p, q), rows, (a_rows, b_rows) in units:
            upper_top = Fraction(factorial(n - q), factorial(p)) ** 2
            upper_sub = Fraction(factorial(n - q - 1) * factorial(n - q),
                                 factorial(p) * factorial(p + 1))
            ins, tag = dict(a=a_rows), f"[p={p},q={q}]"
            yield [
                _less_equal("top-power-lower" + tag, ins, lower_top[rows], top[rows]),
                _less_equal("top-power-upper" + tag, ins, top[rows], nsq[rows] * upper_top),
                _less_equal("subtop-power-lower" + tag, ins, lower_sub[rows], sub[rows]),
                _less_equal("subtop-power-upper" + tag, ins, sub[rows], nsq[rows] * upper_sub),
                _equal("polarization-expansion" + tag, dict(a=a_rows, b=b_rows),
                       polar[rows], rhs[rows], scalar=True),
            ]
    return _Recorder("prop33", n, trials, rspec).grouped(
        [(p, q) for p in range(n + 1) for q in range(p, n - p)],
        lambda p, q: [(p, q)] * 2, on_group, lambda p, q: p + q)


def check_federer(n: int, degrees: Optional[Sequence[tuple[int, int]]], trials: int,
                  rspec: RandomSpec) -> SuiteReport:
    """Wedge-product norm inequalities.

    |a ^ b|^2 <= C(da+db, da) |a|^2 |b|^2 in general, and without the
    binomial factor when one factor is simple.
    """
    rec = _Recorder("federer", n, trials, rspec)
    if degrees is None:
        degrees = [(da, db) for da in range(2 * n + 1) for db in range(da, 2 * n + 1 - da)]
    if not degrees:
        raise ValueError("needs at least one degree pair")
    for da, db in degrees:
        if da < 0 or db < 0 or da + db > 2 * n:
            raise ValueError(f"degree pair ({da},{db}) out of range for n={n}")

    def on_group(units):
        # b and the simple s, the wedge of its drawn 1-forms, for the whole group
        nsq_b = norm_sq(_stacked(units, 1))
        s = reduce(Batch.wedge, [_stacked(units, j) for j in range(2, len(units[0][2]))])
        nsq_s = norm_sq(s)
        for (da, db), rows, (a, b, *_) in units:
            nsq_a, tag = norm_sq(a), f"[{da},{db}]"
            yield [
                _less_equal("binomial-bound" + tag, dict(a=a, b=b), norm_sq(a.wedge(b)),
                            nsq_a * nsq_b[rows] * comb(da + db, da)),
                _less_equal("simple-bound" + tag, dict(a=a, s=s[rows]),
                            norm_sq(a.wedge(s[rows])), nsq_a * nsq_s[rows]),
            ]
    return rec.grouped(degrees, lambda da, db: [da, db, *([1] * db or [0])], on_group,
                       lambda da, db: db)


def _shown_entries(n: int, k: int, table: Table, other: Table) -> str:
    """The entries of table, a map on degree k, where other's differ, as
    output <- input: entry."""
    diff = _combined([(1, table), (-1, other)])
    outs, ins = monomial_basis(n, table.k), monomial_basis(n, k)
    images = _images(n, table, len(ins))
    return "; ".join(
        f"{outs[o].label()} <- {ins[i].label()}: {images[i].coefficient(outs[o])}"
        for o, i in zip(_pair_outputs(diff).tolist(), diff.src.tolist()))


def _on_basis(identity: str, n: int, k: int, lhs: Table, rhs: Table,
              inputs: Optional[str] = None) -> Check:
    """lhs == rhs on each primitive basis form of degree k, for two tables on
    the basis indices; a check's row is the index, its inputs the basis
    form unless given.  The tables are compared once: when they differ, the
    failing indices are the inputs of their difference."""
    failing = set() if _equal_tables(lhs, rhs) else set(
        _combined([(1, lhs), (-1, rhs)]).src.tolist())
    count = _inputs(_primitive_table(n, k))
    return Check(identity, [t not in failing for t in range(count)], lambda t: (
        inputs or f"a = {primitive_basis(n, k)[t]}",
        str(_images(n, lhs, count)[t]), str(_images(n, rhs, count)[t])))


def _zero(table: Table) -> Table:
    """The zero map between the degrees of table, with no pair."""
    none = table.src[:0]
    return table._replace(src=none, coef=table.coef[:0], starts=none, outputs=none, den=1, gain=0)


def _scalar(n: int, k: int, c: int | Fraction) -> Table:
    """c times the identity on degree k."""
    c, ids = Fraction(c), np.arange(comb(2 * n, k))
    return _table(k, ids.size, ids, ids, _gaussian([c.numerator] * ids.size), c.denominator, k)


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


@lru_cache(maxsize=None)
def _inverts(n: int, k: int, kept: int, *ops: tuple) -> bool:
    """Whether X_k, the left inverse of L^(n-k), sends the chain of ops from
    degree k to the chain of its first kept ops (kept 0: the identity on
    degree k).  Cached per operator as `_chain` is, holding no table."""
    want = _chain(n, k, *ops[:kept]) if kept else _scalar(n, k, 1)
    return _equal_tables(_composed(_left_inverse_table(n, k), _chain(n, k, *ops)), want)


def _certified(identity: str, at: str, conditions: dict[str, bool]) -> Check:
    """One row: every named condition holds.  A failure shows the
    conditions that do not, against all of them."""
    failed = [name for name, held in conditions.items() if not held]
    return _once(identity, at, not failed,
                 lambda: ("fails: " + "; ".join(failed), "holds: " + "; ".join(conditions)))


def check_lefschetz_structure(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Dimensions, hard Lefschetz, and round-trips of the Lefschetz
    decomposition.

    Exhaustive once per dimension, on tables: primitive dimension counts,
    per bidegree the basis forms the dual Lefschetz operator kills, the
    kernel characterization of primitives, and agreement of the dual
    Lefschetz operator (the adjoint of L) with star^-1 o L o star.

    Hard Lefschetz is certified without elimination.  X_k, a left inverse
    of L^(n-k) on degree k <= n, is built in `kaehler` in closed form, not
    from the L tables; a wrong X_k can only fail a check.  B is the
    primitive basis table, and its columns are independent when their
    largest nonzero rows are pairwise distinct (`rational_linalg`).
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
    at = f"n={n}"

    def by_bidegree(p: int, q: int) -> int:
        return comb(n, p) * comb(n, q) - (comb(n, p - 1) * comb(n, q - 1) if p and q else 0)
    killed = Counter()  # basis forms of each bidegree that the dual Lefschetz kills
    for k in range(2 * n + 1):
        expected, basis = primitive_dimension(n, k), _primitive_table(n, k)
        count = _inputs(basis)
        counts = [_once(f"primitive-dimension[k={k}]", at, count == expected,
                        lambda: (count, expected))]
        holomorphic = np.zeros(count, dtype=np.int64)
        holomorphic[basis.src] = _holomorphic(n, k)[_pair_outputs(basis)]
        kept = np.ones(count, dtype=bool)
        kept[_chain(n, k, (_primitive_table,), (_dual_lefschetz_table,)).src] = False
        killed.update((p, k - p) for p in holomorphic[kept].tolist())
        if k <= n:  # C(2n,k) - C(2n,k-2) against the sum of the bidegree counts
            total = sum(by_bidegree(p, k - p) for p in range(k + 1))
            counts.append(_once(f"primitive-dimension-formula[k={k}]", at,
                                expected == total, lambda: (expected, total)))
        _record(rec, counts)
    for p in range(n + 1):
        for q in range(n + 1):
            want = by_bidegree(p, q) if p + q <= n else 0
            _record(rec, [_once(f"primitive-bidegree-dimension[p={p},q={q}]", at,
                                killed[p, q] == want, lambda: (killed[p, q], want))])
    for k in range(n + 1):
        independent = independent_columns(
            _primitive_table(n, k), comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0))
        killer = _chain(n, k, (_primitive_table,), (_power_table, n - k + 1))
        certificates = [
            _certified(f"hard-lefschetz-bijective[k={k}]", at, {
                "X_k o L^(n-k) = id": _inverts(n, k, 0, (_power_table, n - k))}),
            _certified(f"hard-lefschetz-primitive-injective[k={k}]", at, {
                "B has independent columns": independent,
                "X_k o L^(n-k) o B = B": _inverts(
                    n, k, 1, (_primitive_table,), (_power_table, n - k))}),
        ]
        kernel = {"L^(n-k+1) o B = 0": not killer.src.size,
                  "B has independent columns": independent}
        if k >= 2:
            kernel["X_(k-2) o L^(n-k+1) o L = id"] = _inverts(
                n, k - 2, 0, (_power_table, 1), (_power_table, n - k + 1))
        certificates.append(_certified(f"primitive-kernel-dimension[k={k}]", at, kernel))
        _record(rec, certificates)
        _record(rec, [_on_basis(f"primitive-kernel-member[k={k}]", n, k, killer,
                                _zero(killer), at)])
    for k in range(2, 2 * n + 1):
        # star^-1 o L o star, with star^-1 = (-1)^k star on degree 2n - k + 2
        route = _chain(n, k, (_star_table,), (_power_table, 1), (_star_table,),
                       (_scalar, (-1) ** k))
        adjoint = _dual_lefschetz_table(n, k)
        _record(rec, [_once(f"dual-lefschetz-star-route[k={k}]", at,
                            _equal_tables(adjoint, route), lambda: (
                                _shown_entries(n, k, adjoint, route),
                                _shown_entries(n, k, route, adjoint)))])
    def on_group(units):
        ((_, _, forms),) = units
        forms, checks = iter(forms), []
        for k in range(2 * n + 1):
            a = next(forms)
            parts = primitive_decompose(a).parts
            back = reduce(add, [lefschetz_power(part, r) for r, part in parts.items()])
            primitive = np.logical_and.reduce(
                [dual_lefschetz(part).is_zero() for part in parts.values()]
            )
            ins = dict(a=a)
            checks.append(_equal(f"decomposition-round-trip[k={k}]", ins, back, a))
            checks.append(_true(f"decomposition-parts-primitive[k={k}]", ins, primitive))
        for k in range(2 * n - 1):
            a, b = next(forms), next(forms)
            checks.append(_equal(
                f"adjointness[k={k}]", dict(a=a, b=b),
                inner(lefschetz_L(a), b), inner(a, dual_lefschetz(b)), scalar=True,
            ))
        yield checks
    return rec.grouped([()], lambda: [*range(2 * n + 1), *(
        d for k in range(2 * n - 1) for d in (k, k + 2))], on_group)


@lru_cache(maxsize=None)
def _compiled_star(star_fn: Callable[[Form], Form]) -> Callable[[int, int], Table]:
    """An injected linear Form -> Form star, as its table on each degree."""
    @lru_cache(maxsize=None)
    def star(n: int, k: int) -> Table:
        images = Batch.of(n, 2 * n - k, [star_fn(Form.monomial(n, mu.s, mu.t))
                                         for mu in monomial_basis(n, k)])
        src, out = np.nonzero(images.num.astype(bool))
        return _table(2 * n - k, images.num.shape[1], out, src, images.num[src, out],
                      images.den, k)
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
        _record(rec, checks)
    def on_group(units):
        ((_, _, forms),) = units
        yield [_equal(f"double-star[k={k}]", dict(a=a), star(n, 2 * n - k)(star(n, k)(a)),
                      a * (-1) ** k) for k, a in enumerate(forms)]
    return rec.grouped([()], lambda: range(2 * n + 1), on_group)


def check_hodge_riemann(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Bilinear relation on primitive (p,q)-forms.

    i^(p-q) Q(a, conj(b)) = (n-p-q)! <a, b> with Q the pairing against
    omega^(n-k), checked for independently drawn primitive a, b.
    """
    def on_group(units):
        a, b = (_stacked(units, i, primitive_projection) for i in (0, 1))
        pairing, scaled = hr_pairing(a, conjugate(b)), inner(a, b) * factorial(n - a.k)
        for (p, q), rows, (a_rows, b_rows) in units:
            yield [_equal(f"bilinear-relation[p={p},q={q}]", dict(a=a_rows, b=b_rows),
                          pairing[rows] * GaussRational.i_power(p - q), scaled[rows], scalar=True)]
    return _Recorder("hodge-riemann", n, trials, rspec).grouped(
        [(p, q) for p in range(n + 1) for q in range(n - p + 1)],
        lambda p, q: [(p, q)] * 2, on_group, lambda p, q: p + q)


def check_sl2(n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Commutator [L, dual L] = (k - n) id on homogeneous degree k."""
    def on_group(units):
        ((_, _, forms),) = units
        yield [_equal(f"commutator[k={k}]", dict(a=a),
                      lefschetz_L(dual_lefschetz(a)) - dual_lefschetz(lefschetz_L(a)),
                      a * (k - n)) for k, a in enumerate(forms)]
    return _Recorder("sl2", n, trials, rspec).grouped([()], lambda: range(2 * n + 1), on_group)


# Each suite's entry point, called with (n, trials, rspec): it runs the
# suite's whole parameter sweep in one report.  The bodies name each entry
# point, so a call runs whatever the module binds to that name at the time.
_SWEEPS: dict[str, Callable[..., SuiteReport]] = {
    "prop31": lambda n, *run: check_prop_31(n, *run),
    "lemma32": lambda n, *run: check_lemma_32(n, *run),
    "prop33": lambda n, *run: check_prop_33(n, *run),
    "federer": lambda n, *run: check_federer(n, None, *run),
    "lefschetz": lambda n, *run: check_lefschetz_structure(n, *run),
    "star": lambda n, *run: check_star_primitive(n, *run),
    "hodge-riemann": lambda n, *run: check_hodge_riemann(n, *run),
    "sl2": lambda n, *run: check_sl2(n, *run),
}

SUITES = tuple(_SWEEPS)

# A wedge pair `federer` caches holds 17 bytes: int64 src and left, an int8
# sign.  A run whose pairs need more than the budget is refused before any
# suite starts.
_BYTES_PER_WEDGE_PAIR = 17
_MEMORY_BUDGET = 8 << 30


def _wedge_pairs(n: int) -> int:
    """The wedge pairs `federer` caches at dimension n: over its degree
    pairs da <= db, each degree-da monomial times each degree-db monomial
    disjoint from it."""
    return sum(comb(2 * n, da) * comb(2 * n - da, db)
               for da in range(2 * n + 1) for db in range(da, 2 * n + 1 - da))


def _refuse_infeasible(suites: Sequence[str], n: int) -> None:
    """A ValueError, with the estimate, when the suites cannot run at n
    within the memory budget."""
    if "federer" in suites:
        pairs = _wedge_pairs(n)
        need = pairs * _BYTES_PER_WEDGE_PAIR
        if need > _MEMORY_BUDGET:
            raise ValueError(
                f"federer at n={n} would cache about {pairs:,} wedge pairs, about "
                f"{need / 2 ** 30:.1f} GiB at {_BYTES_PER_WEDGE_PAIR} bytes each, over "
                f"the {_MEMORY_BUDGET / 2 ** 30:g} GiB budget")


def run_suite(suite: str, n: int, trials: int, rspec: RandomSpec) -> SuiteReport:
    """Run one named suite over its full parameter sweep at dimension n.

    The returned trial count is per parameter combination, and the elapsed
    time covers the whole sweep.
    """
    if suite not in _SWEEPS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    _refuse_infeasible([suite], n)
    rec = _Recorder(suite, n, trials, rspec)
    rec.failures += _SWEEPS[suite](n, trials, rspec).failures
    return rec.report()


def run_all(n: int, trials: int, rspec: RandomSpec) -> list[SuiteReport]:
    """All suites in canonical order; an infeasible dimension is refused
    before any of them runs."""
    _refuse_infeasible(SUITES, n)
    return [run_suite(s, n, trials, rspec) for s in SUITES]
