"""Randomized verification harness: determinism, sensitivity, preconditions.

The harness is only trustworthy if a wrong operator actually trips it, so a
deliberately flipped star is injected and the resulting failure records are
inspected end to end.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from kahlerlab.exterior import (
    Batch, Form, GaussRational, _images, _pair_outputs, _parts, _table, bidegree_basis,
    monomial_basis, norm_sq,
)
from kahlerlab import exterior, harness, kaehler
from kahlerlab.harness import (
    SUITES,
    _draw_degree,
    FailureRecord,
    RandomSpec,
    SuiteReport,
    check_federer,
    check_hodge_riemann,
    check_lefschetz_structure,
    check_lemma_32,
    check_prop_31,
    check_prop_33,
    check_sl2,
    check_star_primitive,
    random_form,
    run_all,
    run_suite,
    simple_random_form,
)
from kahlerlab.kaehler import (
    _inputs, _primitive_table, hodge_star, lefschetz_power, primitive_basis, weil_operator,
)

from test_exterior import gaussian_batch


def test_suite_names_are_stable():
    assert SUITES == (
        "prop31",
        "lemma32",
        "prop33",
        "federer",
        "lefschetz",
        "star",
        "hodge-riemann",
        "sl2",
    )


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(seed=-1)
    with pytest.raises(ValueError):
        RandomSpec(seed=2 ** 64)
    with pytest.raises(ValueError):
        RandomSpec(coeff_bound=0)
    # rng.integers(-b, b + 1) takes b up to 2^63 - 1; ints only, not bools
    for bad in (2 ** 63, 2.5, True, 3.0):
        with pytest.raises(ValueError, match="coefficient bound"):
            RandomSpec(coeff_bound=bad)
    for bad in (1.5, True, 42.0):
        with pytest.raises(ValueError, match="seed"):
            RandomSpec(seed=bad)
    a = random_form(2, 1, 1, RandomSpec(seed=2 ** 64 - 1, coeff_bound=2 ** 63 - 1))
    assert a.bidegree() == (1, 1)
    assert all(abs(c.re) < 2 ** 63 and abs(c.im) < 2 ** 63 for c in a.terms.values())


def test_random_form_is_homogeneous_and_bounded():
    rspec = RandomSpec(seed=7, coeff_bound=2)
    a = random_form(3, 1, 1, rspec)
    assert a.bidegree() == (1, 1)
    for coeff in a.terms.values():
        assert abs(coeff.re) <= 2 and abs(coeff.im) <= 2
    with pytest.raises(ValueError):
        random_form(2, 3, 0, rspec)


def test_random_form_is_reproducible_and_seed_sensitive():
    a = random_form(2, 1, 1, RandomSpec(seed=11), trial=5)
    b = random_form(2, 1, 1, RandomSpec(seed=11), trial=5)
    c = random_form(2, 1, 1, RandomSpec(seed=12), trial=5)
    d = random_form(2, 1, 1, RandomSpec(seed=11), trial=6)
    assert a == b
    assert a != c
    assert a != d


def test_random_forms_keep_their_per_trial_streams():
    # each call draws from the stream of its own trial; these strings pin
    # them, from 3 to 10^12 and 2^40 as coefficient bounds
    assert [str(form) for form in (
        random_form(2, 1, 1, RandomSpec(seed=11), trial=5),
        random_form(3, 2, 0, RandomSpec(seed=42)),
        random_form(2, 0, 2, RandomSpec(seed=7, coeff_bound=10 ** 12), trial=3),
        simple_random_form(2, 2, RandomSpec(seed=3), trial=4),
        simple_random_form(3, 1, RandomSpec(seed=42)),
        simple_random_form(2, 0, RandomSpec(seed=5, coeff_bound=2 ** 40), trial=1),
    )] == [
        "(-2)*dz[1]^dzb[1] + (2-2i)*dz[1]^dzb[2] + (-2i)*dz[2]^dzb[1] + (-1-1i)*dz[2]^dzb[2]",
        "(3)*dz[1,2] + (2-2i)*dz[1,3] + (-2+2i)*dz[2,3]",
        "(57039613873-261111355642i)*dzb[1,2]",
        "(8-4i)*dzb[1,2] + (8i)*dz[1]^dzb[1] + (-12-4i)*dz[1]^dzb[2] + (2-6i)*dz[1,2]"
        " + (-14+4i)*dz[2]^dzb[1] + (-6-22i)*dz[2]^dzb[2]",
        "(2)*dzb[1] + (-3+2i)*dzb[2] + (-2-3i)*dzb[3] + (-1i)*dz[1] + (3+2i)*dz[3]",
        "(-723314002386+692751504735i)*1",
    ]


def test_simple_random_form_is_simple():
    rspec = RandomSpec(seed=3)
    for trial in range(5):
        a = simple_random_form(3, 2, rspec, trial=trial)
        assert a.wedge(a).is_zero()
        assert a.is_zero() or a.degree() == 2
    scalar = simple_random_form(2, 0, rspec)
    assert scalar.is_zero() or scalar.degree() == 0
    with pytest.raises(ValueError):
        simple_random_form(2, 5, rspec)


def test_reports_serialize_deterministically():
    rspec = RandomSpec(seed=42)
    first = run_suite("sl2", 2, 5, rspec)
    second = run_suite("sl2", 2, 5, rspec)
    payloads = [json.loads(report.to_json()) for report in (first, second)]
    assert all(payload.pop("elapsed") >= 0.0 for payload in payloads)
    assert payloads[0] == payloads[1] == {
        "suite": "sl2",
        "n": 2,
        "trials": 5,
        "seed": 42,
        "failures": [],
        "pass": True,
    }


def test_small_full_run_has_zero_failures():
    reports = run_all(2, 10, RandomSpec(seed=42))
    assert [r.suite for r in reports] == list(SUITES)
    for report in reports:
        assert report.passed, report.to_json()
        assert report.n == 2
        assert report.trials == 10


def test_flipped_star_is_caught_with_detailed_records():
    def flipped(a: Form) -> Form:
        return hodge_star(a) * GaussRational(-1)

    report = check_star_primitive(2, 5, RandomSpec(seed=42), star_fn=flipped)
    assert not report.passed
    assert len(report.failures) >= 1
    record = report.failures[0]
    assert isinstance(record, FailureRecord)
    assert record.identity.startswith(("star-of-power", "double-star"))
    assert record.inputs
    assert record.lhs != record.rhs
    payload = json.loads(report.to_json())
    assert payload["pass"] is False
    assert payload["failures"][0]["identity"] == record.identity


def test_a_passing_run_builds_no_tuple_basis(monkeypatch, fresh_caches):
    """Every table is built from bitmasks: with the tuple basis unavailable
    every suite still passes on cold caches, and a failing run renders its
    forms through it once it is back."""
    def refused(n, k):
        raise AssertionError(f"monomial_basis({n}, {k}) on a passing run")

    for module in (exterior, harness):
        monkeypatch.setattr(module, "monomial_basis", refused)
    for report in run_all(4, 2, RandomSpec(42)):
        assert report.passed, report.to_json()
    monkeypatch.undo()
    flipped = check_star_primitive(2, 1, RandomSpec(42),
                                   star_fn=lambda a: hodge_star(a) * GaussRational(-1))
    assert flipped.failures and all(f.lhs != f.rhs for f in flipped.failures)
    assert any("dz[" in f.lhs for f in flipped.failures)


def test_scaled_star_perturbation_also_caught():
    def scaled(a: Form) -> Form:
        return hodge_star(a) * GaussRational(2)

    report = check_star_primitive(1, 3, RandomSpec(seed=1), star_fn=scaled)
    assert not report.passed


def test_precondition_errors():
    rspec = RandomSpec(seed=42)
    # each suite runs its own sweep: no single-point call is left to refuse
    for check, old in ((check_prop_31, (2, 1, 0)), (check_lemma_32, (2, 1)),
                       (check_prop_33, (3, 0, 1))):
        for n, trials in ((0, 1), (2, 0)):
            with pytest.raises(ValueError):
                check(n, trials, rspec)
        with pytest.raises(TypeError):
            check(*old, 1, rspec)
    with pytest.raises(ValueError):
        run_suite("nonsense", 2, 1, rspec)
    with pytest.raises(ValueError):
        run_suite("sl2", 0, 1, rspec)
    with pytest.raises(ValueError):
        run_suite("sl2", 2, 0, rspec)
    # a run that would make no check, or report a trial count it never ran
    with pytest.raises(ValueError):
        check_sl2(2, 0, rspec)
    with pytest.raises(ValueError):
        check_hodge_riemann(2, -3, rspec)
    with pytest.raises(ValueError):
        check_prop_31(0, 1, rspec)


def test_federer_accepts_an_explicit_degree_list(monkeypatch):
    report = check_federer(2, [(1, 1)], 4, RandomSpec(seed=42))
    assert report.passed
    with pytest.raises(ValueError):
        check_federer(2, [(3, 2)], 4, RandomSpec(seed=42))
    with pytest.raises(ValueError):
        check_federer(2, [], 4, RandomSpec(seed=42))

    def drawn(*args):
        raise AssertionError("a form was drawn before every degree pair was checked")

    monkeypatch.setattr(harness, "_draw_degree", drawn)
    with pytest.raises(ValueError):
        check_federer(3, [(1, 1), (2, 2), (3, 3), (4, 3)], 4, RandomSpec(seed=42))


def test_suite_report_passed_property():
    report = SuiteReport(
        suite="sl2", n=1, trials=1, seed=0,
        failures=(FailureRecord("x", 0, "a=0", "1", "2"),), elapsed=0.0,
    )
    assert not report.passed
    assert report.to_dict()["pass"] is False


def test_prop31_suite_covers_the_whole_sweep():
    report = run_suite("prop31", 2, 3, RandomSpec(seed=42))
    assert report.passed
    assert report.trials == 3


def test_drawn_primitive_forms_are_nontrivial_often_enough():
    rspec = RandomSpec(seed=42)
    nonzero = 0
    for trial in range(20):
        a = random_form(2, 1, 0, rspec, trial=trial)
        nonzero += not a.is_zero()
        assert norm_sq(a) >= 0
    assert nonzero >= 15


def _reference_draw(rng, n, basis, bound):
    """One rng.integers call of size 2 per coefficient."""
    terms = {}
    for mono in basis:
        re, im = rng.integers(-bound, bound + 1, size=2)
        terms[mono] = GaussRational(int(re), int(im))
    return Form(n, terms)


def _reference_simple(rng, n, k, bound):
    if k == 0:
        return _reference_draw(rng, n, monomial_basis(n, 0), bound)
    out = Form.one(n)
    for _ in range(k):
        out = out.wedge(_reference_draw(rng, n, monomial_basis(n, 1), bound))
    return out


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _shapes(n: int) -> list:
    """Degrees, bidegrees and the degree-1 factors of a simple form, interleaved."""
    return [shape for k in range(2 * n + 1) for shape in (
        k, *((p, k - p) for p in range(max(0, k - n), min(k, n) + 1)), 1)]


# 2^31 - 1 and below take numpy's 32-bit bounded draw, 2^40 and 2^63 - 1 its 64-bit one
@pytest.mark.parametrize("bound", [1, 3, 7, 2 ** 31 - 1, 2 ** 40, 2 ** 63 - 1])
def test_batched_draws_match_per_coefficient_draws(bound):
    # one draw from one stream for every row and shape: row t of each batch
    # is the t-th run of size-2 draws per coefficient from that stream
    rows = 3
    for n in (1, 2, 3):
        shapes = _shapes(n)
        for seed in (0, 7, 42, 2 ** 40 + 3):
            fast, slow = _stream(seed), _stream(seed)
            batches = _draw_degree(fast, rows, n, shapes, bound)
            assert [(batch.k, batch.rows) for batch in batches] == [
                (shape if isinstance(shape, int) else sum(shape), rows) for shape in shapes]
            for t in range(rows):
                for shape, batch in zip(shapes, batches):
                    basis = (monomial_basis(n, shape) if isinstance(shape, int)
                             else bidegree_basis(n, *shape))
                    assert batch.form(t) == _reference_draw(slow, n, basis, bound)
            assert fast.integers(0, 2 ** 62) == slow.integers(0, 2 ** 62)
        rspec = RandomSpec(seed=5, coeff_bound=bound)
        for k in range(2 * n + 1):
            rng = rspec.generator("simple_random_form", n, 2, k)
            assert simple_random_form(n, k, rspec, trial=2) == _reference_simple(rng, n, k, bound)


# the bounds either side of numpy's 32-bit bounded draw and up to int64's end
@pytest.mark.parametrize("bound", [1, 3, 2 ** 31 - 1, 2 ** 31, 2 ** 32, 2 ** 40, 2 ** 63 - 1])
def test_rows_drawn_in_several_calls_are_the_rows_of_one_call(bound):
    # a point's stream runs on across its blocks: rows 1 + 2 + 3 drawn in
    # turn are the 6 rows of one draw, and the stream stays in step after
    n, shapes = 2, _shapes(2)
    split, whole = _stream(42), _stream(42)
    parts = [_draw_degree(split, rows, n, shapes, bound) for rows in (1, 2, 3)]
    for j, batch in enumerate(_draw_degree(whole, 6, n, shapes, bound)):
        joined = np.concatenate([batches[j].num for batches in parts])
        assert joined.dtype == batch.num.dtype and np.array_equal(joined, batch.num)
    assert np.array_equal(split.integers(0, 2 ** 62, size=3), whole.integers(0, 2 ** 62, size=3))


def test_failure_records_render_the_inputs_of_the_failing_check():
    def flipped(a: Form) -> Form:
        return hodge_star(a) * GaussRational(-1)

    report = check_star_primitive(2, 10, RandomSpec(seed=42), star_fn=flipped)
    assert len(report.failures) == 16
    for record in report.failures:
        # star-of-power[k=K,r=R]; the trial is the index in the primitive basis
        assert record.identity.startswith("star-of-power[k=")
        k = int(record.identity.split("k=")[1].split(",")[0])
        assert record.inputs == f"a = {primitive_basis(2, k)[record.trial]}"


def test_dimension_formula_check_is_independent_of_primitive_dimension(monkeypatch):
    # C(2n,k) without the C(2n,k-2) correction is wrong for 2 <= k <= n
    monkeypatch.setattr(harness, "primitive_dimension", lambda n, k: comb(2 * n, k))
    report = check_lefschetz_structure(3, 1, RandomSpec(seed=42))
    failed = [(f.identity, f.lhs, f.rhs) for f in report.failures
              if f.identity.startswith("primitive-dimension-formula")]
    assert failed == [("primitive-dimension-formula[k=2]", "15", "14"),
                      ("primitive-dimension-formula[k=3]", "20", "14")]


def test_batched_checks_compare_every_column(monkeypatch):
    # a dual Lefschetz operator off by one in the last column of its image:
    # the batched suite must see it on every degree and every trial, not
    # only through an injected Form -> Form operator
    def off_at_the_end(a):
        out = original(a)
        num = out.num.copy()
        num[:, -1:] += 1
        return Batch(out.n, out.k, num, out.den)

    original = harness.dual_lefschetz
    monkeypatch.setattr(harness, "dual_lefschetz", off_at_the_end)
    report = check_sl2(2, 3, RandomSpec(seed=42))
    failed = sorted((f.identity, f.trial) for f in report.failures)
    assert failed == [(f"commutator[k={k}]", t) for k in range(5) for t in range(3)]


def test_batched_comparisons_are_exact():
    n = 2
    zeros = np.zeros((3, 1), dtype=np.int64)
    # 2/3 <= 4/6, 7/3 <= 13/6 and 2^51/3 <= 2^52/6: only the second fails,
    # and over the common denominator 6 the third difference reaches 2^53
    lhs = gaussian_batch(n, 0, np.array([[2], [7], [2 ** 51]]), zeros, 3)
    rhs = gaussian_batch(n, 0, np.array([[4], [13], [2 ** 52]]), zeros, 6)
    assert lhs.num.dtype == rhs.num.dtype == np.complex128
    assert (rhs - lhs).num.dtype == np.int64  # real, so machine integers up to 2^63
    rec = harness._Recorder("x", n, 3, RandomSpec())
    harness._record(rec, [harness._less_equal("x", "n=2", lhs, rhs)])
    assert [(f.trial, f.lhs, f.rhs) for f in rec.failures] == [(1, "7/3", "13/6")]
    # the same forms written over another denominator, but row 1 differs in
    # one imaginary part of its last column
    a = Batch.of(n, 2, [random_form(n, 1, 1, RandomSpec(seed=s)) for s in range(3)])
    num = a.num * 5
    num[1, -1] += 1j
    b = Batch(n, 2, num, a.den * 5)
    rec = harness._Recorder("y", n, 3, RandomSpec())
    harness._record(rec, [harness._equal("y", {"a": a}, a, b)])
    assert [f.trial for f in rec.failures] == [1]
    assert rec.failures[0].inputs == f"a = {a.form(1)}"
    assert rec.failures[0].rhs == str(b.form(1))
    # 2^61/3 = 2^62/6, 2^61/3 != (2^61 + 2)/3 and 5/3 = 10/6: over the
    # common denominator 6 the difference reaches 2^63, so the rows compare
    # as Python ints
    lhs = gaussian_batch(n, 0, np.array([[2 ** 61], [2 ** 61], [5]]), zeros, 3)
    rhs = gaussian_batch(n, 0, np.array([[2 ** 62], [2 ** 62 + 4], [10]]), zeros, 6)
    assert (lhs - rhs).num.dtype == object
    rec = harness._Recorder("z", n, 3, RandomSpec())
    harness._record(rec, [harness._equal("z", "n=2", lhs, rhs, scalar=True)])
    assert [(f.trial, f.lhs, f.rhs) for f in rec.failures] == [
        (1, f"{2 ** 61}/3", f"{2 ** 61 + 2}/3")]


def test_a_check_renders_only_its_failing_rows():
    def unrenderable(t):
        raise AssertionError(f"row {t} rendered although it held")

    rec = harness._Recorder("w", 2, 3, RandomSpec())
    harness._record(rec, [harness.Check("held", [True, True], unrenderable)], first=5)
    assert rec.failures == []
    harness._record(rec, [harness.Check("mixed", [True, False], lambda t: (
        f"in{t}", f"l{t}", f"r{t}"))], first=5)
    assert rec.failures == [FailureRecord("mixed", 6, "in1", "l1", "r1")]


def test_record_refuses_checks_of_unequal_row_counts():
    rec = harness._Recorder("v", 2, 3, RandomSpec())
    short = harness.Check("short", [True], lambda t: ("", "", ""))
    long = harness.Check("long", [True, False], lambda t: ("", "", ""))
    with pytest.raises(ValueError, match="unequal row counts"):
        harness._record(rec, [short, long])
    assert rec.failures == []


def _untimed(report: SuiteReport) -> dict:
    """A report's dict without its wall time."""
    out = report.to_dict()
    del out["elapsed"]
    return out


def _counted_checks(monkeypatch) -> Counter:
    """Recorder calls per identity from here on."""
    calls = Counter()
    for name in ("equal", "less_equal", "true"):
        def counting(self, identity, *args, _original=getattr(harness._Recorder, name)):
            calls[identity] += 1
            return _original(self, identity, *args)

        monkeypatch.setattr(harness._Recorder, name, counting)
    return calls


# Recorder calls per identity of run_all(2, 3, RandomSpec(seed=42)): a
# parameter point, trial or check dropped from a sweep changes a count.
_SWEEP_AT_2_3 = {
    "adjointness[k=0]": 3, "adjointness[k=1]": 3, "adjointness[k=2]": 3,
    "bilinear-relation[p=0,q=0]": 3, "bilinear-relation[p=0,q=1]": 3,
    "bilinear-relation[p=0,q=2]": 3, "bilinear-relation[p=1,q=0]": 3,
    "bilinear-relation[p=1,q=1]": 3, "bilinear-relation[p=2,q=0]": 3,
    "binomial-bound[0,0]": 3, "binomial-bound[0,1]": 3, "binomial-bound[0,2]": 3,
    "binomial-bound[0,3]": 3, "binomial-bound[0,4]": 3, "binomial-bound[1,1]": 3,
    "binomial-bound[1,2]": 3, "binomial-bound[1,3]": 3, "binomial-bound[2,2]": 3,
    "commutator[k=0]": 3, "commutator[k=1]": 3, "commutator[k=2]": 3, "commutator[k=3]": 3,
    "commutator[k=4]": 3, "decomposition-parts-primitive[k=0]": 3,
    "decomposition-parts-primitive[k=1]": 3, "decomposition-parts-primitive[k=2]": 3,
    "decomposition-parts-primitive[k=3]": 3, "decomposition-parts-primitive[k=4]": 3,
    "decomposition-round-trip[k=0]": 3, "decomposition-round-trip[k=1]": 3,
    "decomposition-round-trip[k=2]": 3, "decomposition-round-trip[k=3]": 3,
    "decomposition-round-trip[k=4]": 3, "double-star[k=0]": 3, "double-star[k=1]": 3,
    "double-star[k=2]": 3, "double-star[k=3]": 3, "double-star[k=4]": 3,
    "dual-lefschetz-star-route[k=2]": 1, "dual-lefschetz-star-route[k=3]": 1,
    "dual-lefschetz-star-route[k=4]": 1, "hard-lefschetz-bijective[k=0]": 1,
    "hard-lefschetz-bijective[k=1]": 1, "hard-lefschetz-bijective[k=2]": 1,
    "hard-lefschetz-primitive-injective[k=0]": 1,
    "hard-lefschetz-primitive-injective[k=1]": 1,
    "hard-lefschetz-primitive-injective[k=2]": 1, "norm-expansion[k=0]": 3,
    "norm-expansion[k=1]": 3, "polarization-expansion[p=0,q=0]": 3,
    "polarization-expansion[p=0,q=1]": 3, "power-scaling[k=0,j=0]": 3,
    "power-scaling[k=0,j=1]": 3, "power-scaling[k=0,j=2]": 3, "power-scaling[k=1,j=0]": 3,
    "power-scaling[k=1,j=1]": 3, "power-scaling[k=2,j=0]": 3,
    "power-vanishing[k=0,j=2]": 3, "power-vanishing[k=1,j=1]": 3,
    "power-vanishing[k=2,j=0]": 3, "primitive-bidegree-dimension[p=0,q=0]": 1,
    "primitive-bidegree-dimension[p=0,q=1]": 1, "primitive-bidegree-dimension[p=0,q=2]": 1,
    "primitive-bidegree-dimension[p=1,q=0]": 1, "primitive-bidegree-dimension[p=1,q=1]": 1,
    "primitive-bidegree-dimension[p=1,q=2]": 1, "primitive-bidegree-dimension[p=2,q=0]": 1,
    "primitive-bidegree-dimension[p=2,q=1]": 1, "primitive-bidegree-dimension[p=2,q=2]": 1,
    "primitive-dimension-formula[k=0]": 1, "primitive-dimension-formula[k=1]": 1,
    "primitive-dimension-formula[k=2]": 1, "primitive-dimension[k=0]": 1,
    "primitive-dimension[k=1]": 1, "primitive-dimension[k=2]": 1,
    "primitive-dimension[k=3]": 1, "primitive-dimension[k=4]": 1,
    "primitive-kernel-dimension[k=0]": 1, "primitive-kernel-dimension[k=1]": 1,
    "primitive-kernel-dimension[k=2]": 1, "primitive-kernel-member[k=0]": 1,
    "primitive-kernel-member[k=1]": 4, "primitive-kernel-member[k=2]": 5,
    "simple-bound[0,0]": 3, "simple-bound[0,1]": 3, "simple-bound[0,2]": 3,
    "simple-bound[0,3]": 3, "simple-bound[0,4]": 3, "simple-bound[1,1]": 3,
    "simple-bound[1,2]": 3, "simple-bound[1,3]": 3, "simple-bound[2,2]": 3,
    "star-of-power[k=0,r=0]": 1, "star-of-power[k=0,r=1]": 1, "star-of-power[k=0,r=2]": 1,
    "star-of-power[k=1,r=0]": 4, "star-of-power[k=1,r=1]": 4, "star-of-power[k=2,r=0]": 5,
    "subtop-power-expansion[k=0]": 3, "subtop-power-expansion[k=1]": 3,
    "subtop-power-lower[p=0,q=0]": 3, "subtop-power-lower[p=0,q=1]": 3,
    "subtop-power-upper[p=0,q=0]": 3, "subtop-power-upper[p=0,q=1]": 3,
    "top-power-expansion[k=0]": 3, "top-power-expansion[k=1]": 3,
    "top-power-lower[p=0,q=0]": 3, "top-power-lower[p=0,q=1]": 3,
    "top-power-upper[p=0,q=0]": 3, "top-power-upper[p=0,q=1]": 3,
}


def test_every_suite_sweeps_every_parameter_point(monkeypatch):
    calls = _counted_checks(monkeypatch)
    assert all(r.passed for r in run_all(2, 3, RandomSpec(seed=42)))
    assert dict(calls) == _SWEEP_AT_2_3
    # the sweep calls each check by its module name, so a patched one runs
    seen = []

    def federer(n, degrees, trials, rspec):
        seen.append((n, degrees, trials))
        return original(n, degrees, trials, rspec)

    original = harness.check_federer
    monkeypatch.setattr(harness, "check_federer", federer)
    assert run_suite("federer", 2, 3, RandomSpec(seed=42)).passed
    assert seen == [(2, None, 3)]


def test_a_suite_builds_one_stream_per_parameter_point(monkeypatch):
    # 5 trials in blocks of 2: each point's trial-0 stream feeds 3 draws
    streams, draws = Counter(), Counter()
    generator, draw = RandomSpec.generator, harness._draw_degree

    def counted(self, suite, n, trial, *point):
        streams[suite, trial] += 1
        return generator(self, suite, n, trial, *point)

    def counted_draw(*args):
        draws[args[1]] += 1
        return draw(*args)

    monkeypatch.setattr(RandomSpec, "generator", counted)
    monkeypatch.setattr(harness, "_draw_degree", counted_draw)
    monkeypatch.setattr(harness, "_TRIAL_BLOCK", 2)
    assert all(r.passed for r in run_all(2, 5, RandomSpec(seed=42)))
    points = {"prop31": 6, "lemma32": 2, "prop33": 2, "federer": 9, "lefschetz": 1,
              "star": 1, "hodge-riemann": 6, "sl2": 1}
    assert streams == {(suite, 0): count for suite, count in points.items()}
    assert draws == {2: 2 * sum(points.values()), 1: sum(points.values())}


def _bumped(op):
    """op, then +1 on column 0 of each row whose entry there is 1 mod 3:
    local to the row and dependent on its value, so a suite that mixes up
    the rows of its parameter points or blocks reports other failures."""
    def perturbed(*args):
        out = op(*args)
        if not out.num.shape[1]:
            return out
        num = out.num.copy()
        num[_parts(num)[0][:, 0] % 3 == 1, 0] += 1
        return Batch(out.n, out.k, num, out.den)
    return perturbed


def test_trial_blocks_keep_every_report_and_comparison(monkeypatch):
    calls = _counted_checks(monkeypatch)

    def off_at_the_end(a):
        out = original(a)
        num = out.num.copy()
        num[:, -1:] += 1
        return Batch(out.n, out.k, num, out.den)

    def run():
        calls.clear()
        reports = [_untimed(r) for r in run_all(2, 5, RandomSpec(seed=42))]
        with monkeypatch.context() as patched:
            patched.setattr(harness, "dual_lefschetz", off_at_the_end)
            failures = _untimed(check_sl2(2, 5, RandomSpec(seed=7)))
        with monkeypatch.context() as patched:
            for name in ("norm_sq", "inner", "lefschetz_power"):
                patched.setattr(harness, name, _bumped(getattr(harness, name)))
            perturbed = [_untimed(r) for r in run_all(3, 5, RandomSpec(seed=11))]
        return reports, dict(calls), failures, perturbed

    original = harness.dual_lefschetz
    whole = run()
    assert {r["suite"] for r in whole[3] if r["failures"]} >= {
        "federer", "prop31", "prop33", "hodge-riemann"}
    for block in (1, 2, 3, 1024):  # 3 splits the 5 trials 3 + 2
        monkeypatch.setattr(harness, "_TRIAL_BLOCK", block)
        assert run() == whole


def test_trial_zero_reads_what_a_one_trial_run_reads(monkeypatch):
    # trial t is row t of its point's stream, so under a row-local
    # perturbation the 1-trial failures are pinned, and are trial 0's of 5
    for name in ("norm_sq", "inner", "lefschetz_power"):
        monkeypatch.setattr(harness, name, _bumped(getattr(harness, name)))

    def failures(trials):
        return [(r.suite, f.to_dict()) for r in run_all(3, trials, RandomSpec(seed=11))
                for f in r.failures]

    one = failures(1)
    assert (len(one), hashlib.sha256(json.dumps(one).encode()).hexdigest()) == (
        21, "ce905ff34138380dca26c4d3023ba74e9cef742d1be5992c0a6fbaa6b387c360")
    assert [f for f in failures(5) if f[1]["trial"] == 0] == one


# Each suite's public entry point, called as run_suite calls it.
_ENTRY_POINTS = {
    "prop31": check_prop_31, "lemma32": check_lemma_32, "prop33": check_prop_33,
    "federer": lambda n, *run: check_federer(n, None, *run),
    "lefschetz": check_lefschetz_structure, "star": check_star_primitive,
    "hodge-riemann": check_hodge_riemann, "sl2": check_sl2,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_entry_point_runs_its_suites_whole_sweep(monkeypatch, n):
    """A suite called directly gives run_suite's report and makes the same
    comparisons, also when operators are perturbed and checks fail."""
    assert tuple(_ENTRY_POINTS) == SUITES
    calls = Counter()

    def counting(self, identity, *args, _original=harness._Recorder.equal):
        calls[identity] += 1
        return _original(self, identity, *args)

    monkeypatch.setattr(harness._Recorder, "equal", counting)
    for name in ("norm_sq", "inner", "lefschetz_power"):
        monkeypatch.setattr(harness, name, _bumped(getattr(harness, name)))
    failed = 0
    for suite, check in _ENTRY_POINTS.items():
        rspec = RandomSpec(seed=n)
        direct, direct_calls = _untimed(check(n, 2, rspec)), calls.copy()
        calls.clear()
        assert _untimed(run_suite(suite, n, 2, rspec)) == direct, suite
        assert calls == direct_calls and calls, suite
        calls.clear()
        failed += len(direct["failures"])
    assert failed


def test_star_route_compares_the_tables_and_renders_only_differing_entries(monkeypatch):
    # one entry of the dual Lefschetz table on degree 4 at n = 4 is off by one:
    # the star-route check reads that table, fails at k = 4 only, and renders
    # that (output, input) entry alone, on both sides; the per-bidegree kill
    # count reads the same binding, so one basis form of bidegree (1, 3) is
    # no longer killed
    def off_by_one_entry(n, k):
        table = original(n, k)
        if k != 4:
            return table
        coef = table.coef.copy()
        coef[5] += table.den
        return table._replace(coef=coef)

    original = harness._dual_lefschetz_table
    table = original(4, 4)
    out = int(_pair_outputs(table)[5])
    entry = (f"{monomial_basis(4, 2)[out].label()} <- "
             f"{monomial_basis(4, 4)[int(table.src[5])].label()}: ")
    (x,), (y,) = (part.tolist() for part in _parts(table.coef[5:6]))
    c = GaussRational._norm(x, y, table.den)
    monkeypatch.setattr(harness, "_dual_lefschetz_table", off_by_one_entry)
    report = check_lefschetz_structure(4, 1, RandomSpec(seed=42))
    failures = {failure.identity: failure for failure in report.failures}
    assert sorted(failures) == ["dual-lefschetz-star-route[k=4]",
                                "primitive-bidegree-dimension[p=1,q=3]"]
    failure = failures["dual-lefschetz-star-route[k=4]"]
    assert (failure.lhs, failure.rhs) == (entry + str(c + 1), entry + str(c))


# ---- the deterministic checks as table identities on the primitive basis ------


def _basis_batch(n, k):
    """The primitive basis of degree k as the rows of one dense batch, read
    from the basis table."""
    table = _primitive_table(n, k)
    num = np.zeros((_inputs(table), comb(2 * n, k)), dtype=table.coef.dtype)
    num[table.src, _pair_outputs(table)] = table.coef
    return Batch(n, k, num, 1)


def _off_by_one(table_of, at, entry=0):
    """table_of with one entry of its table at the arguments (k, *args) = at
    raised by one."""
    def perturbed(n, k, *args):
        table = table_of(n, k, *args)
        if (k, *args) != at:
            return table
        coef = table.coef.copy()
        coef[entry] += table.den
        return table._replace(coef=coef)
    return perturbed


def _differing_rows(lhs, rhs):
    return set(np.flatnonzero(~(lhs - rhs).is_zero()).tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_route_verdicts_match_the_batch_route(n):
    """star-of-power per basis index, against a genuine and a perturbed star;
    the basis indices that L^(n-k+1) and the dual Lefschetz operator do not
    kill, against a genuine and a perturbed table: the table route and the
    batch route rebuilt from the basis rows agree."""
    mu, nu = monomial_basis(n, n)[-1], monomial_basis(n, n)[0]

    def bent(a):  # the star plus mu -> nu, still linear
        return hodge_star(a) + Form.monomial(n, nu.s, nu.t, a.coefficient(mu))

    for star_fn in (hodge_star, bent):
        report = check_star_primitive(n, 1, RandomSpec(seed=3), star_fn=star_fn)
        got = {(f.identity, f.trial) for f in report.failures
               if f.identity.startswith("star-of-power")}
        want = set()
        for k in range(n + 1):
            basis = _basis_batch(n, k)
            for r in range(n - k + 1):
                powered = lefschetz_power(basis, r)
                lhs = Batch.of(n, 2 * n - k - 2 * r,
                               [star_fn(powered.form(t)) for t in range(basis.rows)])
                scale = GaussRational.i_power(k * (k + 1)) * Fraction(
                    factorial(r), factorial(n - k - r))
                rhs = lefschetz_power(weil_operator(basis), n - k - r) * scale
                want |= {(f"star-of-power[k={k},r={r}]", t) for t in _differing_rows(lhs, rhs)}
        assert got == want
        assert bool(got) == (star_fn is bent)
    missed = []  # the basis indices a perturbed table does not kill
    for k in range(n + 1):
        basis, j = _basis_batch(n, k), n - k + 1
        for table_of, args in ((harness._power_table, (j,)),
                               (kaehler._dual_lefschetz_table, ())):
            ops = [table_of]
            if table_of(n, k, *args).src.size:
                ops.append(_off_by_one(table_of, (k, *args)))
            for op in ops:
                image = harness._chain(n, k, (_primitive_table,), (op, *args))
                applied = op(n, k, *args)(basis)
                alive = set(np.flatnonzero(~applied.is_zero()).tolist())
                assert set(image.src.tolist()) == alive
                forms = [applied.form(t) for t in range(basis.rows)]
                assert _images(n, image, basis.rows) == forms
                if op is table_of:
                    assert not alive
                else:
                    missed.append(alive)
    assert any(missed) == (n > 1)  # at n = 1 both tables are empty


def test_a_perturbed_star_fails_exactly_the_basis_indices_it_reaches(monkeypatch):
    # one entry of the star on degree 3 at n = 3 is off by one: star-of-power
    # [k, r] with k + 2r = 3 fails at the basis forms whose L^r image has a
    # nonzero coefficient at that entry's input monomial, and renders the
    # perturbed image
    n, degree = 3, 3
    monkeypatch.setattr(harness, "_star_table", _off_by_one(harness._star_table, (degree,)))
    table = harness._star_table(n, degree)
    mu = monomial_basis(n, degree)[int(table.src[0])]
    want = {}
    for k in range(degree % 2, degree + 1, 2):
        r = (degree - k) // 2
        for t, b in enumerate(primitive_basis(n, k)):
            image = lefschetz_power(b, r)
            if image.coefficient(mu):
                want[f"star-of-power[k={k},r={r}]", t] = (b, image)
    report = check_star_primitive(n, 1, RandomSpec(seed=5))
    failed = [f for f in report.failures if f.identity.startswith("star-of-power")]
    assert {(f.identity, f.trial) for f in failed} == set(want) and want
    for f in failed:
        b, image = want[f.identity, f.trial]
        assert f.inputs == f"a = {b}"
        rows = Batch.of(n, degree, [image])
        assert f.lhs == str(table(rows).form(0))


def test_no_cache_keeps_a_table_built_while_an_operator_was_patched(monkeypatch):
    """The composed tables are cached per operator: a patched star, L^j or
    dual Lefschetz table gets entries of its own, and once the patch is gone
    the suites read the genuine tables again."""
    n, rspec = 3, RandomSpec(seed=11)

    def reports():
        return [_untimed(check(n, 1, rspec))
                for check in (check_lefschetz_structure, check_star_primitive)]

    def genuine():
        return [harness._chain(n, k, (_primitive_table,), (harness._power_table, r),
                               (harness._star_table,))
                for k in range(n + 1) for r in range(n - k + 1)]

    clean, before = reports(), genuine()
    assert all(report["pass"] for report in clean)
    with monkeypatch.context() as patched:
        for name, at in (("_star_table", (3,)), ("_dual_lefschetz_table", (4,)),
                         ("_power_table", (1, 1))):
            patched.setattr(harness, name, _off_by_one(getattr(harness, name), at))
        assert not any(report["pass"] for report in reports())
    assert reports() == clean
    assert all(a is b for a, b in zip(genuine(), before))


# ---- the hard-Lefschetz certificates fail under their perturbations -----------


def _failed(n):
    return {f.identity: f for f in check_lefschetz_structure(n, 1, RandomSpec(seed=42)).failures}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_an_off_by_one_top_power_fails_the_bijectivity_certificate(monkeypatch, k):
    # one entry of L^(n-k) on degree k is off by one: X_k o L^(n-k) is no
    # longer the identity at that k alone
    n = 3
    monkeypatch.setattr(harness, "_power_table", _off_by_one(harness._power_table, (k, n - k)))
    failures = _failed(n)
    bijective = f"hard-lefschetz-bijective[k={k}]"
    assert [name for name in failures if name.startswith("hard-lefschetz-bijective")] == [
        bijective]
    assert (failures[bijective].lhs, failures[bijective].rhs) == (
        "fails: X_k o L^(n-k) = id", "holds: X_k o L^(n-k) = id")


def _reshaped_basis(at, move):
    """_primitive_table with the pairs of its table at degree at rewritten:
    move maps (inputs, count) to the new inputs, or to -1 for a dropped pair."""
    def perturbed(n, k):
        table = original(n, k)
        if k != at:
            return table
        src = move(table.src, _inputs(table))
        keep = src >= 0
        return _table(table.k, table.size, _pair_outputs(table)[keep], src[keep],
                      table.coef[keep], table.den, table.k_in)
    original = harness._primitive_table
    return perturbed


@pytest.mark.parametrize("how, k", [
    *(("empty", k) for k in range(4)),
    *(("merge", k) for k in range(1, 4)),  # k = 0 has one column
])
def test_an_emptied_or_merged_basis_column_fails_the_primitive_certificates(
        monkeypatch, how, k):
    # the basis loses a column, its last one emptied or its first merged into
    # the second, so it no longer has C(2n,k) - C(2n,k-2) independent columns;
    # X_k o L^(n-k) is untouched
    n = 3
    if how == "empty":
        def move(src, count):
            return np.where(src == count - 1, -1, src)
    else:
        def move(src, count):
            return np.where(src == 0, 1, src)
    monkeypatch.setattr(harness, "_primitive_table", _reshaped_basis(k, move))
    failures = _failed(n)
    assert {f"hard-lefschetz-primitive-injective[k={k}]",
            f"primitive-kernel-dimension[k={k}]"} <= set(failures)
    assert not any(name.startswith("hard-lefschetz-bijective") for name in failures)


@pytest.mark.parametrize("k", [2, 3])
def test_a_vanishing_power_fails_the_kernel_dimension_certificate(monkeypatch, k):
    # L^(n-k+1) on degree k replaced by zero still kills the basis, whose
    # columns stay independent; only X_(k-2) o L^(n-k+1) o L = id, the bound
    # of the kernel from above, sees that the whole degree is now its kernel
    n = 3

    def vanishing(n, degree, j):
        table = original(n, degree, j)
        if (degree, j) != (k, n - k + 1):
            return table
        return _table(table.k, table.size, [], [], np.zeros(0, np.complex128), 1, table.k_in)
    original = harness._power_table
    monkeypatch.setattr(harness, "_power_table", vanishing)
    failure = _failed(n)[f"primitive-kernel-dimension[k={k}]"]
    assert failure.lhs == "fails: X_(k-2) o L^(n-k+1) o L = id"


def test_a_patched_dual_lefschetz_leaves_no_left_inverse_behind(monkeypatch, fresh_caches):
    # the left inverses are built while the dual Lefschetz table the suite
    # reads is patched; X_k is built in closed form and reads no Lambda
    # table, so the certificates hold then and the suite passes once the
    # patch is gone
    n = 4
    with monkeypatch.context() as patched:
        patched.setattr(harness, "_dual_lefschetz_table",
                        _off_by_one(harness._dual_lefschetz_table, (4,)))
        assert set(_failed(n)) == {"dual-lefschetz-star-route[k=4]",
                                   "primitive-bidegree-dimension[p=1,q=3]"}
    assert _failed(n) == {}


def test_verify_suites_up_to_n5_never_leave_int64(monkeypatch):
    """With the default coefficient bound, no batch of any suite at n <= 5
    takes the object path: every batch holds machine integers, and every
    bound it carries stays below 2^63.  Values pass 2^53 only in federer at
    n = 5: the real norms |a ^ s|^2 and |a|^2 |s|^2 for simple forms s of
    high degree, and their products and differences, held in int64."""
    init, tiers = Batch.__init__, {}

    def machine_only(self, n, k, num, den, bound=None):
        assert num.dtype != object, f"object path at n={n} under bound {bound}"
        assert bound is None or bound < 2 ** 63
        tiers.setdefault(num.dtype, set()).add(suite)
        init(self, n, k, num, den, bound)

    monkeypatch.setattr(Batch, "__init__", machine_only)
    for n in range(1, 6):
        for suite in SUITES:
            assert run_suite(suite, n, 2, RandomSpec(seed=17)).passed
    assert tiers[np.dtype(np.complex128)] == set(SUITES)
    assert tiers[np.dtype(np.int64)] == {"federer"}


def test_federer_wedge_pair_estimate_counts_its_tables():
    from kahlerlab.exterior import _wedge_table

    for n in range(1, 4):
        assert harness._wedge_pairs(n) == sum(
            _wedge_table(n, da, db)[1].size
            for da in range(2 * n + 1) for db in range(da, 2 * n + 1 - da))
    assert harness._wedge_pairs(8) == 24_121_674


def test_runs_beyond_the_memory_budget_are_refused_up_front(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(harness, "_Recorder", unreachable)
    for run in (lambda: run_all(10, 1, RandomSpec()),
                lambda: run_suite("federer", 10, 1, RandomSpec())):
        with pytest.raises(ValueError, match=r"1,932,081,885 wedge pairs, about 30\.6 GiB at 17 bytes each"):
            run()
    harness._refuse_infeasible(SUITES, 9)  # 216 M pairs, 3.4 GiB: within the budget
