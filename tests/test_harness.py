"""Randomized verification harness: determinism, sensitivity, preconditions.

The harness is only trustworthy if a wrong operator actually trips it, so a
deliberately flipped star is injected and the resulting failure records are
inspected end to end.
"""

import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from kahlerlab.exterior import (
    Batch, Form, GaussRational, _images, _pair_outputs, _table, bidegree_basis,
    monomial_basis, norm_sq,
)
from kahlerlab import harness, kaehler
from kahlerlab.harness import (
    SUITES,
    _draw_bidegree,
    _draw_degree,
    _draw_simple,
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
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)
    assert first.elapsed >= 0.0
    payload = json.loads(first.to_json(include_timing=False))
    assert payload == {
        "suite": "sl2",
        "n": 2,
        "trials": 5,
        "seed": 42,
        "failures": [],
        "pass": True,
    }
    timed = json.loads(first.to_json())
    assert "elapsed" in timed


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


def test_scaled_star_perturbation_also_caught():
    def scaled(a: Form) -> Form:
        return hodge_star(a) * GaussRational(2)

    report = check_star_primitive(1, 3, RandomSpec(seed=1), star_fn=scaled)
    assert not report.passed


def test_precondition_errors():
    rspec = RandomSpec(seed=42)
    with pytest.raises(ValueError):
        check_prop_31(2, 3, 0, 1, rspec)
    with pytest.raises(ValueError):
        check_prop_31(2, 1, 2, 1, rspec)
    with pytest.raises(ValueError):
        check_lemma_32(2, 2, 1, rspec)
    with pytest.raises(ValueError):
        check_prop_33(3, 2, 1, 1, rspec)
    with pytest.raises(ValueError):
        check_prop_33(3, 1, 2, 1, rspec)
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
        check_prop_31(0, 0, 0, 1, rspec)


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
    assert report.to_dict(include_timing=False)["pass"] is False


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


@pytest.mark.parametrize("bound", [1, 3, 7])
def test_batched_draws_match_per_coefficient_draws(bound):
    # one stream per row: row t of a batched draw is what stream t alone gives
    seeds = (0, 7, 42, 2 ** 40 + 3)

    def streams():
        return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]

    def rows(batch):
        return [batch.form(t) for t in range(len(seeds))]

    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            fast, slow = streams(), streams()
            assert rows(_draw_degree(fast, n, k, bound)) == [
                _reference_draw(rng, n, monomial_basis(n, k), bound) for rng in slow]
            assert rows(_draw_simple(fast, n, k, bound)) == [
                _reference_simple(rng, n, k, bound) for rng in slow]
            assert [rng.integers(0, 2 ** 62) for rng in fast] == [
                rng.integers(0, 2 ** 62) for rng in slow]
        for p in range(n + 1):
            for q in range(n + 1):
                fast, slow = streams(), streams()
                assert rows(_draw_bidegree(fast, n, p, q, bound)) == [
                    _reference_draw(rng, n, bidegree_basis(n, p, q), bound) for rng in slow]
                assert [rng.integers(0, 2 ** 62) for rng in fast] == [
                    rng.integers(0, 2 ** 62) for rng in slow]


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
    failed = [f.identity for f in report.failures
              if f.identity.startswith("primitive-dimension-formula")]
    assert failed == [f"primitive-dimension-formula[k={k}]" for k in (2, 3)]


def test_batched_checks_compare_every_column(monkeypatch):
    # a dual Lefschetz operator off by one in the last column of its image:
    # the batched suite must see it on every degree and every trial, not
    # only through an injected Form -> Form operator
    def off_at_the_end(a):
        out = original(a)
        re = out.re.copy()
        re[:, -1:] += 1
        return Batch(out.n, out.k, re, out.im, out.den)

    original = harness.dual_lefschetz
    monkeypatch.setattr(harness, "dual_lefschetz", off_at_the_end)
    report = check_sl2(2, 3, RandomSpec(seed=42))
    failed = sorted((f.identity, f.trial) for f in report.failures)
    assert failed == [(f"commutator[k={k}]", t) for k in range(5) for t in range(3)]


def test_batched_comparisons_are_exact():
    n = 2
    zeros = np.zeros((3, 1), dtype=np.int64)
    # 2/3 <= 4/6, 7/3 <= 13/6 and 2^61/3 <= 2^62/6: only the second fails,
    # and over the common denominator 6 the third difference leaves int64
    lhs = Batch(n, 0, np.array([[2], [7], [2 ** 61]]), zeros, 3)
    rhs = Batch(n, 0, np.array([[4], [13], [2 ** 62]]), zeros, 6)
    assert (rhs - lhs).re.dtype == object
    rec = harness._Recorder("x", n, 3, RandomSpec())
    harness._record(rec, 3, [harness._less_equal("x", "n=2", lhs, rhs)])
    assert [(f.trial, f.lhs, f.rhs) for f in rec.failures] == [(1, "7/3", "13/6")]
    # the same forms written over another denominator, but row 1 differs in
    # one imaginary part of its last column
    a = Batch.of(n, 2, [random_form(n, 1, 1, RandomSpec(seed=s)) for s in range(3)])
    im = a.im * 5
    im[1, -1] += 1
    b = Batch(n, 2, a.re * 5, im, a.den * 5)
    rec = harness._Recorder("y", n, 3, RandomSpec())
    harness._record(rec, 3, [harness._equal("y", {"a": a}, a, b)])
    assert [f.trial for f in rec.failures] == [1]
    assert rec.failures[0].inputs == f"a = {a.form(1)}"
    assert rec.failures[0].rhs == str(b.form(1))
    # 2^61/3 = 2^62/6, 2^61/3 != (2^61 + 2)/3 and 5/3 = 10/6: over the
    # common denominator 6 the difference leaves int64, so the rows compare
    # as Python ints
    lhs = Batch(n, 0, np.array([[2 ** 61], [2 ** 61], [5]]), zeros, 3)
    rhs = Batch(n, 0, np.array([[2 ** 62], [2 ** 62 + 4], [10]]), zeros, 6)
    assert (lhs - rhs).re.dtype == object
    rec = harness._Recorder("z", n, 3, RandomSpec())
    harness._record(rec, 3, [harness._equal("z", "n=2", lhs, rhs, scalar=True)])
    assert [(f.trial, f.lhs, f.rhs) for f in rec.failures] == [
        (1, f"{2 ** 61}/3", f"{2 ** 61 + 2}/3")]


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


def test_trial_blocks_keep_every_report_and_comparison(monkeypatch):
    calls = _counted_checks(monkeypatch)

    def off_at_the_end(a):
        out = original(a)
        re = out.re.copy()
        re[:, -1:] += 1
        return Batch(out.n, out.k, re, out.im, out.den)

    def run():
        calls.clear()
        reports = [r.to_dict(include_timing=False) for r in run_all(2, 5, RandomSpec(seed=42))]
        with monkeypatch.context() as patched:
            patched.setattr(harness, "dual_lefschetz", off_at_the_end)
            failures = check_sl2(2, 5, RandomSpec(seed=7)).to_dict(include_timing=False)
        return reports, dict(calls), failures

    original = harness.dual_lefschetz
    whole = run()
    monkeypatch.setattr(harness, "_TRIAL_BLOCK", 2)
    assert run() == whole


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
        re = table.re.copy()
        re[5] += table.den
        return table._replace(re=re)

    original = harness._dual_lefschetz_table
    table = original(4, 4)
    out = int(_pair_outputs(table)[5])
    entry = (f"{monomial_basis(4, 2)[out].label()} <- "
             f"{monomial_basis(4, 4)[int(table.src[5])].label()}: ")
    c = GaussRational._norm(int(table.re[5]), int(table.im[5]), table.den)
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
    re = np.zeros((_inputs(table), comb(2 * n, k)), dtype=np.int64)
    re[table.src, _pair_outputs(table)] = table.re
    return Batch(n, k, re, np.zeros_like(re), 1)


def _off_by_one(table_of, at, entry=0):
    """table_of with one entry of its table at the arguments (k, *args) = at
    raised by one."""
    def perturbed(n, k, *args):
        table = table_of(n, k, *args)
        if (k, *args) != at:
            return table
        re = table.re.copy()
        re[entry] += table.den
        return table._replace(re=re)
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
        return [check(n, 1, rspec).to_dict(include_timing=False)
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
                              table.re[keep], table.im[keep], table.den)
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
        return _table(table.k, table.size, [], [], [], [], 1)
    original = harness._power_table
    monkeypatch.setattr(harness, "_power_table", vanishing)
    failure = _failed(n)[f"primitive-kernel-dimension[k={k}]"]
    assert failure.lhs == "fails: X_(k-2) o L^(n-k+1) o L = id"


def test_a_patched_dual_lefschetz_leaves_no_left_inverse_behind(monkeypatch):
    # the left inverses are built while the dual Lefschetz table the suite
    # reads is patched; they come from kaehler's own tables, so the
    # certificates hold then and the suite passes once the patch is gone
    n = 4
    kaehler._left_inverse_table.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(harness, "_dual_lefschetz_table",
                        _off_by_one(harness._dual_lefschetz_table, (4,)))
        assert set(_failed(n)) == {"dual-lefschetz-star-route[k=4]",
                                   "primitive-bidegree-dimension[p=1,q=3]"}
    assert _failed(n) == {}
