"""Tests of the benchmark itself: output checks, vacuity control, digest, tracer.

    python3 -m pytest -q perfbench
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
import workloads

run.import_package()

from kahlerlab import harness, kaehler  # noqa: E402
from kahlerlab.exterior import Form, GaussRational, Monomial  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _run(monkeypatch, capsys, workload="verify-n4"):
    """A short run without the set-up repeats in fresh interpreters."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", (1, 1))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads(
        (run.OUT / f"record-{workload}-seed3-trace0.json").read_text()
    )
    return code, result, record["problems"]


def test_clean_run_is_correct(monkeypatch, capsys):
    code, result, problems = _run(monkeypatch, capsys)
    assert (code, result["correct"], result["failed"], problems) == (0, True, 0, [])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_vacuity_control_fails_a_run_whose_checks_are_vacuous(monkeypatch, capsys):
    # Every suite still reports pass, so only the control can notice.
    monkeypatch.setattr(harness._Recorder, "equal", lambda self, *args: None)
    code, result, problems = _run(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False and result["failed"] == 0
    assert any(p.startswith("vacuity control") for p in problems)


def test_digest_fails_a_run_whose_exact_outputs_changed(monkeypatch, capsys):
    # Another random stream: every suite passes, but the exact outputs move.
    original = harness.RandomSpec.generator

    def shifted(self, suite, n, trial, *extra):
        return original(self, suite, n, trial + 1, *extra)

    monkeypatch.setattr(harness.RandomSpec, "generator", shifted)
    code, result, problems = _run(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False and result["failed"] == 0
    assert any(p.startswith("exact-output digest") for p in problems)


def test_digest_fails_a_run_whose_suite_checks_less(monkeypatch, capsys):
    # federer runs one trial fewer but its report still says five: every
    # report reads the same, only the count of comparisons drops.
    original = harness.check_federer

    def fewer(n, k, trials, rspec):
        return original(n, k, trials - 1, rspec)

    monkeypatch.setattr(harness, "check_federer", fewer)
    code, result, problems = _run(monkeypatch, capsys)
    assert code == 1 and result["correct"] is False and result["failed"] == 0
    assert any(p.startswith("exact-output digest") for p in problems)


def test_vacuity_control_counts_every_flipped_star_check():
    assert workloads.vacuity_failures() == workloads.VACUITY_FAILURES


def test_closed_forms_match_acceptance_fixtures():
    assert workloads.closed_c_k(3, 1) == Fraction(4, 81)
    assert workloads.closed_c_k(2, 0) == Fraction(1, 4)
    assert workloads.closed_c_k(3, 5) == workloads.closed_c_k(3, 1)
    assert workloads.closed_degree_constant(3, 3) == Fraction(1, 4)
    assert workloads._factor_closed_form("IV", 5) == (5, Fraction(5, 4))


@pytest.mark.parametrize("workload", ["spectrum", "tables"])
def test_checks_reject_perturbed_outputs(workload):
    ops = workloads.WORKLOADS[workload].ops(5, warmup=True)
    for argv in ops[:3] + ops[-2:]:
        _, code, out = run.call(argv)
        assert workloads.check(argv, code, out) is None
        payload = json.loads(out)
        if argv[0] == "spectrum":
            payload["samples"][0]["residual"] = 1e-9
        else:
            payload[-1]["constant" if argv[0] == "constants" else "bound"] = "1/3"
        assert workloads.check(argv, code, json.dumps(payload)) is not None
        assert workloads.check(argv, 2, out) == "exit code 2"


def test_verify_check_rejects_failed_and_missing_suites():
    argv = workloads.WORKLOADS["verify-n4"].ops(5)[5]
    _, code, out = run.call(argv)
    assert workloads.check(argv, code, out) is None
    report = json.loads(out)
    assert workloads.check(argv, code, "[]") is not None
    report[0]["pass"] = False
    assert workloads.check(argv, code, json.dumps(report)) is not None


def test_tracer_covers_every_namespace_and_computes_self_time():
    tracer = tracing.Tracer()
    originals = (harness.norm_sq, kaehler.inner, Form.wedge)
    tracer.install()
    try:
        assert harness.norm_sq is not originals[0]
        assert kaehler.inner is not originals[1]
        a = Form(2, {Monomial((1,), ()): GaussRational(1, 2)})
        kaehler.lefschetz_L(a)
        harness.norm_sq(a)
    finally:
        tracer.uninstall()
    assert (harness.norm_sq, kaehler.inner, Form.wedge) == originals
    spans, counts, _ = tracer.take()
    by_name = {name: (sid, parent, end - start) for sid, parent, name, start, end in spans}
    lefschetz_id, _, lefschetz_dur = by_name["kaehler.lefschetz_L"]
    children = sum(end - start for _, parent, _, start, end in spans if parent == lefschetz_id)
    assert by_name["exterior.wedge"][1] == lefschetz_id
    assert by_name["exterior.norm_sq"][1] == 0
    assert counts["exterior.wedge.term_pairs"] == 2  # omega has two terms at n = 2
    _, _, own = tracing.summarize(spans)
    assert own["kaehler.lefschetz_L"] == pytest.approx(lefschetz_dur - children)


def test_per_layer_metrics_match_benchmark_json():
    passes = [tracing.pass_metrics([], Counter(), {})]
    emitted = tracing.layer_metrics(passes, [], 0.0, Counter(), 0.0)
    assert [(key, tracing.unit_of(key)) for key in emitted] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
