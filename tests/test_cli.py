"""Command line interface: output formats, pinned values, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kahlerlab
from kahlerlab.cli import build_parser, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_expect_usage_error(capsys, argv):
    """Usage problems exit with status 2, via argparse or the error handler."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    return err


def test_constants_pinned_degree_value(capsys):
    code, out, _ = _run(capsys, ["constants", "--dim", "3", "--k", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["constant"] == "4/81"
    assert rows[0]["label"] == "degree"
    assert float(rows[0]["approx"]) == pytest.approx(4.0 / 81.0)


def test_constants_full_table_and_middle_label(capsys):
    code, out, _ = _run(capsys, ["constants", "--dim", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["k"] for row in rows] == ["0", "1", "2", "3", "4"]
    assert rows[2]["label"] == "middle degree, adjacent-degree substitute"
    assert all(row["constant"] == "1/4" for row in rows)


def test_constants_bidegree_and_eta(capsys):
    code, out, _ = _run(
        capsys,
        ["constants", "--dim", "3", "--p", "1", "--q", "0", "--eta-sq", "2",
         "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["constant"] == "4/81"
    assert rows[0]["spectral_bound"] == "2/81"


def test_constants_middle_bidegree_row(capsys):
    code, out, _ = _run(capsys, ["constants", "--dim", "2", "--p", "1", "--q", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["constant"] == "1/4"
    assert "middle" in rows[0]["label"]


def test_constants_markdown_format(capsys):
    code, out, _ = _run(capsys, ["constants", "--dim", "2", "--format", "md"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| n") and lines[1].startswith("| -")
    assert any("1/4" in line for line in lines[2:])


def test_constants_usage_errors(capsys):
    err = _run_expect_usage_error(
        capsys, ["constants", "--dim", "2", "--k", "1", "--p", "1", "--q", "0"]
    )
    assert "either" in err or "not both" in err
    _run_expect_usage_error(capsys, ["constants", "--dim", "2", "--p", "1"])
    _run_expect_usage_error(capsys, ["constants"])
    _run_expect_usage_error(capsys, ["constants", "--dim", "2", "--format", "xml"])
    err = _run_expect_usage_error(capsys, ["constants", "--dim", "2", "--p", "3", "--q", "-1"])
    assert "(3,-1)" in err


@pytest.mark.parametrize("eta_sq", ["0", "-2"])
def test_constants_refuses_a_nonpositive_eta_sq(capsys, eta_sq):
    code, out, err = _run(capsys, ["constants", "--dim", "3", "--eta-sq", eta_sq])
    assert (code, out) == (2, "")
    assert err == "error: squared potential norm must be positive\n"


def test_constants_json_is_one_compact_document(capsys):
    code, out, _ = _run(capsys, ["constants", "--dim", "1", "--format", "json"])
    assert code == 0
    assert out == (
        '[{"n": 1, "k": 0, "p": "", "q": "", "label": "degree", '
        '"constant": "1/4", "approx": "0.25"}, '
        '{"n": 1, "k": 1, "p": "", "q": "", '
        '"label": "middle degree, adjacent-degree substitute", '
        '"constant": "1/4", "approx": "0.25"}, '
        '{"n": 1, "k": 2, "p": "", "q": "", "label": "degree", '
        '"constant": "1/4", "approx": "0.25"}]\n'
    )


def test_bsd_pinned_type_iv_value(capsys):
    code, out, _ = _run(capsys, ["bsd", "--family", "IV", "--m", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["domain"] == "IV(5)"
    assert rows[0]["lambda0_bound"] == "5/4"
    assert rows[0]["length_sq"] == "10"
    assert rows[0]["eta_min_sq"] == "5"


def test_bsd_exceptional_families(capsys):
    code, out, _ = _run(capsys, ["bsd", "--family", "V", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["lambda0_bound"] == "16/3"
    code, out, _ = _run(capsys, ["bsd", "--family", "VI", "--format", "json"])
    assert json.loads(out)[0]["lambda0_bound"] == "27/4"


def test_bsd_product_and_ricci(capsys):
    code, out, _ = _run(
        capsys, ["bsd", "--product", "I(1,2)xIV(3)", "--ricci", "2"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["domain"] == "I(1,2) x IV(3)"
    assert rows[0]["dim"] == "5"
    assert rows[0]["length_sq"] == "9"
    assert rows[0]["lambda0_bound"] == "25/9"


def test_bsd_default_sweep_contains_all_families(capsys):
    code, out, _ = _run(capsys, ["bsd"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    domains = {row["domain"] for row in rows}
    assert {"I(1,1)", "II(2)", "III(1)", "IV(3)", "V", "VI"} <= domains


def test_bsd_degree_table(capsys):
    code, out, _ = _run(
        capsys, ["bsd", "--family", "I", "--p", "2", "--q", "3", "--degrees"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["route"] == "function route (sharper)"
    assert rows[0]["bound"] == "9/5"
    assert rows[1]["bound"] == "1/20"
    assert any(row["route"] == "middle degree substitute" for row in rows)


def test_bsd_usage_errors(capsys):
    _run_expect_usage_error(capsys, ["bsd", "--family", "I", "--m", "3"])
    _run_expect_usage_error(capsys, ["bsd", "--family", "IV"])
    _run_expect_usage_error(capsys, ["bsd", "--family", "IV", "--m", "2"])
    _run_expect_usage_error(capsys, ["bsd", "--product", "bogus"])
    _run_expect_usage_error(capsys, ["bsd", "--degrees"])
    _run_expect_usage_error(
        capsys, ["bsd", "--family", "IV", "--m", "5", "--product", "V"]
    )
    _run_expect_usage_error(capsys, ["bsd", "--family", "IV", "--m", "5", "--ricci", "0"])


@pytest.mark.parametrize("flags", [
    ["--family", "I", "--p", "2"],
    ["--family", "I", "--q", "3"],
    ["--family", "I", "--p", "2", "--q", "3", "--m", "4"],
    ["--family", "II"],
    ["--family", "II", "--m", "4", "--p", "1"],
    ["--family", "III"],
    ["--family", "III", "--m", "3", "--q", "1"],
    ["--family", "IV"],
    ["--family", "IV", "--m", "5", "--p", "2"],
    ["--family", "V", "--m", "3"],
    ["--family", "VI", "--p", "1"],
])
def test_bsd_family_with_a_missing_or_an_extra_flag(capsys, flags):
    err = _run_expect_usage_error(capsys, ["bsd", *flags])
    assert err.startswith(f"error: family {flags[1]} takes ")


def test_verify_small_run_json(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--dim", "1", "--trials", "3", "--suite", "sl2",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["suite"] == "sl2"
    assert payload[0]["pass"] is True
    assert payload[0]["failures"] == []


def test_verify_all_suites_text(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--dim", "1", "--trials", "2", "--format", "text"]
    )
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 8
    assert all(" pass " in line or line.endswith("]") for line in lines)
    assert "sl2" in out and "hodge-riemann" in out


def test_verify_usage_errors(capsys):
    _run_expect_usage_error(capsys, ["verify", "--suite", "bogus"])
    _run_expect_usage_error(capsys, ["verify", "--dim", "0"])
    _run_expect_usage_error(capsys, ["verify", "--trials", "0"])
    _run_expect_usage_error(capsys, ["verify", "--seed", "-2"])
    err = _run_expect_usage_error(capsys, ["verify", "--dim", "10"])
    assert "1,932,081,885 wedge pairs" in err and "GiB" in err
    err = _run_expect_usage_error(
        capsys, ["verify", "--dim", "2", "--coeff-bound", str(2 ** 63)])
    assert "coefficient bound" in err and str(2 ** 63 - 1) in err


def test_spectrum_single_radius_json(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--model", "ch", "--n", "1", "--radius", "8",
         "--grid", "400", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == {"kind": "complex_hyperbolic", "n": 1}
    assert payload["grid"] == 400
    assert len(payload["samples"]) == 1
    sample = payload["samples"][0]
    assert sample["R"] == 8.0
    assert 0.5 < sample["scaled_lambda"] < 0.7
    assert payload["extrapolated_scaled"] is None
    # the certificate of the returned value
    assert sample["bracket_lo"] <= sample["lambda_min"] <= sample["bracket_hi"]
    assert sample["bracket_hi"] - sample["bracket_lo"] <= 2e-10
    assert sample["sturm_counts"] == 1
    assert "refined" not in sample  # retired: lambda_min is always polished
    # a single sample is not extrapolated; the run-level key says so
    assert "extrapolated" not in sample


def test_spectrum_multi_radius_extrapolates(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--model", "rh", "--m", "2", "--radii", "8,12,16",
         "--grid", "400", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 3
    assert payload["extrapolated_scaled"] == pytest.approx(0.25, abs=0.02)
    assert all("extrapolated" not in sample for sample in payload["samples"])


def test_spectrum_text_output(capsys):
    argv = ["spectrum", "--model", "ch", "--n", "1", "--radii", "8,12", "--grid", "400"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.startswith("R=8")
    assert "scaled=" in out and "residual=" in out
    # each sample's line carries its certificate, exactly as the JSON does
    code, payload, _ = _run(capsys, argv + ["--format", "json"])
    samples = json.loads(payload)["samples"]
    lines = out.splitlines()[:2]
    for line, sample in zip(lines, samples):
        lo, hi = sample["bracket_lo"], sample["bracket_hi"]
        assert line.endswith(f"bracket=[{lo!r}, {hi!r}]")


def test_spectrum_curvature_scale(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--model", "rh", "--m", "3", "--curvature", "2.0",
         "--radius", "10", "--grid", "300", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    sample = payload["samples"][0]
    assert sample["scaled_lambda"] == pytest.approx(2.0 * sample["lambda_min"])


def test_spectrum_usage_errors(capsys):
    _run_expect_usage_error(capsys, ["spectrum", "--model", "ch", "--grid", "100"])
    _run_expect_usage_error(
        capsys, ["spectrum", "--model", "ch", "--n", "1", "--grid", "100"]
    )
    _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "ch", "--n", "1", "--radius", "5",
         "--radii", "5,10", "--grid", "100"],
    )
    _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "ch", "--m", "2", "--radius", "5", "--grid", "100"],
    )
    _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "ch", "--n", "1", "--curvature", "2",
         "--radius", "5", "--grid", "100"],
    )
    _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "rh", "--m", "2", "--radii", "bogus",
         "--grid", "100"],
    )
    # a bad model parameter is refused by the model, inside the error handler;
    # a non-finite curvature would print Infinity or NaN, which is not JSON
    for model in (["rh", "--m", "1"], ["ch", "--n", "0"],
                  ["rh", "--m", "2", "--curvature", "-1"],
                  ["rh", "--m", "2", "--curvature", "inf"],
                  ["rh", "--m", "2", "--curvature", "nan"]):
        err = _run_expect_usage_error(
            capsys,
            ["spectrum", "--model", *model, "--radius", "5", "--grid", "100",
             "--format", "json"],
        )
        assert err.startswith("error:")
    # repeated radii are refused before any solve, not by the extrapolation
    err = _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "rh", "--m", "2", "--radii", "25,25",
         "--grid", "1000"],
    )
    assert "distinct" in err


def test_spectrum_refuses_oversized_inputs_up_front(capsys):
    err = _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "rh", "--m", "2", "--radius", "25",
         "--grid", str(10 ** 12)],
    )
    assert err.startswith("error:") and "ceiling" in err
    err = _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "ch", "--n", "3", "--radius", "2000",
         "--grid", "100"],
    )
    assert err.startswith("error:") and "overflows" in err


def test_every_radius_is_checked_before_the_first_solve(capsys, monkeypatch):
    from kahlerlab import cli

    solves = []
    monkeypatch.setattr(cli, "lambda0_estimate", lambda *args: solves.append(args))
    # R = 25 and 50 would solve on 10^6 cells before R = 400 overflows
    err = _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "rh", "--m", "2", "--radii", "25,50,400",
         "--grid", "1000000"],
    )
    assert err.startswith("error:") and "overflows" in err
    err = _run_expect_usage_error(
        capsys,
        ["spectrum", "--model", "ch", "--n", "3", "--radii", "15,1e-100",
         "--grid", "100"],
    )
    assert err.startswith("error:") and "underflows" in err
    assert solves == []


def test_spectrum_on_a_two_cell_grid(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--model", "ch", "--n", "1", "--radius", "5", "--grid", "2",
         "--format", "json"],
    )
    assert code == 0
    (sample,) = json.loads(out)["samples"]
    assert sample["N"] == 2 and sample["sturm_counts"] == 1
    assert sample["bracket_lo"] <= sample["lambda_min"] <= sample["bracket_hi"]


def test_no_subcommand_is_a_usage_error(capsys):
    _run_expect_usage_error(capsys, [])
    _run_expect_usage_error(capsys, ["bogus-command"])


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    _run_expect_usage_error(capsys, ["constants"])  # argparse: --dim is required
    argv = ["constants", "--dim", "3", "--format", "md"]
    first, second = _run(capsys, argv), _run(capsys, argv)
    assert first[0] == 0 and first == second
    err = _run_expect_usage_error(
        capsys, ["spectrum", "--model", "rh", "--radius", "10", "--grid", "200"]
    )
    assert "rh model needs --m" in err


_IMPORT_GUARD = """
import contextlib, io, json, sys

import kahlerlab
import kahlerlab.cli

loaded = {"import": "scipy" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kahlerlab.cli.main(["constants", "--dim", "3"])]
    loaded["constants"] = "scipy" in sys.modules
    codes.append(kahlerlab.cli.main(["verify", "--dim", "2", "--trials", "2"]))
    loaded["verify"] = "scipy" in sys.modules
spectrum = io.StringIO()
with contextlib.redirect_stdout(spectrum):
    codes.append(kahlerlab.cli.main([
        "spectrum", "--model", "rh", "--m", "2", "--radius", "10", "--grid", "200",
        "--format", "json",
    ]))
loaded["spectrum"] = "scipy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "spectrum": json.loads(spectrum.getvalue())}))
"""


def test_only_an_eigensolve_imports_scipy():
    # a fresh interpreter: pytest's own process has imported scipy already
    src = Path(kahlerlab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == {
        "import": False, "constants": False, "verify": False, "spectrum": True,
    }
    (sample,) = result["spectrum"]["samples"]
    assert sample["sturm_counts"] == 1
    assert sample["bracket_lo"] <= sample["lambda_min"] <= sample["bracket_hi"]
    assert sample["residual"] < 1e-10


@pytest.mark.parametrize("argv", [
    ["constants", "--dim", "400", "--format", "csv"],
    ["bsd", "--product", "IV(400)", "--degrees", "--format", "md"],
])
def test_a_reader_that_stops_early_gets_no_traceback(argv):
    # Both print far more than a pipe holds, so the writer meets the closed end.
    src = Path(kahlerlab.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "kahlerlab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(("n,k,", "| domain "))
    assert code == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
