import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtmpair.cli import build_parser, main
from qtmpair.relaxation import load_dataset, parse_dataset_csv

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("spectrum-ua", "spectrum-field", "eigen", "extract", "fit", "synth", "evolve")


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def run_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


# ------------------------------------------------------------------- help

def test_help_exits_zero_and_documents_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "usage" in text
        assert any(
            unit in text
            for unit in ("kelvin", "tesla", "nanoseconds", "seconds", "dimensionless")
        )


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()


# ------------------------------------------------------------ spectrum-ua

def test_spectrum_ua_row_at_ten(capsys):
    out = run_ok(capsys, ["spectrum-ua", "--min", "0", "--max", "20", "--points", "201"])
    lines = out.strip().split("\n")
    assert lines[0] == "axis,lambda1,lambda2,lambda3,lambda4"
    assert len(lines) == 202
    row = next(line for line in lines[1:] if line.startswith("10.0,"))
    values = [float(x) for x in row.split(",")][1:]
    s = math.sqrt(100.0 + 16.0)
    np.testing.assert_allclose(values, [(10 - s) / 2, 0.0, 10.0, (10 + s) / 2], atol=1e-12)


def test_spectrum_ua_json(capsys):
    out = run_ok(capsys, ["spectrum-ua", "--min", "0", "--max", "10", "--points", "3",
                          "--format", "json"])
    data = json.loads(out)
    assert data["axis"] == [0.0, 5.0, 10.0]
    assert len(data["lambda1"]) == 3


def test_spectrum_ua_rejects_bad_range(capsys):
    err = run_usage_error(capsys, ["spectrum-ua", "--min", "3", "--max", "1", "--points", "5"])
    assert "usage" in err


# ---------------------------------------------------------- spectrum-field

def test_spectrum_field_table(capsys):
    out = run_ok(capsys, ["spectrum-field", "--u", "10", "--a", "1", "--mu-y", "10",
                          "--max", "2", "--points", "41"])
    lines = out.strip().split("\n")
    assert lines[0] == "axis,lambda1,lambda2,lambda3,lambda4,mx,my"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (41, 7)
    assert np.max(np.abs(rows[:, 2])) < 1e-10          # lambda2 column stays zero
    assert rows[-1, 6] > 0.0                           # ground moment develops along y


def test_spectrum_field_rejects_zero_u(capsys):
    run_usage_error(capsys, ["spectrum-field", "--u", "0", "--a", "1", "--mu-y", "10",
                             "--max", "2", "--points", "11"])


# ------------------------------------------------------------------ eigen

def test_eigen_report(capsys):
    out = run_ok(capsys, ["eigen", "--u", "10", "--a", "1", "--mu-y", "10"])
    data = json.loads(out)
    assert data["basis"] == ["1", "1bar", "2", "2bar"]
    assert "convention" in data
    s = math.sqrt(116.0)
    np.testing.assert_allclose(
        data["values_K"], [(10 - s) / 2, 0.0, 10.0, (10 + s) / 2], atol=1e-10
    )
    np.testing.assert_allclose(
        np.abs(data["vectors"][0]), [0.6943, 0.6943, 0.1337, 0.1337], atol=1e-4
    )


def test_symmetry_protected_cells_print_exactly(capsys):
    # the level 0 of (|1> - |1bar>)/sqrt(2) prints as the IEEE zero -0.0
    data = json.loads(run_ok(capsys, ["eigen", "--u", "10", "--a", "1", "--mu-y", "10"]))
    assert repr(data["values_K"][1]) == "-0.0"
    # U < 0: the level U of (|2> - |2bar>)/sqrt(2) at zero field, 0 at every field along y
    out = run_ok(capsys, ["spectrum-field", "--u", "-15", "--a", "1", "--mu-y", "10",
                          "--max", "2", "--points", "3"])
    cells = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert cells[0][2] == "-15.0"
    assert [row[3] for row in cells] == ["-0.0"] * 3
    # U = 0: a degenerate cluster beside an exactly even ground state
    data = json.loads(run_ok(capsys, ["eigen", "--u", "0", "--a", "1", "--mu-y", "10"]))
    assert data["vectors"][0] == [0.5, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------- extract

def test_extract_quarter_rule(capsys):
    out = run_ok(capsys, ["extract", "--delta", "0.34", "--mode", "paper"])
    report = json.loads(out)
    assert report["tunneling_paper_K"] == 0.085
    assert report["tunneling_exact_K"] is None
    np.testing.assert_allclose(report["frequency_GHz"], 0.34 * 20.836619, rtol=1e-12)
    assert report["notes"]


def test_extract_full_report(capsys):
    out = run_ok(capsys, ["extract", "--u", "10", "--a", "1", "--mu-y", "10"])
    report = json.loads(out)
    s = math.sqrt(116.0)
    np.testing.assert_allclose(report["splitting_K"], (s - 10) / 2, rtol=1e-12)
    np.testing.assert_allclose(report["tunneling_exact_K"], 1.0, rtol=1e-10)
    np.testing.assert_allclose(
        report["zeeman_threshold_T"], 10.0 / (2.0 * 10.0 * 0.671714), rtol=1e-12
    )


def test_extract_negative_u_gives_no_exact_value(capsys):
    report = json.loads(run_ok(capsys, ["extract", "--delta", "0.3", "--u", "-5"]))
    assert report["tunneling_exact_K"] is None
    assert report["tunneling_paper_K"] == 0.075
    with pytest.raises(SystemExit):
        main(["extract", "--help"])
    assert "null" in capsys.readouterr().out


def test_extract_requires_some_input(capsys):
    run_usage_error(capsys, ["extract", "--mode", "paper"])
    run_usage_error(capsys, ["extract", "--delta", "0.3", "--mode", "exact"])


# ------------------------------------------------------------ synth + fit

def test_synth_writes_dataset(capsys, tmp_path):
    path = tmp_path / "data.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4",
                    "--t-max", "30", "--points", "12", "--output", str(path)])
    ds = parse_dataset_csv(path.read_text())
    assert len(ds.points) == 12
    # noise-free points lie on the single-channel model
    tau = 2.1e-3 * math.exp(16.1 / ds.points[0].t_kelvin)
    np.testing.assert_allclose(ds.points[0].tau_s, tau, rtol=1e-12)


def test_fit_round_trip(capsys, tmp_path):
    data = tmp_path / "synth.csv"
    curve = tmp_path / "curve.csv"
    run_ok(capsys, ["synth", "--process", "4.0e2", "0.34", "--process", "2.1e-3", "16.1",
                    "--t-min", "0.4", "--t-max", "30", "--points", "30",
                    "--noise", "0.05", "--seed", "1", "--output", str(data)])
    out = run_ok(capsys, ["fit", "--input", str(data), "--processes", "2",
                          "--curve-output", str(curve)])
    report = json.loads(out)
    assert report["converged"] is True
    deltas = [p["delta_K"] for p in report["model"]["processes"]]
    assert abs(deltas[0] - 0.34) <= 0.034 and abs(deltas[1] - 16.1) <= 1.61
    assert len(report["std_errors"]) == 4
    assert len(report["covariance"]) == 4

    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "T_K,tau_s"
    assert len(lines) >= 201


def test_fit_reads_a_dataset_with_a_byte_order_mark(capsys, tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF; the header check rejected it
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    run_ok(capsys, ["synth", "--process", "4.0e2", "0.34", "--process", "2.1e-3", "16.1",
                    "--t-min", "0.4", "--t-max", "30", "--points", "30",
                    "--noise", "0.05", "--seed", "3", "--output", str(plain)])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_dataset(marked) == load_dataset(plain)
    reports = []
    for path in (plain, marked):
        curve = tmp_path / f"{path.stem}-curve.csv"
        out = run_ok(capsys, ["fit", "--input", str(path), "--processes", "2",
                              "--curve-output", str(curve)])
        reports.append((out, curve.read_bytes()))
    assert reports[0] == reports[1]


def test_fit_degenerate_is_domain_error(capsys, tmp_path):
    data = tmp_path / "single.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4",
                    "--t-max", "30", "--points", "30", "--output", str(data)])
    assert main(["fit", "--input", str(data), "--processes", "2"]) == 3
    err = capsys.readouterr().err
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "DegenerateParameters"
    assert len(diagnostic["parameter_pair"]) == 2


@pytest.mark.parametrize("points", ["-5", "0", "1"])
def test_fit_rejects_grid_points_below_two(capsys, tmp_path, points):
    data = tmp_path / "data.csv"
    curve = tmp_path / "curve.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4",
                    "--t-max", "30", "--points", "12", "--output", str(data)])
    err = run_usage_error(capsys, ["fit", "--input", str(data), "--processes", "1",
                                   "--grid-points", points, "--curve-output", str(curve)])
    assert "--grid-points" in err
    assert not curve.exists()


def test_fit_missing_input_is_usage_error(capsys, tmp_path):
    run_usage_error(capsys, ["fit", "--input", str(tmp_path / "nope.csv"), "--processes", "2"])


@pytest.mark.parametrize(
    "flag, name", [("--output", "missing/x.json"), ("--curve-output", "."), ("--input", ".")]
)
def test_file_errors_are_usage_errors_naming_the_path(capsys, tmp_path, flag, name):
    data = tmp_path / "data.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4",
                    "--t-max", "30", "--points", "12", "--output", str(data)])
    # a file in a missing directory, or a directory in place of a file; the
    # last --input wins
    bad = str(tmp_path / name)
    err = run_usage_error(capsys, ["fit", "--input", str(data), "--processes", "1", flag, bad])
    assert err.splitlines()[-1].endswith(repr(bad))


def test_fit_on_one_temperature_keeps_stderr_json(capsys, tmp_path):
    # polyfit's start line through four points at one T is rank-deficient
    data = tmp_path / "flat.csv"
    data.write_text("T_K,tau_s\n2,1\n2,2\n2,3\n2,4\n")
    assert main(["fit", "--input", str(data), "--processes", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateParameters"


def test_fit_bad_content_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["fit", "--input", str(bad), "--processes", "2"]) == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "DatasetError"


def test_fit_too_few_points_is_domain_error(capsys, tmp_path):
    data = tmp_path / "five.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4",
                    "--t-max", "30", "--points", "5", "--output", str(data)])
    assert main(["fit", "--input", str(data), "--processes", "2"]) == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic == {
        "error": "FitError",
        "message": "need at least 8 points to fit 2 processes, got 5",
    }


def test_fit_not_converged_is_domain_error(capsys, tmp_path):
    data = tmp_path / "data.csv"
    run_ok(capsys, ["synth", "--process", "4.093809938893698", "9.73346085475476",
                    "--process", "94.43496845702458", "22.236364350400162",
                    "--process", "0.12958398199990195", "6.305812821156351",
                    "--t-min", "0.4", "--t-max", "30", "--points", "30",
                    "--noise", "0.05", "--seed", "70", "--output", str(data)])
    assert main(["fit", "--input", str(data), "--processes", "3"]) == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic == {
        "error": "FitNotConverged",
        "message": "fit did not converge within 500 iterations",
        "iterations": 500,
        "residual_rms": 0.04218303694197043,
    }


def test_fit_without_a_downhill_step_is_domain_error(capsys, tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    run_ok(capsys, ["synth", "--process", "2.1e-3", "16.1", "--t-min", "0.4", "--t-max", "30",
                    "--points", "30", "--noise", "0.05", "--seed", "1", "--output", str(data)])
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    assert main(["fit", "--input", str(data), "--processes", "1"]) == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "FitNotConverged" and diagnostic["iterations"] == 1
    assert diagnostic["message"] == "fit did not converge within 1 iterations"


# ----------------------------------------------------------------- evolve

def test_evolve_trace(capsys):
    out = run_ok(capsys, ["evolve", "--u", "10", "--a", "1", "--mu-y", "10",
                          "--t-max", "0.25", "--points", "26"])
    lines = out.strip().split("\n")
    assert lines[0] == "t_ns,p1,p1bar,p2,p2bar,mx,my"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (26, 7)
    np.testing.assert_allclose(rows[:, 1:5].sum(axis=1), 1.0, atol=1e-12)
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)   # starts in |1>
    assert rows[:, 2].max() > 0.9                        # strong transfer to |1bar>


# ------------------------------------------------------- rejected values

@pytest.mark.parametrize(
    "argv",
    [
        "spectrum-ua --min 0 --max inf --points 5",
        "spectrum-field --u 10 --a 1 --mu-y 10 --max inf --points 5",
        "eigen --u 10 --a 1 --mu-y 1 --bx inf",
        "evolve --u 10 --a 1 --mu-y 10 --by nan --t-max 1 --points 3",
        "extract --delta nan",
        "extract --delta inf",
        "extract --delta 0.3 --u nan --mu-y 1",
        "synth --process 1 1 --t-min 1 --t-max 2 --points 3 --noise nan",
        "synth --process 1 1 --t-min 1 --t-max inf --points 3",
        "evolve --u 10 --a 1 --mu-y 10 --t-max inf --points 3",
        "evolve --u 10 --a 1 --mu-y 10 --t-max nan --points 3",
        "eigen --u 10 --a 1 --mu-y 10 --by 1e308",
        "evolve --u 10 --a 1 --mu-y 10 --bx 1e308 --t-max 1 --points 3",
        "extract --delta 0.3 --u nan",
        "extract --delta 0.3 --u=-inf",
        "extract --delta 0.3 --u nan --mode paper",
        "evolve --u 10 --a 1 --mu-y 10 --t-max 1 --points 1",
        "synth --process 1 1 --t-min 1 --t-max 2 --points 0",
        "synth --process 1 1 --t-min 1 --t-max 2 --points -1",
    ],
)
def test_library_rejections_are_usage_errors(capsys, argv):
    # values the library rejects, non-finite ones included, exit 2 with usage
    assert "usage" in run_usage_error(capsys, argv.split())


def test_negative_float_literals_are_values(capsys):
    # argparse alone reads -1.5e1, -1e3, -inf and -nan as unknown options
    spaced = run_ok(capsys, ["eigen", "--u", "-1.5e1", "--a", "1", "--mu-y", "10"])
    assert spaced == run_ok(capsys, ["eigen", "--u=-1.5e1", "--a", "1", "--mu-y", "10"])
    out = run_ok(capsys, ["spectrum-ua", "--min", "-1e3", "--max", "5", "--points", "3"])
    assert out.split("\n")[1].startswith("-1000.0,")
    err = run_usage_error(capsys, ["eigen", "--u", "-inf", "--a", "1", "--mu-y", "10"])
    assert "model parameter u must be finite, got -inf" in err
    err = run_usage_error(capsys, ["eigen", "--u", "1", "--a", "1", "--mu-y", "-nan"])
    assert "model parameter mu_y must be finite, got nan" in err
    err = run_usage_error(capsys, ["synth", "--process", "1", "-1e3", "--t-min", "1",
                                   "--t-max", "2", "--points", "3"])
    assert "barrier delta must be >= 0 and finite, got -1000.0" in err


def test_synth_names_a_point_count_below_one(capsys):
    for points in ("0", "-1"):
        err = run_usage_error(capsys, ["synth", "--process", "1", "1", "--t-min", "1",
                                       "--t-max", "2", "--points", points])
        assert f"--points must be >= 1, got {points}" in err


@pytest.mark.parametrize("argv, message", [
    ("evolve --u 10 --a 1 --mu-y 10 --t-max 0 --points 3",
     "--t-max must be > 0 and finite (nanoseconds), got 0.0"),
    ("evolve --u 10 --a 1 --mu-y 10 --t-max nan --points 1",
     "--t-max must be > 0 and finite (nanoseconds), got nan"),
    ("evolve --u 10 --a 1 --mu-y 10 --t-max 1 --points 1",
     "n_points must be an integer >= 2, got 1"),
    ("synth --process 1 1 --t-min 2 --t-max 1 --points 3",
     "need 0 < --t-min <= --t-max, both finite, got 2.0 and 1.0"),
    ("synth --process 1 1 --t-min 1 --t-max inf --points 3",
     "need 0 < --t-min <= --t-max, both finite, got 1.0 and inf"),
])
def test_time_grid_messages_name_their_values(capsys, argv, message):
    # --t-max is checked before --points; evolve's point count follows the spectrum rule
    assert run_usage_error(capsys, argv.split()).endswith(f"error: {message}\n")


def test_synth_names_the_temperature_where_the_lifetime_overflows(capsys):
    err = run_usage_error(capsys, ["synth", "--process", "1e-10", "2200", "--t-min", "2",
                                   "--t-max", "100", "--points", "5"])
    assert "lifetime exceeds float64 (ln tau > 709.78) at T = 2.0 K" in err


SPECTRAL_OVERFLOW = [
    ("eigen --u 1 --a 5e307 --mu-y 1", 2, "error: Hamiltonian entry 5e+307 exceeds"),
    ("spectrum-field --u 1 --a 5e307 --mu-y 1 --max 2 --points 3", 2,
     "error: Hamiltonian entry 5e+307 exceeds"),
    ("evolve --u 1 --a 5e307 --mu-y 1 --t-max 1 --points 3", 2,
     "error: Hamiltonian entry 5e+307 exceeds"),
    ("eigen --u 1e308 --a 1e308 --mu-y 1", 2, "error: Hamiltonian entry 1e+308 exceeds"),
    ("spectrum-ua --min 0 --max 1e308 --points 3", 0, "\n1e+308,-4e-308,0.0,1e+308,1e+308\n"),
    ("spectrum-ua --min 0 --max 1e308 --points 3 --format json", 0,
     '"lambda4": [\n    2.0,\n    5e+307,\n    1e+308\n  ]'),
    ("spectrum-ua --min -1e308 --max 0 --points 3", 0,
     "\n-1e+308,-1e+308,-1e+308,0.0,4e-308\n"),
    ("spectrum-ua --min -1e308 --max 1e308 --points 3", 2,
     "error: ratio range -1e+308 to 1e+308 exceeds float64"),
    ("evolve --u 1e307 --a 1 --mu-y 1 --t-max 1 --points 3", 2,
     "error: phase rate of level 2 (9.999999999999999e+306 K) exceeds float64"),
    ("evolve --u 10 --a 1 --mu-y 10 --t-max 1e306 --points 3", 2,
     "error: phase exceeds float64 at t = 5e+305 ns at index 1"),
    ("evolve --u 10 --a 1 --mu-y 10 --t-max 1e304 --points 3", 0,
     "\n1e+304,0.296995403758994,0.7024775337757091,"),
]


@pytest.mark.parametrize("argv, code, expected", SPECTRAL_OVERFLOW,
                         ids=[case[0] for case in SPECTRAL_OVERFLOW])
def test_spectral_overflow_is_rejected_or_finite(capsys, argv, code, expected):
    # each of these printed nan or inf levels, a numpy warning or an unrelated message
    if code:
        err = run_usage_error(capsys, argv.split())
        assert expected in err and "Warning" not in err
    else:
        out = run_ok(capsys, argv.split())
        assert expected in out and "nan" not in out and "inf" not in out.lower()


EXTRACT_OVERFLOW = [
    ("extract --u 1e200 --a 1e200 --mode paper", 0,
     '"splitting_K": 1.5615528128088306e+200,'),
    ("extract --u 1e200 --a 1e200 --mode paper --delta 1", 0, '"splitting_K": 1.0,'),
    ("extract --u 1e308 --a 1", 0, '"splitting_K": 4e-308,'),
    ("extract --delta 1e200 --u 1 --mode exact", 0, '"tunneling_exact_K": 5e+199,'),
    ("extract --delta 1e308 --mode paper", 2,
     "error: delta must be finite with a finite frequency, got 1e+308"),
    ("extract --u 1 --a 1e308", 2,
     "error: ground splitting exceeds float64 at u = 1.0, a = 1e+308"),
    ("extract --delta 1 --u 1e308 --mu-y 1e-300", 2,
     "error: threshold field exceeds float64 at u = 1e+308, mu_y = 1e-300"),
]


@pytest.mark.parametrize("argv, code, expected", EXTRACT_OVERFLOW,
                         ids=[case[0] for case in EXTRACT_OVERFLOW])
def test_extract_overflow_is_rejected_or_finite(capsys, argv, code, expected):
    # these ended in an OverflowError traceback or printed 0.0 or Infinity
    if code:
        assert expected in run_usage_error(capsys, argv.split())
    else:
        out = run_ok(capsys, argv.split())
        assert expected in out and "Infinity" not in out and "NaN" not in out


# each of these warned and then named a field the user never gave, or ended in a traceback
FLOAT64_EDGE = [
    ("eigen --u 1 --a 1 --mu-x 1e308 --mu-y 1", 2,
     "error: moment mu_x must be at most 4.4942328371557893e+307, got 1e+308"),
    ("spectrum-field --u 1 --a 1 --mu-y 1e-300 --max 1e10 --points 3", 2,
     "error: sweep end 10000000000.0 * B_Zt = 7.443644169989013e+299 T exceeds float64"),
    ("fit T=1e-155,0.5,1,2,3", 3, "got T = 1e-155 K, sigma_ln_tau = None"),
    ("fit T=1e-154,1.1e-154,1,2,3", 3, "got T = 1e-154 K, sigma_ln_tau = None"),
    ("fit sigma=1e-200,0.1,0.1,0.1", 3, "got T = 0.5 K, sigma_ln_tau = 1e-200"),
]
FLOAT64_EDGE_DATA = {
    "fit T=1e-155,0.5,1,2,3": "T_K,tau_s\n1e-155,2\n0.5,2.5\n1,3\n2,4\n3,5\n",
    "fit T=1e-154,1.1e-154,1,2,3": "T_K,tau_s\n1e-154,2\n1.1e-154,2.5\n1,3\n2,4\n3,5\n",
    "fit sigma=1e-200,0.1,0.1,0.1":
        "T_K,tau_s,sigma_ln_tau\n0.5,2.5,1e-200\n1,3,0.1\n2,4,0.1\n3,5,0.1\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, code, expected", FLOAT64_EDGE, ids=[c[0] for c in FLOAT64_EDGE])
def test_float64_edge_inputs_are_named_without_a_warning(capsys, tmp_path, case, code, expected):
    if code == 3:
        data = tmp_path / "data.csv"
        data.write_text(FLOAT64_EDGE_DATA[case])
        assert main(["fit", "--input", str(data), "--processes", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "FitError" and expected in err
    else:
        assert run_usage_error(capsys, case.split()).endswith(expected + "\n")


def test_fit_curve_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on first use, 14-20 ms of a CLI call
    data, curve = tmp_path / "ds.csv", tmp_path / "curve.csv"
    temps = np.geomspace(0.5, 20.0, 12)
    rows = (f"{t!r},{math.exp(5.0 / t + 0.01 * (-1) ** k)!r}\n"
            for k, t in enumerate(temps.tolist()))
    data.write_text("T_K,tau_s\n" + "".join(rows))
    probe = (
        "import sys; from qtmpair.cli import main; "
        f"code = main(['fit', '--input', {str(data)!r}, '--processes', '1', "
        f"'--curve-output', {str(curve)!r}]); "
        "print(code, 'numpy.ma' in sys.modules, 'qtmpair.relaxation' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False True"
    sample = np.loadtxt(curve, delimiter=",", skiprows=1)[:, 0]
    grid = np.geomspace(temps.min(), temps.max(), 200)
    np.testing.assert_array_equal(sample, np.unique(np.concatenate([temps, grid])))


# ----------------------------------------------------------- determinism

def test_outputs_are_byte_identical_across_runs(capsys, tmp_path):
    dataset = tmp_path / "ds.csv"
    run_ok(capsys, ["synth", "--process", "1.9e1", "0.97", "--process", "8.9e-3", "10.0",
                    "--t-min", "0.4", "--t-max", "30", "--points", "30",
                    "--noise", "0.05", "--seed", "3", "--output", str(dataset)])
    invocations = {
        "spectrum-ua": ["spectrum-ua", "--min", "0", "--max", "20", "--points", "101"],
        "spectrum-field": ["spectrum-field", "--u", "10", "--a", "1", "--mu-y", "10",
                           "--max", "2", "--points", "51"],
        "eigen": ["eigen", "--u", "10", "--a", "1", "--mu-y", "10", "--by", "0.3"],
        "extract": ["extract", "--u", "10", "--a", "1", "--mu-y", "10"],
        "fit": ["fit", "--input", str(dataset), "--processes", "2"],
        "synth": ["synth", "--process", "4.0e2", "0.34", "--t-min", "0.4", "--t-max", "30",
                  "--points", "20", "--noise", "0.02", "--seed", "7"],
        "evolve": ["evolve", "--u", "10", "--a", "1", "--mu-y", "10",
                   "--t-max", "0.5", "--points", "40"],
    }
    for name, argv in invocations.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()
