import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtmpair.cli import build_parser, main, run
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


@pytest.mark.parametrize("argv, code", [
    (["extract", "--delta", "0.34"], 0),
    (["fit", "--input", "bad.csv", "--processes", "1"], 3),    # a DatasetError
    (["eigen", "--u", "1"], 2),                                # argparse's SystemExit
])
def test_run_freezes_the_collector_once_and_main_never(capsys, tmp_path, monkeypatch, argv, code):
    # a spy: freezing this process would keep the rest of the session's garbage for good
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("x,y\n")

    def exit_code(call, *args):
        try:
            return call(*args)
        except SystemExit as exc:
            return exc.code

    assert (exit_code(main, argv), frozen) == (code, [])
    monkeypatch.setattr(sys, "argv", ["qtmpair", *argv])
    assert (exit_code(run), frozen) == (code, [True])
    capsys.readouterr()


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


# ---------------------------------------------------------- spectrum-field

def test_spectrum_field_table(capsys):
    out = run_ok(capsys, ["spectrum-field", "--u", "10", "--a", "1", "--mu-y", "10",
                          "--max", "2", "--points", "41"])
    lines = out.strip().split("\n")
    assert lines[0] == "axis,lambda1,lambda2,lambda3,lambda4,mx,my"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (41, 7)
    assert rows[-1, 6] > 0.0                           # ground moment develops along y


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


# ------------------------------------------------------- float64 limits

def test_evolve_near_the_phase_limit_prints_finite_bits(capsys):
    # the golden record compares this table within tolerance; these cells are exact
    out = run_ok(capsys, "evolve --u 10 --a 1 --mu-y 10 --t-max 1e304 --points 3".split())
    assert "\n1e+304,0.296995403758994,0.7024775337757091," in out
    assert "nan" not in out and "inf" not in out.lower()


# each of these warned and then named a field the user never gave, or ended in a traceback
FLOAT64_EDGE = {
    "fit T=1e-155,0.5,1,2,3": ("T_K,tau_s\n1e-155,2\n0.5,2.5\n1,3\n2,4\n3,5\n",
                               "got T = 1e-155 K, sigma_ln_tau = None"),
    "fit T=1e-154,1.1e-154,1,2,3": ("T_K,tau_s\n1e-154,2\n1.1e-154,2.5\n1,3\n2,4\n3,5\n",
                                    "got T = 1e-154 K, sigma_ln_tau = None"),
    "fit sigma=1e-200,0.1,0.1,0.1": (
        "T_K,tau_s,sigma_ln_tau\n0.5,2.5,1e-200\n1,3,0.1\n2,4,0.1\n3,5,0.1\n",
        "got T = 0.5 K, sigma_ln_tau = 1e-200"),
}


@pytest.mark.parametrize("case", FLOAT64_EDGE)
def test_float64_edge_inputs_are_named_without_a_warning(capsys, tmp_path, case):
    text, expected = FLOAT64_EDGE[case]
    data = tmp_path / "data.csv"
    data.write_text(text)
    assert main(["fit", "--input", str(data), "--processes", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "FitError" and expected in err


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
