"""What the golden corpus (tests/golden/) cannot hold about CLI calls: in-process effects,
values against an independent closed form, a relation between two calls, and exact bits
where the record allows a tolerance.  The corpus is the one record of what a call prints."""

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


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


# ------------------------------------------------------------------ entry

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


def test_a_call_without_a_command_is_a_usage_error(capsys):
    # an empty argument list: no corpus line can hold it, as the corpus skips blank lines
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "qtmpair: error: the following arguments are required: COMMAND\n")


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


# ------------------------------------------------------------------ eigen

def test_symmetry_protected_cells_print_exactly(capsys):
    # U = 0: a degenerate cluster beside an exactly even ground state; the record holds
    # these vector cells to a tolerance
    data = json.loads(run_ok(capsys, ["eigen", "--u", "0", "--a", "1", "--mu-y", "10"]))
    assert data["vectors"][0] == [0.5, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------- extract

def test_extract_full_report(capsys):
    out = run_ok(capsys, ["extract", "--u", "10", "--a", "1", "--mu-y", "10"])
    report = json.loads(out)
    s = math.sqrt(116.0)
    np.testing.assert_allclose(report["splitting_K"], (s - 10) / 2, rtol=1e-12)
    np.testing.assert_allclose(report["tunneling_exact_K"], 1.0, rtol=1e-10)
    np.testing.assert_allclose(
        report["zeeman_threshold_T"], 10.0 / (2.0 * 10.0 * 0.671714), rtol=1e-12
    )


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
