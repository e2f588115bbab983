"""One contract for every CSV table the package writes (``qtmpair.serialize``)."""

import numpy as np
import pytest

from qtmpair.analysis import sweep_field, sweep_ratio
from qtmpair.cli import main
from qtmpair.model import (
    BASIS_LABELS,
    FieldVector,
    ModelParams,
    basis_state,
    build_hamiltonian,
    evolve,
    moment_expectation,
)
from qtmpair.reference import DY2S_C82
from qtmpair.relaxation import fit, load_dataset, model_lifetime, synthesize

P = ModelParams(u=10.0, a=1.0, mu_x=7.0, mu_y=10.0)
TEMPERATURES = np.geomspace(0.4, 30.0, 30)


def field_table(tmp_path):
    table = sweep_field(P, 2.0, 41)
    expected = {"axis": table.axis_values}
    expected.update(zip(["lambda1", "lambda2", "lambda3", "lambda4"], table.eigenvalues.T))
    expected.update(mx=table.ground_moments[:, 0], my=table.ground_moments[:, 1])
    return table.to_csv(), expected


def ratio_table(tmp_path):
    table = sweep_ratio(-20.0, 20.0, 41)
    expected = {"axis": table.axis_values}
    expected.update(zip(["lambda1", "lambda2", "lambda3", "lambda4"], table.eigenvalues.T))
    return table.to_csv(), expected


def dataset(tmp_path):
    data = synthesize(DY2S_C82.relaxation, TEMPERATURES, noise_sigma=0.05, seed=4)
    assert all(p.sigma_ln_tau is None and p.mode == "" for p in data.points)
    return data.to_csv(), {"T_K": data.temperatures(), "tau_s": data.lifetimes()}


def evolve_trace(tmp_path):
    path = tmp_path / "trace.csv"
    assert main(["evolve", "--u", "10", "--a", "1", "--mu-x", "7", "--mu-y", "10",
                 "--by", "0.3", "--initial", "2", "--t-max", "0.5", "--points", "33",
                 "--output", str(path)]) == 0
    times = np.linspace(0.0, 0.5, 33)
    states = evolve(basis_state("2"), build_hamiltonian(P, FieldVector(by=0.3)), times)
    moments = moment_expectation(states, P)
    expected = {"t_ns": times}
    expected.update(zip([f"p{label}" for label in BASIS_LABELS], (np.abs(states) ** 2).T))
    expected.update(mx=moments.mx, my=moments.my)
    return path.read_text(), expected


def fit_curve(tmp_path):
    data_path, curve_path = tmp_path / "data.csv", tmp_path / "curve.csv"
    data_path.write_text(dataset(tmp_path)[0])
    assert main(["fit", "--input", str(data_path), "--processes", "2", "--grid-points", "50",
                 "--curve-output", str(curve_path), "--output", str(tmp_path / "fit.json")]) == 0
    data = load_dataset(data_path)
    temps = data.temperatures()
    sample = np.unique(np.concatenate([temps, np.geomspace(temps.min(), temps.max(), 50)]))
    taus = model_lifetime(fit(data, 2).model, sample)
    return curve_path.read_text(), {"T_K": sample, "tau_s": taus}


@pytest.mark.parametrize(
    "writer", [field_table, ratio_table, dataset, evolve_trace, fit_curve],
    ids=lambda writer: writer.__name__,
)
def test_csv_writer_contract(tmp_path, writer):
    """Header, shortest round-trip cells, exact values and one final newline."""
    text, expected = writer(tmp_path)
    assert text.endswith("\n") and not text.endswith("\n\n")
    header, *rows = text[:-1].split("\n")
    assert header == ",".join(expected)
    cells = [row.split(",") for row in rows]
    for row in cells:
        assert row == [repr(float(cell)) for cell in row]
    parsed = np.array(cells, dtype=float)
    np.testing.assert_array_equal(parsed, np.column_stack(list(expected.values())))
