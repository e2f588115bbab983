"""One contract for every CSV table and JSON text the package writes (``qtmpair.serialize``)."""

import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmpair.analysis import sweep_field, sweep_ratio
from qtmpair.cli import DomainError, main
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
from qtmpair.serialize import csv_text, json_text

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


def test_csv_text_writes_string_cells_as_given():
    # a numpy string array drops trailing NULs; a list column is written as given
    text = csv_text({"x": np.array([1.0, 2.0]), "tag": ["a\x00", "b"]})
    assert text == "x,tag\n1.0,a\x00\n2.0,b\n"


# ------------------------------------------------------------------ JSON

SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1]
TEXT = st.text(max_size=6) | st.sampled_from(
    ['"quoted"', "line\nbreak", "tab\t", "é→∞", "\\", ""]
)


def arrays(dtype, elements):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                      elements=elements)


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), TEXT,
    arrays(np.float64, st.floats() | st.sampled_from(SPECIAL_FLOATS)),
    arrays(np.float32, st.floats(width=32)),
    arrays(np.int64, st.integers(-(2**63), 2**63 - 1)),
    arrays(np.bool_, st.booleans()),
)
JSON_OBJECTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=150)
@given(JSON_OBJECTS)
def test_json_text_matches_the_stdlib_indented_encoder(obj):
    """Same bytes as the stdlib's indent-2 encoder, the oracle, for nested
    containers, escaped keys and every array kind the package can hand it."""
    assert json_text(obj) == json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"


def fit_report():
    data = synthesize(DY2S_C82.relaxation, TEMPERATURES, noise_sigma=0.05, seed=4)
    return fit(data, 2).to_json()


def cli_output(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("emitter", [
    lambda capsys: sweep_field(P, 2.0, 41).to_json(),
    lambda capsys: sweep_ratio(-20.0, 20.0, 41).to_json(),
    lambda capsys: fit_report(),
    lambda capsys: DomainError(
        "DegenerateParameters", 'fit "degenerate" at \u00e9',
        parameter_pair=["ln_tau0_1", "delta_3"], residual_rms=0.04218303694197043,
    ).to_json(),
    lambda capsys: cli_output(
        capsys, ["eigen", "--u", "10", "--a", "1", "--mu-y", "10", "--by", "0.5"]
    ),
    lambda capsys: cli_output(capsys, ["extract", "--u", "-15", "--a", "1", "--mu-y", "10"]),
], ids=["field_table", "ratio_table", "fit", "domain_error", "eigen", "extract"])
def test_json_emitter_contract(capsys, emitter):
    """Every JSON text the package writes is the stdlib's indent-2 layout of its own parse."""
    text = emitter(capsys)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_text_takes_string_keys_only():
    """The stdlib would turn 1 into "1"; a key that is not a string is refused instead."""
    with pytest.raises(TypeError):
        json_text({"table": {1: 0.5}})
