"""The float64 rule, stated once and checked as a property of every public call.

Given any float64 inputs (log-uniform over the whole range, both signs, 0, -0,
subnormals and the maximum), each public function of ``model``, ``analysis`` and
``relaxation``, and each subcommand run in-process through ``cli.main``, ends in
exactly one of:

* finite values, or the documented ``inf`` of ``model_lifetime`` and
  ``zero_field_gap``;
* a ``ValueError`` with a message (CLI: exit 2, usage text and one error line);
* a documented domain error: ``DegenerateParametersError`` from ``fit`` (CLI:
  exit 3, one JSON diagnostic on stderr).

It never warns, returns a NaN, raises another exception or writes other stderr.

Each example is two hypothesis byte strings, one for the library calls and one for
the subcommands, from which every target reads its inputs in turn, so each target
runs on every example.  One engine round per example, not one per target, keeps
the module within about two seconds.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtmpair import analysis, cli, model, relaxation
from qtmpair.record import Record

MAX = float(np.finfo(float).max)
SPECIAL = (0.0, -0.0, 5e-324, float(np.finfo(float).tiny), 1.0, MAX, -MAX)
NUMBERS, EXAMPLE_BYTES = 96, 336     # numbers and bytes per example
SETTINGS = settings(
    derandomize=True, database=None, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class Inputs:
    """Values read in turn from one example's bytes: numbers from its first
    ``3 * NUMBERS`` bytes, small integers and choices from the rest."""

    def __init__(self, raw):
        selector, low, high = np.frombuffer(raw[:3 * NUMBERS], np.uint8).reshape(-1, 3).T
        # any float64: one of SPECIAL half the time, else a random 16-bit word repeated four
        # times as the bit pattern; its top word sets sign and exponent, so the value is
        # log-uniform over the whole range with both signs (inf and NaN made finite)
        bits = (low | high.astype(np.uint64) << 8) * np.uint64(0x0001_0001_0001_0001)
        bits[bits >> 52 & 0x7FF == 0x7FF] ^= np.uint64(1 << 52)
        values = np.where(selector < 128, np.take(SPECIAL, selector % len(SPECIAL)),
                          bits.view(float))
        self.values, self.bytes = values.tolist(), raw[3 * NUMBERS:]

    def number(self):
        return self.values.pop()

    def numbers(self, n):
        return np.array([self.values.pop() for _ in range(n)])

    def _byte(self):
        value, self.bytes = self.bytes[0], self.bytes[1:]
        return value

    def integer(self, lo, hi):
        return lo + self._byte() % (hi - lo + 1)

    def choice(self, options):
        return options[self._byte() % len(options)]


EXAMPLES = st.binary(min_size=EXAMPLE_BYTES, max_size=EXAMPLE_BYTES).map(Inputs)


def model_numbers(x):
    """(u, a, mu_x, mu_y), with a and the moments taken positive: a valid model more often."""
    return (x.number(), *np.abs(x.numbers(3)).tolist())


def params(values):
    return model.ModelParams(*values)


def arrhenius(pairs):
    return relaxation.RelaxationModel([relaxation.ArrheniusProcess(*p) for p in pairs])


def dataset_rows(x):
    """8 to 12 rows (T, tau, sigma or None) of any positive floats, or, so that fits run
    more often, a scattered Arrhenius channel with a barrier of 0 to 20 grid steps, on a
    temperature grid of any nonzero step, with any nonzero prefactor and one sigma (any
    nonzero one) or none."""
    k, steps = x.integer(8, 12), x.integer(0, 20)
    step, tau0, sigma = (abs(v) or 1.0 for v in x.numbers(3).tolist())
    rows = np.abs(x.numbers(3 * k)).reshape(-1, 3).tolist()
    if x.integer(0, 3):
        grid = np.arange(1.0, k + 1.0)
        with np.errstate(all="ignore"):     # an overflow is read as the largest float
            t, tau = step * grid, tau0 * np.exp(steps / grid + 0.1 * np.sin(grid + steps))
        sigmas = [x.choice([None, sigma])] * k
        return list(zip(np.minimum(t, MAX).tolist(), np.minimum(tau, MAX).tolist(), sigmas))
    return [(t, tau, x.choice([None, sigma])) for t, tau, sigma in rows]


def dataset_csv(rows):
    lines = (f"{t!r},{tau!r},{'' if s is None else repr(s)}" for t, tau, s in rows)
    return "\n".join(["T_K,tau_s,sigma_ln_tau", *lines]) + "\n"


def fitted(rows, n):
    data = relaxation.RelaxationDataset([relaxation.LifetimePoint(*row) for row in rows])
    result = relaxation.fit(data, n)
    return result, result.to_json()


def library_calls(x):
    """(target, call, whether inf is a documented value) for every public function."""
    raw, q = x.numbers(4), model_numbers(x)
    bx, by, t, ratio, lo, hi, delta, u = x.numbers(8).tolist()
    fields, times, temps = x.numbers(3), x.numbers(3), x.numbers(3)
    n, label, mode = x.integer(-1, 12), x.choice(model.BASIS_LABELS), x.choice(["paper", "exact"])
    symmetric = x.numbers(10)[[[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]]]
    state = x.choice([
        model.basis_state(label), np.array([model.basis_state(s) for s in "12"]), x.numbers(4),
    ])
    time, u_or_none, sigma = x.choice([t, times]), x.choice([None, u]), x.choice([None, t])
    pairs = x.numbers(2 * x.integer(1, 4)).reshape(-1, 2)
    rows, n_fit, seed = dataset_rows(x), x.integer(1, 2), x.integer(0, 3)
    return [
        ("ModelParams", lambda: params(raw), False),
        ("FieldVector", lambda: model.FieldVector(bx, by), False),
        ("hamiltonian_stack", lambda: model.hamiltonian_stack(params(q), bx, fields), False),
        ("build_hamiltonian",
         lambda: model.build_hamiltonian(params(q), model.FieldVector(bx, by)), False),
        ("eigensystem", lambda: model.eigensystem(symmetric), False),
        ("eigensystem of the model",
         lambda: model.eigensystem(model.hamiltonian_stack(params(q), bx, fields)), False),
        ("zero_field_gap", lambda: model.zero_field_gap(fields, raw[1]), True),
        ("zero_field_values", lambda: model.zero_field_values(fields, raw[1]), False),
        ("zero_field_eigensystem", lambda: model.zero_field_eigensystem(params(q)), False),
        ("moment_expectation", lambda: model.moment_expectation(state, params(q)), False),
        ("evolve", lambda: model.evolve(
            model.basis_state(label), model.hamiltonian_stack(params(q), bx, by), time), False),
        ("sweep_ratio", lambda: analysis.sweep_ratio(lo, hi, n), False),
        ("sweep_field", lambda: analysis.sweep_field(params(q), ratio, n), False),
        ("zeeman_threshold", lambda: analysis.zeeman_threshold(params(q)), False),
        ("ground_splitting", lambda: analysis.ground_splitting(params(q)), False),
        ("tunneling_from_splitting",
         lambda: analysis.tunneling_from_splitting(delta, u_or_none, mode), False),
        ("kelvin_to_gigahertz", lambda: analysis.kelvin_to_gigahertz(delta), False),
        ("ArrheniusProcess", lambda: arrhenius(pairs.tolist()), False),
        ("LifetimePoint", lambda: relaxation.LifetimePoint(u, delta, sigma), False),
        ("parse_dataset_csv", lambda: relaxation.parse_dataset_csv(dataset_csv(rows)), False),
        ("model_lifetime",
         lambda: relaxation.model_lifetime(arrhenius(np.abs(pairs).tolist()), temps), True),
        ("synthesize", lambda: relaxation.synthesize(
            arrhenius(np.abs(pairs).tolist()), temps, abs(t), seed), False),
        ("fit", lambda: fitted(rows, n_fit), False),
    ]


def floats_in(value):
    """Every float that ``value`` holds: in arrays, records, tuples and lists."""
    if isinstance(value, Record):
        for name in value.__slots__:
            yield from floats_in(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        yield from value.ravel().view(float).tolist()
    elif isinstance(value, (float, np.floating)):
        yield float(value)


def check_library_call(target, call, inf_documented):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValueError as err:
            assert str(err), target
            return
        except relaxation.DegenerateParametersError:
            return
        except Exception as err:    # a warning too
            raise AssertionError(f"{target}: {type(err).__name__}: {err}") from err
    values = np.array(list(floats_in(result)))
    assert not np.isnan(values).any(), (target, result)
    assert inf_documented or np.isfinite(values).all(), (target, result)


# ------------------------------------------------------------------ command line

NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")
DOMAIN_ERRORS = {"DatasetError", "DegenerateParameters", "FitError", "FitNotConverged"}


def subcommands(x, data, curve):
    """The argument list of each subcommand; ``fit`` reads ``data`` and may write ``curve``."""
    def number():
        return repr(x.number())

    def positive():     # where a sign is rejected on its own, so that calls reach further
        return repr(abs(x.number()))

    def model_flags():
        u, a, mu_x, mu_y = map(repr, model_numbers(x))
        return ["--u", u, "--a", a, "--mu-x", mu_x, "--mu-y", mu_y]

    def points():
        return ["--points", str(x.integer(-1, 12))]

    def optional(flag):
        value = number()
        return x.choice([[], [flag, value]])

    data.write_text(dataset_csv(dataset_rows(x)))
    processes = [arg for _ in range(x.integer(1, 4))
                 for arg in ("--process", positive(), positive())]
    t_min, t_max = sorted(np.abs(x.numbers(2)).tolist())
    return [
        ["spectrum-ua", "--min", number(), "--max", number(), *points(),
         "--format", x.choice(["csv", "json"])],
        ["spectrum-field", *model_flags(), "--max", positive(), *points(),
         "--format", x.choice(["csv", "json"])],
        ["eigen", *model_flags(), "--bx", number(), "--by", number()],
        ["extract", *optional("--delta"), *optional("--u"), *optional("--a"),
         *optional("--mu-y"), "--mode", x.choice(["paper", "exact", "both"])],
        ["synth", *processes, "--t-min", repr(t_min), "--t-max", repr(t_max), *points(),
         "--noise", positive()],
        ["evolve", *model_flags(), "--bx", number(), "--by", number(),
         "--initial", x.choice(model.BASIS_LABELS), "--t-max", positive(), *points()],
        ["fit", "--input", str(data), "--processes", str(x.integer(1, 2)),
         *x.choice([[], ["--curve-output", str(curve), "--grid-points", "5"]])],
    ]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def check_subcommand(argv, capfd, curve):
    curve.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    out, err = capfd.readouterr()
    command = argv[0]
    if code == 0:
        assert err == "" and not NON_FINITE.search(out), (argv, out, err)
        assert not curve.exists() or "nan" not in curve.read_text(), argv
    elif code == 2:
        lines = err.splitlines()
        assert out == "" and lines[0].startswith(f"usage: qtmpair {command}"), (argv, err)
        assert lines[-1].startswith(f"qtmpair {command}: error: "), (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
    else:
        assert code == 3 and out == "", (argv, code, out, err)
        diagnostic = json.loads(err)    # its message may quote a value; its numbers are finite
        assert diagnostic["error"] in DOMAIN_ERRORS, (argv, err)
        assert all(math.isfinite(v) for v in diagnostic.values() if isinstance(v, float)), err


def test_every_call_is_finite_or_rejected(files, capfd, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)   # one parser for all calls
    data, curve = files / "data.csv", files / "curve.csv"

    @SETTINGS
    @given(EXAMPLES, EXAMPLES)
    def check(x, y):
        for target, call, inf_documented in library_calls(x):
            check_library_call(target, call, inf_documented)
        assert capfd.readouterr() == ("", ""), "a library call wrote to stdout or stderr"
        for argv in subcommands(y, data, curve):
            check_subcommand(argv, capfd, curve)

    check()
