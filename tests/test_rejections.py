"""Each library argument check, stated once: one call and its full message per row.

A call that a golden CLI case already makes with the same arguments is stated
by the golden corpus only, and has no row here.
"""

import math
import re

import numpy as np
import pytest

from qtmpair.analysis import (
    kelvin_to_gigahertz,
    sweep_field,
    sweep_ratio,
    tunneling_from_splitting,
)
from qtmpair.model import (
    FieldVector,
    ModelParams,
    basis_state,
    eigensystem,
    evolve,
    hamiltonian_stack,
)
from qtmpair.relaxation import (
    ArrheniusProcess,
    LifetimePoint,
    RelaxationDataset,
    RelaxationModel,
    fit,
    parse_dataset_csv,
    synthesize,
)

P10 = ModelParams(u=10.0, a=1.0, mu_x=10.0, mu_y=10.0)
H10 = hamiltonian_stack(P10)
HUGE_A = hamiltonian_stack(ModelParams(u=1.0, a=1e308, mu_x=1.0, mu_y=1.0))
GRID = hamiltonian_stack(P10, 0.0, np.zeros((2, 3)))      # a 2 x 3 field grid
TWO_STATES = np.tile(basis_state("1"), (2, 1))
# Hermitian, with levels 0.382, 2.618, 3 and 4; its real part alone has 1, 2, 3 and 4
HERMITIAN = np.diag([1.0, 2.0, 3.0, 4.0]) + np.pad([[0.0, 1j], [-1j, 0.0]], (0, 2))
SINGLE = RelaxationModel(processes=(ArrheniusProcess(tau0=2.1e-3, delta=16.1),))
GRID_30 = np.geomspace(0.4, 30.0, 30)
THIRTY = synthesize(SINGLE, GRID_30, 0.0)
SEVEN = synthesize(SINGLE, np.geomspace(0.4, 30.0, 7), 0.0, seed=0)


def spoiled(h, *changes):
    """A copy of ``h`` with each ``(index, value)`` of ``changes`` written in."""
    h = np.array(h)
    for index, value in changes:
        h[index] = value
    return h


def row(call, message, error=ValueError, *, id):
    """One call, the full message it must raise with, and the error type."""
    return pytest.param(call, message, error, id=id)


@pytest.mark.parametrize("call, message, error", [
    # -------------------------------------------------------------- model
    row(lambda: ModelParams(u=np.nan, a=1.0, mu_x=10.0, mu_y=10.0),
        "model parameter u must be finite, got nan", id="params-nan-u"),
    row(lambda: ModelParams(u=10.0, a=1.0, mu_x=10.0, mu_y=0.0),
        "moment mu_y must be positive, got 0.0", id="params-zero-moment"),
    row(lambda: FieldVector(by=np.inf),
        "field components must be finite, got FieldVector(bx=0.0, by=inf)", id="field-inf"),
    row(lambda: hamiltonian_stack(P10, np.array([0.0, 1e308]), 0.0),
        "Zeeman energy is not finite at field bx=1e+308, by=0.0 T", id="zeeman-stack-overflow"),
    row(lambda: eigensystem(np.eye(3)),
        "expected a 4x4 matrix or a stack of them, got shape (3, 3)", id="eigensystem-3x3"),
    row(lambda: eigensystem(np.zeros(4)),
        "expected a 4x4 matrix or a stack of them, got shape (4,)", id="eigensystem-vector"),
    row(lambda: eigensystem(0.0),
        "expected a 4x4 matrix or a stack of them, got shape ()", id="eigensystem-scalar"),
    row(lambda: eigensystem(HERMITIAN),
        "Hamiltonian must be real, got complex128 entries", id="eigensystem-complex"),
    row(lambda: eigensystem(spoiled(H10, ((2, 3), np.nan), ((3, 2), np.nan))),
        "Hamiltonian has non-finite entries", id="eigensystem-nan"),
    row(lambda: eigensystem(np.stack([H10, np.full((4, 4), np.inf)])),
        "Hamiltonian has non-finite entries at index 1", id="eigensystem-stack-inf"),
    # the first bad matrix of the grid decides the message
    row(lambda: eigensystem(spoiled(GRID, ((0, 1, 0, 0), 5e307), ((1, 2, 3, 3), np.inf))),
        "Hamiltonian entry 5e+307 exceeds 4.4942328371557893e+307 in magnitude at index (0, 1)",
        id="eigensystem-grid-max-entry"),
    # the Hamiltonian of A = 1e308 holds -1e308 entries: the bad matrices are found by magnitude
    row(lambda: eigensystem(np.stack([H10, HUGE_A, np.full((4, 4), np.inf)])),
        "Hamiltonian entry 1e+308 exceeds 4.4942328371557893e+307 in magnitude at index 1",
        id="eigensystem-stack-negative-entry"),
    row(lambda: eigensystem(spoiled(H10, ((0, 1), 0.5))),
        "matrix is not symmetric", id="eigensystem-asymmetric"),
    row(lambda: eigensystem(np.stack([H10, H10, spoiled(H10, ((0, 1), 0.5))])),
        "matrix is not symmetric at index 2", id="eigensystem-stack-asymmetric"),
    row(lambda: basis_state("3"),
        "unknown basis label '3', expected one of ('1', '1bar', '2', '2bar')", id="basis-label"),
    row(lambda: evolve(TWO_STATES, np.eye(4), 1.0),
        "evolve takes one state (4,) and one 4x4 Hamiltonian, got shapes (2, 4) and (4, 4)",
        id="evolve-states"),
    row(lambda: evolve(basis_state("1"), np.zeros((2, 4, 4)), 1.0),
        "evolve takes one state (4,) and one 4x4 Hamiltonian, got shapes (4,) and (2, 4, 4)",
        id="evolve-matrices"),
    row(lambda: evolve(basis_state("1"), HERMITIAN, 1.0),
        "Hamiltonian must be real, got complex128 entries", id="evolve-complex"),
    # ----------------------------------------------------------- analysis
    row(lambda: sweep_ratio(5.0, 5.0, 10),
        "need finite ratio_min < ratio_max, got 5.0 and 5.0", id="sweep-ratio-empty-range"),
    row(lambda: sweep_ratio(0.0, 10.0, 1),
        "n_points must be an integer >= 2, got 1", id="sweep-ratio-one-point"),
    # the range holds two float64 values, so a 4-point grid would repeat them
    row(lambda: sweep_ratio(1.0, 1.0000000000000002, 4),
        "4 points from 1.0 to 1.0000000000000002 repeat a float64 value",
        id="sweep-ratio-repeated-grid"),
    # |U| / (2 mu_y) underflows to 0 although U is not 0
    row(lambda: sweep_field(ModelParams(u=1e-300, a=1.0, mu_x=1.0, mu_y=1e300), 2.0, 3),
        "field scale B_Zt vanishes at u = 1e-300, mu_y = 1e+300; field sweep is undefined",
        id="sweep-field-threshold-underflow"),
    row(lambda: tunneling_from_splitting(-0.1, mode="paper"),
        "splitting delta must be a finite value >= 0, got -0.1", id="negative-splitting"),
    row(lambda: tunneling_from_splitting(0.3, mode="exact"),
        "exact inversion requires a finite u >= 0, got None", id="exact-inversion-no-u"),
    row(lambda: tunneling_from_splitting(0.3, u=-1.0, mode="exact"),
        "exact inversion requires a finite u >= 0, got -1.0", id="exact-inversion-negative-u"),
    row(lambda: tunneling_from_splitting(0.3, u=math.nan, mode="exact"),
        "exact inversion requires a finite u >= 0, got nan", id="exact-inversion-nan-u"),
    row(lambda: tunneling_from_splitting(0.3, u=1.0, mode="fast"),
        "mode must be 'paper' or 'exact', got 'fast'", id="extraction-mode"),
    row(lambda: kelvin_to_gigahertz(math.nan),
        "delta must be finite with a finite frequency, got nan", id="frequency-nan"),
    # --------------------------------------------------------- relaxation
    row(lambda: ArrheniusProcess(tau0=1.0, delta=-0.1),
        "barrier delta must be >= 0 and finite, got -0.1", id="negative-barrier"),
    row(lambda: RelaxationModel(processes=()),
        "need 1..4 processes, got 0", id="model-no-process"),
    row(lambda: RelaxationModel(processes=((2.1e-3, 16.1),)),
        "processes must be ArrheniusProcess instances", TypeError, id="model-type"),
    row(lambda: LifetimePoint(t_kelvin=-1.0, tau_s=1.0),
        "temperature must be positive, got -1.0", id="point-negative-temperature"),
    row(lambda: LifetimePoint(t_kelvin=1.0, tau_s=0.0),
        "lifetime must be positive, got 0.0", id="point-zero-lifetime"),
    row(lambda: LifetimePoint(t_kelvin=1.0, tau_s=1.0, sigma_ln_tau=0.0),
        "sigma_ln_tau must be positive when given, got 0.0", id="point-zero-sigma"),
    row(lambda: RelaxationDataset(points=()),
        "dataset must contain at least one point", id="dataset-no-point"),
    row(lambda: RelaxationDataset(points=((1.0, 2.0),)),
        "points must be LifetimePoint instances", TypeError, id="dataset-type"),
    row(lambda: synthesize(SINGLE, [], 0.05, seed=0),
        "dataset must contain at least one point", id="synthesize-no-temperature"),
    row(lambda: synthesize(SINGLE, GRID_30, -0.1, seed=0),
        "noise_sigma must be finite and >= 0, got -0.1", id="synthesize-negative-noise"),
    row(lambda: fit(SEVEN, 2),
        "need at least 8 points to fit 2 processes, got 7", id="fit-undersized"),
    row(lambda: fit(SEVEN, 0),
        "n_processes must be an integer in 1..4, got 0", id="fit-no-process"),
    row(lambda: fit(SEVEN, 5),
        "n_processes must be an integer in 1..4, got 5", id="fit-five-processes"),
    row(lambda: fit(THIRTY, 1.5),
        "n_processes must be an integer in 1..4, got 1.5", id="fit-fractional-processes"),
    row(lambda: fit(THIRTY, 2.0),
        "n_processes must be an integer in 1..4, got 2.0", id="fit-float-processes"),
    row(lambda: parse_dataset_csv("temp,tau\n1.0,2.0\n"),
        "dataset header must be T_K,tau_s[,sigma_ln_tau][,mode], got temp,tau",
        id="csv-unknown-header"),
    row(lambda: parse_dataset_csv("T_K,tau_s,tau_s\n1.0,2.0,3.0\n"),
        "dataset header must be T_K,tau_s[,sigma_ln_tau][,mode], got T_K,tau_s,tau_s",
        id="csv-repeated-column"),
    # blank rows are skipped, so a file of blank rows holds no point
    row(lambda: parse_dataset_csv("T_K,tau_s\n\n , \n"),
        "dataset must contain at least one point", id="csv-blank-rows"),
    row(lambda: parse_dataset_csv("T_K,tau_s\n1.0,2.0\n1.0,2.0,0.5\n"),
        "line 3: 3 cells for 2 columns", id="csv-extra-cell"),
    row(lambda: parse_dataset_csv("T_K,tau_s\n1.0\n"),
        "line 2: missing T_K/tau_s cells", id="csv-one-cell-row"),
    row(lambda: parse_dataset_csv("T_K,tau_s\n1.0,2.0\n2.0,abc\n"),
        "line 3, column tau_s: could not convert string to float: 'abc'", id="csv-bad-tau"),
    row(lambda: parse_dataset_csv("T_K,tau_s,sigma_ln_tau\n1.0,2.0,\n2.0,3.0,0.1\n3.0,4.0,x\n"),
        "line 4, column sigma_ln_tau: could not convert string to float: 'x'",
        id="csv-bad-sigma"),
    row(lambda: parse_dataset_csv("T_K,tau_s\n1.0,2.0\n-3.0,4.0\n"),
        "line 3: temperature must be positive, got -3.0", id="csv-negative-temperature"),
    row(lambda: parse_dataset_csv('T_K,tau_s,mode\n1.0,2.0,DC\n1.0,2.0,"a,b"\n'),
        "line 3: mode tag 'a,b' cannot be written to CSV unchanged", id="csv-comma-tag"),
])
def test_library_rejects_malformed_arguments(call, message, error):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
