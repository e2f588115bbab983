"""Four-state pseudospin model of a coupled anisotropic 4f ion pair.

The ground manifold of the pair is spanned by the basis
``{|1>, |1bar>, |2>, |2bar>}``: two time-reversal symmetric doublets,
the ferromagnetically coupled pair (|1>, |1bar>) with moments +-2*mu_x
along x and the antiferromagnetically coupled pair (|2>, |2bar>) with
moments +-2*mu_y along y, separated by the exchange/dipolar splitting U.
A single pseudospin flip connects adjacent basis states with tunneling
matrix element A; double flips carry no matrix element.

Units: energies as E/k_B in kelvin, fields in tesla, moments in Bohr
magnetons, time in nanoseconds.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from .jacobi import jacobi_eigh

BASIS_LABELS = ("1", "1bar", "2", "2bar")

NORM_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one dimer.

    Attributes
    ----------
    u : float
        Doublet splitting U (energy / k_B, kelvin).  Positive when the
        ferromagnetic doublet is lower, negative for an antiferromagnetic
        ground doublet.
    a : float
        Single-flip tunneling matrix element A (kelvin), stored >= 0;
        the spectrum depends only on A**2.
    mu_x : float
        Pseudospin-pair moment along x (Bohr magnetons), > 0.  Basis
        states |1>, |1bar> carry +-2*mu_x.
    mu_y : float
        Pseudospin-pair moment along y (Bohr magnetons), > 0.  Basis
        states |2>, |2bar> carry +-2*mu_y.
    """

    u: float
    a: float
    mu_x: float
    mu_y: float

    def __post_init__(self):
        for name in ("u", "a", "mu_y", "mu_x"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"model parameter {name} must be finite, got {value}")
        if self.a < 0:
            raise ValueError(f"tunneling element a must be >= 0, got {self.a}")
        for name in ("mu_y", "mu_x"):
            if getattr(self, name) <= 0:
                raise ValueError(f"moment {name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class FieldVector:
    """Applied magnetic field in tesla.

    The model's moments lie in the x-y plane, so ``bz`` couples to
    nothing; it is accepted for interface completeness only.
    """

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.bx, self.by, self.bz)):
            raise ValueError(f"field components must be finite, got {self}")


ZERO_FIELD = FieldVector()


class Moment(NamedTuple):
    """Magnetic moment expectation in Bohr magnetons (mz is always 0)."""

    mx: float
    my: float
    mz: float = 0.0


@dataclass(frozen=True)
class EigenSystem:
    """Sorted spectral decomposition of the 4x4 Hamiltonian.

    ``values`` are the eigenvalues in kelvin, ascending.  ``vectors``
    holds the orthonormal eigenvectors as columns aligned with
    ``values``; in each column the component of largest magnitude is
    made positive so the output is deterministic.  Within a degenerate
    eigenvalue cluster only the spanned subspace is meaningful.
    """

    values: np.ndarray
    vectors: np.ndarray


def _canonical_signs(vectors):
    """Flip eigenvector columns so the largest-magnitude entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def build_hamiltonian(params, field=ZERO_FIELD):
    """Assemble the 4x4 pair Hamiltonian, optionally with Zeeman terms.

    In the basis (|1>, |1bar>, |2>, |2bar>) every single-flip pair of
    states is connected by -A, double flips are zero, and the diagonal
    holds the configuration energies shifted by the Zeeman energy
    -mu.B of each basis state:

        diag = (-e1, +e1, U - e2, U + e2)

    with e1 = 2*mu_x*Bx and e2 = 2*mu_y*By (converted to kelvin).

    Parameters
    ----------
    params : ModelParams
    field : FieldVector, optional
        Defaults to zero field, which gives the bare tunneling matrix.

    Returns
    -------
    (4, 4) ndarray
        Real symmetric matrix in kelvin.
    """
    if field is None:
        field = ZERO_FIELD
    elif not isinstance(field, FieldVector):
        field = FieldVector(*(float(v) for v in np.atleast_1d(field)))
    if field.bz != 0.0:
        warnings.warn(
            "field component bz has no effect: the pair moments lie in the x-y plane",
            stacklevel=2,
        )
    a = params.a
    e1 = 2.0 * params.mu_x * field.bx * MU_B_OVER_K_B
    e2 = 2.0 * params.mu_y * field.by * MU_B_OVER_K_B
    return np.array(
        [
            [-e1, 0.0, -a, -a],
            [0.0, e1, -a, -a],
            [-a, -a, params.u - e2, 0.0],
            [-a, -a, 0.0, params.u + e2],
        ]
    )


def eigensystem(h):
    """Numerically diagonalize a symmetric 4x4 Hamiltonian.

    Uses cyclic Jacobi rotations (see :mod:`qtmpair.jacobi`).  Raises
    ``ValueError`` if ``h`` is not symmetric as stored, and propagates
    :class:`~qtmpair.jacobi.DiagonalizationError` if the rotation sweep
    cap is hit (e.g. for NaN input).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    if not np.array_equal(h, h.T, equal_nan=True):
        raise ValueError("matrix is not symmetric")
    values, vectors = jacobi_eigh(h)
    return EigenSystem(values=values, vectors=_canonical_signs(vectors))


def zero_field_eigensystem(params):
    """Closed-form zero-field eigensystem.

    The antisymmetric combinations (|1> - |1bar>)/sqrt(2) and
    (|2> - |2bar>)/sqrt(2) are exact eigenstates at 0 and U.  The
    symmetric combinations mix through the 2x2 block
    [[0, -2A], [-2A, U]], giving the pair (U -+ sqrt(U^2 + 16A^2))/2
    that brackets the spectrum.  Output is sorted ascending with the
    same sign convention as :func:`eigensystem`.
    """
    u, a = params.u, params.a
    if a == 0.0:
        values = np.array([0.0, 0.0, u, u])
        vectors = np.eye(4)
    else:
        s = np.hypot(u, 4.0 * a)
        lam_lo = (u - s) / 2.0
        lam_hi = (u + s) / 2.0
        r = np.hypot(2.0 * a, lam_lo)
        alpha, beta = 2.0 * a / r, -lam_lo / r        # symmetric-block ground state
        q = 1.0 / np.sqrt(2.0)
        values = np.array([lam_lo, 0.0, u, lam_hi])
        vectors = np.array(
            [
                [alpha * q, -q, 0.0, lam_lo * q / r],
                [alpha * q, q, 0.0, lam_lo * q / r],
                [beta * q, 0.0, -q, 2.0 * a * q / r],
                [beta * q, 0.0, q, 2.0 * a * q / r],
            ]
        )
    order = np.argsort(values, kind="stable")
    return EigenSystem(values=values[order], vectors=_canonical_signs(vectors[:, order]))


def basis_state(label):
    """Unit state vector for one of the basis labels '1', '1bar', '2', '2bar'."""
    try:
        index = BASIS_LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}") from None
    state = np.zeros(4, dtype=complex)
    state[index] = 1.0
    return state


def _check_normalized(state):
    state = np.asarray(state, dtype=complex)
    if state.shape != (4,):
        raise ValueError(f"state must have 4 amplitudes, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized (|norm - 1| = {abs(norm - 1.0):.3e})")
    return state


def moment_expectation(state, params):
    """Magnetic moment <psi|M|psi> of a normalized state, in Bohr magnetons.

    The moment operator is diagonal in the pseudospin basis with entries
    (+2*mu_x, -2*mu_x) along x and (+2*mu_y, -2*mu_y) along y, so only
    population differences within each doublet contribute.
    """
    state = _check_normalized(state)
    pop = np.abs(state) ** 2
    mx = 2.0 * params.mu_x * (pop[0] - pop[1])
    my = 2.0 * params.mu_y * (pop[2] - pop[3])
    return Moment(mx=float(mx), my=float(my), mz=0.0)


def evolve(initial, h, t_ns):
    """Propagate a state coherently for ``t_ns`` nanoseconds under ``h``.

    Expands the state in the eigenbasis and applies the phase factors
    exp(-i * 2*pi * (k_B/h) * lambda_i * t); a splitting of 1 K
    oscillates at 20.836619 GHz.  The norm is preserved and the map is
    reversible (t -> -t).
    """
    initial = _check_normalized(initial)
    es = eigensystem(h)
    overlaps = es.vectors.T @ initial
    phases = np.exp(-2j * np.pi * K_B_OVER_H_GHZ * es.values * t_ns)
    return es.vectors @ (overlaps * phases)
