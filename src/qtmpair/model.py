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

import functools
import math
from typing import NamedTuple

import numpy as np

from .constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from .record import Record

BASIS_LABELS = ("1", "1bar", "2", "2bar")

NORM_TOL = 1e-9
# Eigenvalues closer than this, relative to the largest |eigenvalue|, form
# an exactly degenerate cluster.  LAPACK splits exact degeneracies of this
# model by a few machine epsilons; the zero-field ground gap is this small
# only beyond U/A ~ 6e6, where eigenvectors cannot resolve it anyway.
CLUSTER_RTOL = 1e-13
# A projection shorter than this adds no direction when a degenerate
# cluster's basis is pinned; one at least this long always remains.
PIN_MIN_NORM = 1e-3
MAX_ENTRY = np.finfo(float).max / 4     # the parity butterflies add up to four entries
# Rows (first, second, sign) of the butterflies to the unnormalized doublet-parity
# basis (|1>-|1bar>, |1>+|1bar>, |2>+|2bar>, |2>-|2bar>) and back: no 0*x terms,
# so a -0.0 entry stays -0.0.
_TO_PARITY = ([0, 0, 2, 2], [1, 1, 3, 3], np.array([[-1.0], [1.0], [1.0], [-1.0]]))
_FROM_PARITY = ([0, 1, 2, 2], [1, 0, 3, 3], np.array([[1.0], [-1.0], [1.0], [-1.0]]))


class ModelParams(Record):
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
        Pseudospin-pair moment along x (Bohr magnetons), in (0, MAX_ENTRY].
        Basis states |1>, |1bar> carry +-2*mu_x.
    mu_y : float
        Pseudospin-pair moment along y (Bohr magnetons), in (0, MAX_ENTRY].
        Basis states |2>, |2bar> carry +-2*mu_y.
    """

    __slots__ = ("u", "a", "mu_x", "mu_y")

    def __init__(self, u, a, mu_x, mu_y):
        for name, value in (("u", u), ("a", a), ("mu_y", mu_y), ("mu_x", mu_x)):
            if not math.isfinite(value):
                raise ValueError(f"model parameter {name} must be finite, got {value}")
        self._init(float(u), float(a), float(mu_x), float(mu_y))
        if self.a < 0:
            raise ValueError(f"tunneling element a must be >= 0, got {self.a}")
        for name in ("mu_y", "mu_x"):
            value = getattr(self, name)
            if not 0 < value <= MAX_ENTRY:     # so +-2 * mu times a population stays finite
                rule = "positive" if value <= 0 else f"at most {MAX_ENTRY}"
                raise ValueError(f"moment {name} must be {rule}, got {value}")


class FieldVector(Record):
    """Applied magnetic field in tesla, in the x-y plane of the pair moments."""

    __slots__ = ("bx", "by")

    def __init__(self, bx=0.0, by=0.0):
        self._init(bx, by)
        if not (math.isfinite(self.bx) and math.isfinite(self.by)):
            raise ValueError(f"field components must be finite, got {self}")


class Moment(NamedTuple):
    """Magnetic moment expectation in Bohr magnetons."""

    mx: float
    my: float


class EigenSystem(Record):
    """Sorted spectral decomposition of one or a stack of 4x4 Hamiltonians.

    ``values`` (shape ``(..., 4)``) are the eigenvalues in kelvin,
    ascending.  ``vectors`` (shape ``(..., 4, 4)``) holds the orthonormal
    eigenvectors as columns aligned with ``values``.  In each column the
    amplitude of largest magnitude is made positive, the first one where
    several tie.  Ties come from symmetry, as +-1/sqrt(2) in
    (|1> - |1bar>)/sqrt(2), and are exact: in the doublet-parity basis
    that state decouples exactly at Bx = 0, with the level -0.0, as does
    (|2> - |2bar>)/sqrt(2) at By = 0, with the level U.  Within an exactly
    degenerate cluster the basis is pinned instead: Gram-Schmidt of the
    projections of |1>, |1bar>, |2>, |2bar>, in that order, onto the
    cluster's subspace, each vector with a positive amplitude on the basis
    state it was projected from.  The output is thus deterministic.
    """

    __slots__ = ("values", "vectors")

    def __init__(self, values, vectors):
        self._init(values, vectors)


def _canonical_signs(vectors):
    """Flip columns of a (..., 4, 4) stack so each largest-magnitude entry is positive."""
    lead = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0, -vectors, vectors)


def hamiltonian_stack(params, bx=0.0, by=0.0):
    """Assemble pair Hamiltonians for broadcastable field components.

    In the basis (|1>, |1bar>, |2>, |2bar>) every single-flip pair of
    states is connected by -A, double flips are zero, and the diagonal
    holds the configuration energies shifted by the Zeeman energy
    -mu.B of each basis state:

        diag = (-e1, +e1, U - e2, U + e2)

    with e1 = 2*mu_x*Bx and e2 = 2*mu_y*By (converted to kelvin).

    Parameters
    ----------
    params : ModelParams
    bx, by : float or array_like
        Field components in tesla; their broadcast shape is the stack shape.

    Returns
    -------
    (..., 4, 4) ndarray
        Real symmetric matrices in kelvin.

    Raises
    ------
    ValueError
        If a field component is not finite or a Zeeman energy overflows.
    """
    bx, by = np.asarray(bx, dtype=float), np.asarray(by, dtype=float)
    h = np.full(np.broadcast_shapes(bx.shape, by.shape) + (4, 4), -params.a)
    h[..., [0, 1, 2, 3], [1, 0, 3, 2]] = 0.0
    with np.errstate(over="ignore"):
        e1 = 2.0 * params.mu_x * bx * MU_B_OVER_K_B
        e2 = 2.0 * params.mu_y * by * MU_B_OVER_K_B
        h[..., 0, 0] = -e1
        h[..., 1, 1] = e1
        h[..., 2, 2] = params.u - e2
        h[..., 3, 3] = params.u + e2
    if not np.isfinite(h).all():
        i = _first(~np.isfinite(h).all(axis=(-2, -1)))
        bx, by = np.broadcast_arrays(bx, by)
        raise ValueError(f"Zeeman energy is not finite at field bx={bx[i]}, by={by[i]} T")
    return h


def build_hamiltonian(params, field=FieldVector()):
    """Assemble the 4x4 pair Hamiltonian at one field (see :func:`hamiltonian_stack`).

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
    return hamiltonian_stack(params, field.bx, field.by)


def eigensystem(h):
    """Diagonalize one symmetric 4x4 Hamiltonian or a stack of them.

    All matrices go through one batched LAPACK call (``np.linalg.eigh``).
    ``h`` has shape ``(..., 4, 4)``; the result has ``values`` of shape
    ``(..., 4)`` and ``vectors`` of shape ``(..., 4, 4)``, with
    the conventions of :class:`EigenSystem`.  Raises ``ValueError`` if ``h`` is complex,
    an entry is not finite or beyond ``MAX_ENTRY``, or a matrix is not symmetric.
    """
    if np.iscomplexobj(h):      # a float cast would drop the imaginary part with a warning
        raise ValueError(f"Hamiltonian must be real, got {np.asarray(h).dtype} entries")
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {h.shape}")
    if not (np.abs(h) <= MAX_ENTRY).all():     # NaN fails too
        i = _first(~(np.abs(h) <= MAX_ENTRY).all(axis=(-2, -1)))     # () for one matrix
        bad, at = np.abs(h[i]), f" at index {i}" if h.ndim > 2 else ""
        if not np.isfinite(bad).all():
            raise ValueError(f"Hamiltonian has non-finite entries{at}")
        raise ValueError(f"Hamiltonian entry {bad.max()} exceeds {MAX_ENTRY} in magnitude{at}")
    if not (h == np.swapaxes(h, -1, -2)).all():
        i = _first(~(h == np.swapaxes(h, -1, -2)).all(axis=(-2, -1)))
        raise ValueError("matrix is not symmetric" + (f" at index {i}" if h.ndim > 2 else ""))
    # In the parity basis the model is a tridiagonal chain, diagonal (0, 0, U, U),
    # with the difference states at its ends.  Where h commutes with a doublet
    # swap, that state's row and column are exact zeros; the exact level and
    # vector rest on LAPACK keeping them (no reflector, a QL split there), which
    # test_levels_are_exact_under_doublet_symmetry and
    # test_odd_eigenvectors_are_exact_zero_on_the_other_doublet check.
    rotated = 0.5 * _butterfly(np.swapaxes(_butterfly(h, _TO_PARITY), -1, -2), _TO_PARITY)
    values, parity_vectors = np.linalg.eigh(rotated)
    vectors = _canonical_signs(np.sqrt(0.5) * _butterfly(parity_vectors, _FROM_PARITY))
    scale = np.maximum(-values[..., :1], values[..., 3:])
    close = values[..., 1:] - values[..., :-1] <= CLUSTER_RTOL * scale
    degenerate = close.any(axis=-1)
    if degenerate.any():
        for i in map(tuple, np.argwhere(degenerate)):
            _pin_clusters(values[i], parity_vectors[i], vectors[i], close[i])
    return EigenSystem(values=values, vectors=vectors)


def _butterfly(m, rows):
    """Row j of a (..., 4, n) stack ``m`` to m[first[j]] + sign[j] * m[second[j]]."""
    first, second, sign = rows
    return m.take(first, axis=-2) + sign * m.take(second, axis=-2)


def _pin_clusters(values, parity_vectors, vectors, close):
    """Fix, in place, the basis of each exactly degenerate cluster.

    ``close[j]`` marks eigenpairs j and j+1 as one cluster.  The basis is
    Gram-Schmidt of the projections of |1>, |1bar>, |2>, |2bar>, in that
    order, onto the cluster's subspace, skipping projections that add no
    new direction; the projector is built from ``parity_vectors`` and
    rotated back exactly, so a = 0 gives the identity.  Each vector keeps
    the sign Gram-Schmidt gives it, a positive amplitude on the basis
    state it was projected from: the largest-magnitude rule would let
    rounding choose the sign where two amplitudes are equal by symmetry,
    as in (|2> - |2bar>)/sqrt(2).  LAPACK's sort leaves equal eigenvalues
    in any order, so -0.0 and 0.0 are put in a fixed order too (negative
    zero first).
    """
    edges = [0, *(j + 1 for j in range(3) if not close[j]), 4]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 2:
            continue
        cluster = values[lo:hi]
        values[lo:hi] = cluster[np.lexsort((~np.signbit(cluster), cluster))]
        block = parity_vectors[:, lo:hi]
        projector = 0.5 * _butterfly(_butterfly(block @ block.T, _FROM_PARITY).T, _FROM_PARITY)
        basis = []
        for column in projector:                # P|1>, P|1bar>, ... (P is symmetric)
            for b in basis:
                column = column - b * (b @ column)
            norm = np.linalg.norm(column)
            if norm > PIN_MIN_NORM:
                basis.append(column / norm)
        vectors[:, lo:hi] = np.column_stack(basis)


def zero_field_gap(u, a):
    """Zero-field ground gap (sqrt(U^2 + 16 A^2) - |U|) / 2 for broadcastable ``u``, ``a``.

    8 A^2 / D, D = hypot(U, 4A) + |U|, has no cancellation for |U| >> A; where it overflows or
    8 A^2 underflows, A * A / (D / 8) with the ratio capped at 2.  0 at A = 0, inf beyond float64.
    """
    u, a = np.abs(np.asarray(u, dtype=float)), np.abs(np.asarray(a, dtype=float))
    with np.errstate(all="ignore"):
        eight_a2, d = 8.0 * np.float_power(a, 2.0), np.hypot(u, 4.0 * a) + u
        gap = eight_a2 / d
        redo = ~((eight_a2 >= np.finfo(float).tiny) & (np.maximum(eight_a2, d) < np.inf))
        if redo.any():
            ratio = np.minimum(a / (np.hypot(u / 8.0, a / 2.0) + u / 8.0), 2.0)
            gap = np.where(redo, np.where(a == 0.0, 0.0, a * ratio), gap)
    return gap


def zero_field_values(u, a):
    """Closed-form zero-field eigenvalues for broadcastable ``u`` and ``a``.

    The antisymmetric combinations (|1> - |1bar>)/sqrt(2) and
    (|2> - |2bar>)/sqrt(2) are exact eigenstates at 0 and U.  The
    symmetric combinations mix through the 2x2 block [[0, -2A], [-2A, U]],
    whose levels min(0, U) - gap and max(0, U) + gap (:func:`zero_field_gap`)
    bracket the spectrum.  Returns shape ``(..., 4)``, ascending.  Raises
    ``ValueError`` where a level exceeds float64.
    """
    u, a = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(a, dtype=float))
    gap, negative = zero_field_gap(u, a), u < 0
    low, high = np.where(negative, u, 0.0), np.where(negative, 0.0, u)
    with np.errstate(over="ignore"):
        values = np.stack([low - gap, low, high, high + gap], axis=-1)
    if np.isinf(values).any():
        i = _first(np.isinf(values).any(axis=-1))
        raise ValueError(f"zero-field level exceeds float64 at u = {u[i]}, a = {a[i]}")
    return values


def zero_field_eigensystem(params):
    """Closed-form zero-field eigensystem.

    Eigenvalues come from :func:`zero_field_values`; the eigenvectors are
    the antisymmetric doublet combinations and the two eigenvectors of
    the symmetric block.  Output is sorted ascending with the same sign
    convention as :func:`eigensystem`.
    """
    u, a = params.u, params.a
    values = zero_field_values(u, a)
    if a == 0.0:
        # diagonal H = (0, 0, U, U): the basis states, lower doublet first
        vectors = np.eye(4) if u >= 0 else np.eye(4)[:, [2, 3, 0, 1]]
    else:
        half_lo = values[0] / 2.0 if u else -a     # halved with 2A; at U = 0 amplitudes tie
        r = np.hypot(a, half_lo)
        alpha, beta = a / r, -half_lo / r             # symmetric-block ground state
        q = 1.0 / np.sqrt(2.0)
        ground = [alpha * q, alpha * q, beta * q, beta * q]
        x_pair = [-q, q, 0.0, 0.0]                    # eigenvalue 0
        y_pair = [0.0, 0.0, -q, q]                    # eigenvalue U
        top = [half_lo * q / r, half_lo * q / r, a * q / r, a * q / r]
        middle = [x_pair, y_pair] if u >= 0 else [y_pair, x_pair]
        vectors = np.column_stack([ground, *middle, top])
    return EigenSystem(values=values, vectors=_canonical_signs(vectors))


def basis_state(label):
    """Unit state vector for one of the basis labels '1', '1bar', '2', '2bar'."""
    try:
        index = BASIS_LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}") from None
    state = np.zeros(4, dtype=complex)
    state[index] = 1.0
    return state


def _first(bad):
    """Index of the first True in ``bad``: an int along one axis, else a tuple."""
    index = tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
    return index[0] if len(index) == 1 else index


def _check_normalized(state):
    """``state`` as complex and its populations |amplitude|**2; every norm must be 1."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 0 or state.shape[-1] != 4:
        raise ValueError(f"state must have 4 amplitudes, got shape {state.shape}")
    if state.ndim == 1:     # a list of Python floats: faster here, and overflow gives inf silently
        pop = [a * a for a in np.abs(state).tolist()]
        error = abs(math.sqrt(sum(pop)) - 1.0)
        if not error <= NORM_TOL:   # NaN fails too
            raise ValueError(f"state is not normalized (|norm - 1| = {error:.3e})")
    else:
        with np.errstate(over="ignore"):    # a huge amplitude gives an inf norm, rejected below
            pop = np.abs(state) ** 2
            error = abs(np.sqrt(pop.sum(axis=-1)) - 1.0)
        if not (error <= NORM_TOL).all():
            i = _first(~(error <= NORM_TOL))
            raise ValueError(f"state {i} is not normalized (|norm - 1| = {error[i]:.3e})")
    return state, pop


def moment_expectation(state, params):
    """Magnetic moment <psi|M|psi> of normalized states, in Bohr magnetons.

    The moment operator is diagonal in the pseudospin basis with entries
    (+2*mu_x, -2*mu_x) along x and (+2*mu_y, -2*mu_y) along y, so only
    population differences within each doublet contribute.  A single
    state of shape ``(4,)`` gives a :class:`Moment` of floats; states of
    shape ``(..., 4)`` give a :class:`Moment` of arrays of shape ``(...)``.
    """
    state, pop = _check_normalized(state)
    p1, p1bar, p2, p2bar = pop if state.ndim == 1 else (pop[..., k] for k in range(4))
    return Moment(2.0 * params.mu_x * (p1 - p1bar), 2.0 * params.mu_y * (p2 - p2bar))


@functools.lru_cache(maxsize=1)
def _spectrum(data, dtype):
    """Read-only eigenbasis, phase rates and max |rate| of the 4x4 matrix of ``dtype`` ``data``;
    the basis is ``vectors.T`` as C-contiguous complex, as a real-by-complex product casts it."""
    es = eigensystem(np.frombuffer(data, dtype).reshape(4, 4))
    with np.errstate(over="ignore"):
        rates = -2j * np.pi * K_B_OVER_H_GHZ * es.values
    if not np.isfinite(rates).all():
        i = _first(~np.isfinite(rates))
        raise ValueError(f"phase rate of level {i} ({es.values[i]} K) exceeds float64")
    basis = np.ascontiguousarray(es.vectors.T, dtype=complex)
    basis.flags.writeable = rates.flags.writeable = False
    return basis, rates, float(np.abs(rates.imag).max())


def evolve(initial, h, t_ns):
    """Propagate a state coherently for ``t_ns`` nanoseconds under ``h``.

    Diagonalizes ``h`` once, expands the state in the eigenbasis and
    applies the phase factors exp(-i * 2*pi * (k_B/h) * lambda_i * t); a
    splitting of 1 K oscillates at 20.836619 GHz.  The last eigenbasis and
    its phase rates are kept for a call whose ``h`` has the same entries
    and dtype.  ``t_ns`` is a finite scalar, giving a state of shape ``(4,)``,
    or an array of finite times, giving one state per time (shape
    ``(..., 4)``).  The norm is preserved and the map is reversible (t -> -t).
    Raises ``ValueError`` for an ``h`` that :func:`eigensystem` refuses, a
    complex one included, and where a phase rate or a phase exceeds float64.
    """
    initial, _ = _check_normalized(initial)
    h = np.asarray(h)     # cast, or refused if complex, once per new matrix by eigensystem
    if h.dtype.hasobject:     # its bytes are pointers, no memo key: cast it here instead
        h = h.astype(float)
    if initial.shape != (4,) or h.shape != (4, 4):
        raise ValueError(
            f"evolve takes one state (4,) and one 4x4 Hamiltonian, "
            f"got shapes {initial.shape} and {h.shape}"
        )
    t = np.asarray(t_ns, dtype=float)
    basis, rates, top = _spectrum(h.tobytes(), h.dtype)
    # each phase is one rounded product rate * t, so all are finite when top * max|t| is;
    # a NaN or infinite time fails this too (a 0-d .max() is slow)
    phase_t = float(t) if t.ndim == 0 else t[..., None]
    if not math.isfinite(top * (float(np.abs(t).max(initial=0.0)) if t.ndim else phase_t)):
        finite = np.isfinite(t)
        with np.errstate(over="ignore"):
            i = _first(~finite if not finite.all() else ~np.isfinite(top * t))
        at = f" at index {i}" if t.ndim else ""
        if not finite.all():
            raise ValueError(f"time must be finite, got {t[i]}{at}")
        raise ValueError(f"phase exceeds float64 at t = {t[i]} ns{at}")
    # .dot reaches the same BLAS product as @ with about half the per-call dispatch here
    return (basis.dot(initial) * np.exp(rates * phase_t)).dot(basis)
