import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmpair import model
from qtmpair.analysis import ground_splitting, sweep_field
from qtmpair.constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from qtmpair.jacobi import jacobi_eigh
from qtmpair.model import (
    FieldVector,
    ModelParams,
    basis_state,
    build_hamiltonian,
    eigensystem,
    evolve,
    hamiltonian_stack,
    moment_expectation,
    zero_field_eigensystem,
)

P10 = ModelParams(u=10.0, a=1.0, mu_x=10.0, mu_y=10.0)
B_ZT = 10.0 / (2.0 * 10.0 * MU_B_OVER_K_B)

# Ground amplitudes at U/A = 10, frozen from a dense-solver cross-check of
# the symmetric 2x2 block [[0, -2A], [-2A, U]].
GROUND_AMP_LARGE = 0.6943480198872284
GROUND_AMP_SMALL = 0.13371921058204453


def closed_form_values(u, a):
    """Independent oracle: bracket eigenvalues (U -+ sqrt(U^2+16A^2))/2."""
    s = math.sqrt(u * u + 16.0 * a * a)
    return sorted([(u - s) / 2.0, 0.0, u, (u + s) / 2.0])


def projector(es, indices):
    v = es.vectors[:, list(indices)]
    return v @ v.T


def cluster_indices(values, gap=1e-3):
    """Group sorted eigenvalues into degenerate clusters."""
    clusters, current = [], [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= gap:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


# ---------------------------------------------------------------- builder

@pytest.mark.parametrize("u", [1.0, -1.0, 1e300, -1e300])
@pytest.mark.parametrize("a", [5e307, 8e307, 8.9e307])
def test_zero_field_closed_form_is_finite_where_the_levels_fit(u, a):
    # 4 A overflows here: the levels were -inf and inf, with a warning
    es = zero_field_eigensystem(ModelParams(u=u, a=a, mu_x=1.0, mu_y=1.0))
    gap = float(np.hypot(u / 4.0, a)) * 2.0             # half of sqrt(U^2 + 16 A^2)
    np.testing.assert_allclose(es.values[[0, 3]], [u / 2.0 - gap, u / 2.0 + gap], rtol=1e-15)
    np.testing.assert_allclose(es.vectors.T @ es.vectors, np.eye(4), atol=1e-15)
    # H v = lambda v, both sides scaled by 1/A
    h = hamiltonian_stack(ModelParams(u=u / a, a=1.0, mu_x=1.0, mu_y=1.0))
    np.testing.assert_allclose(h @ es.vectors, es.vectors * (es.values / a), atol=1e-14)


def test_zero_field_levels_beyond_float64_are_rejected_naming_a():
    message = r"^zero-field level exceeds float64 at u = 1.0, a = 1e\+308$"
    with pytest.raises(ValueError, match=message):
        zero_field_eigensystem(ModelParams(u=1.0, a=1e308, mu_x=1.0, mu_y=1.0))
    with pytest.raises(ValueError, match=r"at u = -1.7e\+308, a = 5e\+307$"):
        model.zero_field_values([-1.7e308, -1.7e308], [1e300, 5e307])
    with pytest.raises(ValueError, match=r"at u = 1.7e\+308, a = 5e\+307$"):    # index (1, 1)
        model.zero_field_values(np.array([[1.0], [1.7e308]]), [1.0, 5e307])


def test_zero_field_matrix_structure():
    h = build_hamiltonian(P10)
    expected = np.array(
        [
            [0.0, 0.0, -1.0, -1.0],
            [0.0, 0.0, -1.0, -1.0],
            [-1.0, -1.0, 10.0, 0.0],
            [-1.0, -1.0, 0.0, 10.0],
        ]
    )
    np.testing.assert_array_equal(h, expected)


def test_diagonal_compensation_at_threshold_field():
    # E^Z_2 = U exactly at the threshold field, emptying the |2> entry
    h = build_hamiltonian(P10, FieldVector(by=B_ZT))
    np.testing.assert_allclose(np.diag(h), [0.0, 0.0, 0.0, 20.0], atol=1e-12)


def test_no_tunneling_matrix_is_diagonal():
    h = build_hamiltonian(ModelParams(u=10.0, a=0.0, mu_x=10.0, mu_y=10.0))
    np.testing.assert_array_equal(h, np.diag([0.0, 0.0, 10.0, 10.0]))


def test_general_field_diagonal():
    h = build_hamiltonian(P10, FieldVector(bx=0.5, by=0.25))
    e1 = 2.0 * 10.0 * 0.5 * MU_B_OVER_K_B
    e2 = 2.0 * 10.0 * 0.25 * MU_B_OVER_K_B
    np.testing.assert_allclose(np.diag(h), [-e1, e1, 10.0 - e2, 10.0 + e2], rtol=1e-15)
    np.testing.assert_array_equal(h, h.T)


def test_rejects_nonfinite_inputs():
    with pytest.raises(ValueError):
        ModelParams(u=np.nan, a=1.0, mu_x=10.0, mu_y=10.0)
    with pytest.raises(ValueError):
        ModelParams(u=10.0, a=-1.0, mu_x=10.0, mu_y=10.0)
    with pytest.raises(ValueError):
        ModelParams(u=10.0, a=1.0, mu_x=10.0, mu_y=0.0)
    with pytest.raises(ValueError):
        FieldVector(by=np.inf)


def test_integer_parameters_equal_float_parameters():
    """Integer fields are coerced to float: every public function gives the
    arrays that the same float parameters give, bit for bit."""
    ints, floats = ModelParams(10, 1, 10, 10), ModelParams(10.0, 1.0, 10.0, 10.0)
    assert all(type(getattr(ints, name)) is float for name in ("u", "a", "mu_x", "mu_y"))
    by, times = np.array([0.0, 0.5, B_ZT]), np.linspace(0.0, 2.0, 7)
    state = evolve(basis_state("1"), hamiltonian_stack(floats, by=0.5), times)

    def outputs(params):
        h = hamiltonian_stack(params, by=by)
        es, zero, table = eigensystem(h), zero_field_eigensystem(params), sweep_field(params, 2.0, 9)
        return (
            h, es.values, es.vectors, evolve(basis_state("2"), h[1], times),
            *moment_expectation(state, params), zero.values, zero.vectors,
            table.eigenvalues, table.ground_moments, ground_splitting(params),
        )

    from_ints = outputs(ints)
    assert from_ints[0].dtype == np.float64
    np.testing.assert_allclose(np.diag(from_ints[0][1]), [0, 0, 3.28286, 16.71714], atol=1e-5)
    for a, b in zip(from_ints, outputs(floats), strict=True):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------- eigensystem

def test_eigenvalues_at_ratio_ten():
    es = eigensystem(build_hamiltonian(P10))
    np.testing.assert_allclose(es.values, closed_form_values(10.0, 1.0), rtol=1e-12, atol=1e-12)


def test_ground_state_amplitudes_at_ratio_ten():
    es = eigensystem(build_hamiltonian(P10))
    np.testing.assert_allclose(
        es.vectors[:, 0],
        [GROUND_AMP_LARGE, GROUND_AMP_LARGE, GROUND_AMP_SMALL, GROUND_AMP_SMALL],
        atol=1e-12,
    )
    # two-decimal regression against the published amplitudes
    np.testing.assert_allclose(es.vectors[:, 0], [0.69, 0.69, 0.13, 0.13], atol=0.005)


def test_diagonal_hamiltonian_projectors():
    es = eigensystem(np.diag([0.0, 0.0, 10.0, 10.0]))
    np.testing.assert_array_equal(es.values, [0.0, 0.0, 10.0, 10.0])
    np.testing.assert_allclose(projector(es, [0, 1]), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(projector(es, [2, 3]), np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12)


def test_stack_matches_single_field_hamiltonian():
    rng = np.random.default_rng(8)
    bx, by = rng.uniform(-2.0, 2.0, (2, 3, 5))
    stack = hamiltonian_stack(P10, bx, by)
    assert stack.shape == (3, 5, 4, 4)
    for i in np.ndindex(3, 5):
        np.testing.assert_array_equal(
            stack[i], build_hamiltonian(P10, FieldVector(bx=bx[i], by=by[i]))
        )
    # a scalar component broadcasts against an array
    along_y = hamiltonian_stack(P10, 0.0, by)
    assert along_y.shape == (3, 5, 4, 4)
    np.testing.assert_array_equal(along_y[1, 2], build_hamiltonian(P10, FieldVector(by=by[1, 2])))
    np.testing.assert_array_equal(hamiltonian_stack(P10), build_hamiltonian(P10))


def test_zeeman_overflow_is_rejected_with_the_field():
    with pytest.raises(ValueError, match="by=1e"):
        build_hamiltonian(P10, FieldVector(by=1e308))
    with pytest.raises(ValueError, match="bx=1e"):
        hamiltonian_stack(P10, np.array([0.0, 1e308]), 0.0)


def test_rejects_nonfinite_matrix():
    h = build_hamiltonian(P10)
    h[2, 3] = h[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem(h)
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem(np.stack([build_hamiltonian(P10), np.full((4, 4), np.inf)]))


def test_rejects_asymmetric_matrix():
    h = build_hamiltonian(P10)
    h[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        eigensystem(h)


def test_canonical_sign_convention():
    es = eigensystem(build_hamiltonian(P10))
    for j in range(4):
        k = np.argmax(np.abs(es.vectors[:, j]))
        assert es.vectors[k, j] > 0


def test_sign_ties_are_exact_and_first_amplitude_positive():
    """At zero field and for fields along x or y alone, amplitudes that tie
    for the largest magnitude (within 1e-9, as +-1/sqrt(2) in
    (|1> - |1bar>)/sqrt(2)) are exactly equal in magnitude, so no rounding
    picks the sign: the first of them is positive."""
    rng = np.random.default_rng(4321)
    hamiltonians = []
    for axis in (None, "bx", "by"):
        for _ in range(2000):
            params = ModelParams(
                u=rng.uniform(-50.0, 50.0),
                a=math.exp(rng.uniform(math.log(1e-3), math.log(10.0))),
                mu_x=rng.uniform(1.0, 20.0), mu_y=rng.uniform(1.0, 20.0),
            )
            field = {} if axis is None else {axis: rng.uniform(-2.0, 2.0)}
            hamiltonians.append(build_hamiltonian(params, FieldVector(**field)))
    vectors = eigensystem(np.stack(hamiltonians)).vectors
    columns = np.swapaxes(vectors, -1, -2).reshape(-1, 4)
    magnitude = np.abs(columns)
    largest = magnitude.max(axis=1, keepdims=True)
    tied = magnitude >= largest - 1e-9
    with_tie = tied.sum(axis=1) > 1
    assert with_tie.sum() >= 6000                # every zero-field column ties
    assert np.all(magnitude[tied] == np.broadcast_to(largest, tied.shape)[tied])
    first = columns[np.arange(len(columns)), np.argmax(tied, axis=1)]
    assert np.all(first[with_tie] > 0.0)


def test_lapack_matches_jacobi_oracle_on_random_fields():
    """eigensystem (one batched LAPACK call) against the independent Jacobi
    solver on 500 random (U, A, mu_x, mu_y, Bx, By): eigenvalues to
    1e-12 max(1, |H|), spectral projectors of each resolved cluster to 1e-9."""
    rng = np.random.default_rng(2026)
    hamiltonians = []
    for _ in range(500):
        params = ModelParams(
            u=rng.uniform(-50.0, 50.0), a=math.exp(rng.uniform(math.log(1e-3), math.log(10.0))),
            mu_x=rng.uniform(1.0, 20.0), mu_y=rng.uniform(1.0, 20.0),
        )
        field = FieldVector(bx=rng.uniform(-2.0, 2.0), by=rng.uniform(-2.0, 2.0))
        hamiltonians.append(build_hamiltonian(params, field))
    batch = eigensystem(np.stack(hamiltonians))
    for h, values, vectors in zip(hamiltonians, batch.values, batch.vectors):
        ref_values, ref_vectors = jacobi_eigh(h)
        scale = max(1.0, np.abs(ref_values).max())
        np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=1e-12 * scale)
        # levels closer than 1e-6 |H| are grouped: their individual vectors
        # are determined only to eps |H| / gap
        for cluster in cluster_indices(ref_values, gap=1e-6 * scale):
            np.testing.assert_allclose(
                vectors[:, cluster] @ vectors[:, cluster].T,
                ref_vectors[:, cluster] @ ref_vectors[:, cluster].T,
                rtol=0.0, atol=1e-9,
            )


def test_batched_calls_equal_per_item_calls():
    rng = np.random.default_rng(12)
    params = ModelParams(u=-7.0, a=0.3, mu_x=4.0, mu_y=9.0)
    bx, by = rng.uniform(-1.0, 1.0, 40), rng.uniform(-1.0, 1.0, 40)
    # entries with a doublet symmetry among general ones: only they are projected
    bx[3::7] = 0.0
    by[5::7] = 0.0
    stack = hamiltonian_stack(params, bx, by)
    batch = eigensystem(stack)
    assert batch.values.shape == (40, 4) and batch.vectors.shape == (40, 4, 4)
    for h, values, vectors in zip(stack, batch.values, batch.vectors):
        single = eigensystem(h)
        np.testing.assert_array_equal(values, single.values)
        np.testing.assert_array_equal(vectors, single.vectors)

    times = np.linspace(-3.0, 5.0, 60)
    states = evolve(basis_state("2"), stack[0], times)
    assert states.shape == (60, 4)
    for t, state in zip(times, states):
        # the stacked product may sum in another order: 4 terms of modulus <= 1
        np.testing.assert_allclose(
            state, evolve(basis_state("2"), stack[0], t), rtol=0.0, atol=1e-14
        )

    moments = moment_expectation(states, params)
    assert moments.mx.shape == moments.my.shape == (60,)
    for i, state in enumerate(states):
        single = moment_expectation(state, params)
        assert isinstance(single.mx, float)
        assert (moments.mx[i], moments.my[i]) == single


def test_pinned_basis_in_exact_degeneracies():
    # a = 0: H is diagonal and the doublets are exactly degenerate
    es = eigensystem(build_hamiltonian(ModelParams(u=10.0, a=0.0, mu_x=3.0, mu_y=5.0)))
    np.testing.assert_array_equal(es.vectors, np.eye(4))
    np.testing.assert_array_equal(es.values, [0.0, 0.0, 10.0, 10.0])
    # beyond the crossing the doublet (-0.0, 0.0) keeps its basis order
    no_tunneling = ModelParams(u=10.0, a=0.0, mu_x=10.0, mu_y=10.0)
    es = eigensystem(build_hamiltonian(no_tunneling, FieldVector(by=2.0 * B_ZT)))
    np.testing.assert_array_equal(np.signbit(es.values), [True, True, False, False])
    np.testing.assert_array_equal(es.vectors, np.eye(4)[:, [2, 0, 1, 3]])
    # three-fold crossing and a zero matrix: still the basis states, in order
    np.testing.assert_array_equal(
        eigensystem(np.diag([1.0, 0.0, 0.0, 0.0])).vectors, np.eye(4)[:, [1, 2, 3, 0]]
    )
    np.testing.assert_array_equal(eigensystem(np.zeros((4, 4))).vectors, np.eye(4))
    # U = 0 at zero field: the antisymmetric doublet combinations share 0
    for a in (1e-3, 0.085, 1.0, 37.0):
        params = ModelParams(u=0.0, a=a, mu_x=10.0, mu_y=10.0)
        batch = eigensystem(np.stack([build_hamiltonian(params)] * 2))
        for vectors in batch.vectors:
            np.testing.assert_allclose(
                vectors, zero_field_eigensystem(params).vectors, rtol=0.0, atol=1e-12
            )


def test_axis_fields_keep_doublet_parity_exact():
    """For a field along y every eigenvector has equal |1> and |1bar>
    populations (along x: |2> and |2bar>), so its moment across the field
    is exactly 0, also deep in the protected regime where the gap is
    1e-8 of |H| and LAPACK alone leaves 1e-7 mu_B."""
    params = ModelParams(u=1000.0, a=0.085, mu_x=5.0, mu_y=5.0)
    b_zt = 1000.0 / (2.0 * 5.0 * MU_B_OVER_K_B)
    fields = np.linspace(0.0, 2.0 * b_zt, 101)
    along_y = eigensystem(hamiltonian_stack(params, by=fields))
    along_x = eigensystem(hamiltonian_stack(params, bx=fields))
    # moments of all four eigenvectors: states along the last axis
    assert np.all(moment_expectation(np.swapaxes(along_y.vectors, -1, -2), params).mx == 0.0)
    assert np.all(moment_expectation(np.swapaxes(along_x.vectors, -1, -2), params).my == 0.0)


def test_odd_eigenvectors_are_exact_zero_on_the_other_doublet():
    """With Bx = 0 the odd subspace of the |1> <-> |1bar> swap is
    (|1> - |1bar>) alone, so an odd nondegenerate eigenvector has |2> and
    |2bar> amplitudes of exactly +0.0 (with By = 0 the same for |1>, |1bar>).
    Oddness is read from the whole column: at zero field, deciding it from
    the swapped pair alone can take the state that lives on the other
    doublet for odd and zero it, which the eigen-equation check catches."""
    rng = np.random.default_rng(2024)
    hamiltonians, fields = [], []
    for axis in (None, "bx", "by"):
        for _ in range(1000):
            params = ModelParams(
                u=rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.1), math.log(100.0))),
                a=math.exp(rng.uniform(math.log(1e-3), math.log(10.0))),
                mu_x=rng.uniform(1.0, 20.0), mu_y=rng.uniform(1.0, 20.0),
            )
            field = FieldVector(**({} if axis is None else {axis: rng.uniform(-3.0, 3.0)}))
            hamiltonians.append(build_hamiltonian(params, field))
            fields.append((field.bx, field.by))
    h = np.stack(hamiltonians)
    es = eigensystem(h)
    scale = np.abs(es.values).max(axis=-1)[:, None]
    residual = np.linalg.norm(h @ es.vectors - es.vectors * es.values[:, None, :], axis=-2)
    assert np.all(residual <= 1e-14 * scale)
    gram = np.swapaxes(es.vectors, -1, -2) @ es.vectors
    assert np.all(np.abs(gram - np.eye(4)) <= 1e-14)
    gaps = np.pad(np.diff(es.values, axis=-1), ((0, 0), (1, 1)), constant_values=np.inf)
    isolated = np.minimum(gaps[:, :-1], gaps[:, 1:]) > 1e-9 * scale
    columns = np.swapaxes(es.vectors, -1, -2)           # (draw, column, amplitude)
    bx, by = np.array(fields).T
    checked = 0
    for symmetric, pair, other in ((bx == 0.0, [0, 1], [2, 3]), (by == 0.0, [2, 3], [0, 1])):
        # odd: the odd projection ((v_a - v_b)^2 / 2) holds more than half the norm
        odd = (columns[..., pair[0]] - columns[..., pair[1]]) ** 2 > 1.0
        odd &= isolated & symmetric[:, None]
        rest = columns[..., other][odd]
        assert np.all(rest == 0.0) and not np.signbit(rest).any()
        checked += odd.sum()
    assert checked >= 3500


def test_levels_are_exact_under_doublet_symmetry():
    """With Bx = 0 the level of (|1> - |1bar>)/sqrt(2) is exactly 0 and with
    By = 0 that of (|2> - |2bar>)/sqrt(2) is exactly U, each vector exactly
    +-sqrt(1/2) on its pair and 0 elsewhere: in the doublet-parity basis that
    state's row and column are exact zeros, which LAPACK keeps."""
    rng = np.random.default_rng(99)
    hamiltonians, us, fields = [], [], []
    for axis in (None, "bx", "by"):
        for _ in range(3000):
            params = ModelParams(
                u=rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.1), math.log(100.0))),
                a=math.exp(rng.uniform(math.log(1e-3), math.log(10.0))),
                mu_x=rng.uniform(1.0, 20.0), mu_y=rng.uniform(1.0, 20.0),
            )
            field = FieldVector(**({} if axis is None else {axis: rng.uniform(-3.0, 3.0)}))
            hamiltonians.append(build_hamiltonian(params, field))
            us.append(params.u)
            fields.append((field.bx, field.by))
    es = eigensystem(np.stack(hamiltonians))
    columns = np.swapaxes(es.vectors, -1, -2)
    bx, by = np.array(fields).T
    q = math.sqrt(0.5)
    for symmetric, level, vector in (
        (bx == 0.0, np.zeros(len(us)), [q, -q, 0.0, 0.0]),
        (by == 0.0, np.array(us), [0.0, 0.0, q, -q]),
    ):
        exact = es.values[symmetric] == level[symmetric, None]
        assert symmetric.sum() == 6000 and np.all(exact.sum(axis=-1) == 1)
        np.testing.assert_array_equal(columns[symmetric][exact], np.tile(vector, (6000, 1)))


def test_zero_u_eigenvectors_carry_no_moment():
    """At U = 0 and zero field the two odd states share the level 0 and are
    pinned as a cluster; the other two are still exactly even under both
    doublet swaps, so no eigenvector carries a moment."""
    for a, mu_x in ((0.3, 7.0), (1e-3, 10.0), (1.0, 10.0), (37.0, 3.0)):
        params = ModelParams(u=0.0, a=a, mu_x=mu_x, mu_y=10.0)
        es = eigensystem(build_hamiltonian(params))
        moments = moment_expectation(np.swapaxes(es.vectors, -1, -2), params)
        assert np.all(moments.mx == 0.0) and np.all(moments.my == 0.0)
        np.testing.assert_array_equal(es.vectors[:, 0], [0.5, 0.5, 0.5, 0.5])


# ----------------------------------------------------------- closed form

def test_closed_form_at_ratio_ten():
    cf = zero_field_eigensystem(P10)
    np.testing.assert_allclose(cf.values, closed_form_values(10.0, 1.0), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(
        cf.vectors[:, 0],
        [GROUND_AMP_LARGE, GROUND_AMP_LARGE, GROUND_AMP_SMALL, GROUND_AMP_SMALL],
        rtol=1e-12,
    )


def test_closed_form_no_splitting():
    cf = zero_field_eigensystem(ModelParams(u=10.0, a=0.0, mu_x=10.0, mu_y=10.0))
    np.testing.assert_array_equal(cf.values, [0.0, 0.0, 10.0, 10.0])


def test_closed_form_degenerate_doublets_at_zero_u():
    cf = zero_field_eigensystem(ModelParams(u=0.0, a=1.0, mu_x=10.0, mu_y=10.0))
    np.testing.assert_allclose(cf.values, [-2.0, 0.0, 0.0, 2.0], atol=1e-15)


def test_closed_form_at_zero_u_keeps_the_tie_and_the_numeric_signs():
    # at U = 0, -gap/2 = -8A^2/(8A) is -A only to rounding; the block amplitudes tie
    # exactly, so the top vector takes the sign eigensystem gives it (first tied entry > 0)
    for a in (0.44938603499563756, 0.04496948456813588, 915.3175978600394):
        params = ModelParams(u=0.0, a=a, mu_x=1.0, mu_y=1.0)
        cf, numeric = zero_field_eigensystem(params), eigensystem(hamiltonian_stack(params))
        np.testing.assert_allclose(cf.vectors, numeric.vectors, rtol=0.0, atol=1e-15)
        assert cf.vectors[0, 3] == -cf.vectors[2, 3] > 0


def test_closed_form_negative_u_sorted():
    cf = zero_field_eigensystem(ModelParams(u=-10.0, a=1.0, mu_x=10.0, mu_y=10.0))
    assert np.all(np.diff(cf.values) >= 0)
    np.testing.assert_allclose(cf.values, closed_form_values(-10.0, 1.0), rtol=1e-14, atol=1e-14)


def test_closed_form_matches_numeric_on_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(200):
        params = ModelParams(
            u=rng.uniform(-50.0, 50.0), a=rng.uniform(0.0, 10.0), mu_x=10.0, mu_y=10.0
        )
        numeric = eigensystem(build_hamiltonian(params))
        closed = zero_field_eigensystem(params)
        scale = np.maximum(1.0, np.abs(closed.values))
        np.testing.assert_allclose(numeric.values, closed.values, atol=1e-10 * scale.max())
        for cluster in cluster_indices(closed.values):
            np.testing.assert_allclose(
                projector(numeric, cluster), projector(closed, cluster), atol=1e-8
            )


def test_asymptotic_splitting_limit():
    # deep in the protected regime the gap follows 4A^2/U
    for ratio in (100.0, 300.0, 1000.0):
        params = ModelParams(u=ratio, a=1.0, mu_x=10.0, mu_y=10.0)
        cf = zero_field_eigensystem(params)
        gap = cf.values[1] - cf.values[0]
        assert abs(gap - 4.0 / ratio) <= 0.01 * (4.0 / ratio)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("a", [1.0, 0.37, 2.5e3])
def test_zero_field_levels_obey_vieta_deep_in_the_protected_regime(a):
    # the symmetric block [[0, -2A], [-2A, U]] has level product -4A^2 and sum U;
    # the subtracted form U/2 - hypot(U, 4A)/2 loses lambda1 here (0.0 from U/A = 1e12)
    ratios = np.logspace(-3, 15, 361)
    u = np.concatenate([ratios, -ratios]) * a
    values = model.zero_field_values(u, a)
    lo, hi = values[:, 0], values[:, 3]
    np.testing.assert_allclose(lo * hi, -4.0 * a * a, rtol=4 * EPS, atol=0.0)
    assert (np.abs(lo + hi - u) <= 4 * EPS * np.maximum(np.abs(lo), np.abs(hi))).all()


def test_ground_level_at_the_published_tb2scn_ratio():
    # U/A = 190 (Tb2ScN@C80); the subtracted form was 1,073 ulp off
    lam1 = model.zero_field_values(190.0, 1.0)[0]
    expected = -8.0 / (math.hypot(190.0, 4.0) + 190.0)
    assert abs(lam1 - expected) <= math.ulp(expected)
    assert abs(lam1 - -0.021050299394186397) <= math.ulp(expected)    # 60-digit reference


@pytest.mark.parametrize("ratio", [1e8, 1e12])
def test_zero_field_ground_vector_resolves_the_small_amplitude(ratio):
    # beta / alpha = -lambda1 / (2A) = gap / (2A); it was 7 % off at 1e8 and 0 at 1e12
    ground = zero_field_eigensystem(ModelParams(u=ratio, a=1.0, mu_x=1.0, mu_y=1.0)).vectors[:, 0]
    gap = 8.0 / (math.hypot(ratio, 4.0) + ratio)
    np.testing.assert_allclose(ground[2] / ground[0], gap / 2.0, rtol=1e-14)


def test_zero_field_gap_edges():
    assert model.zero_field_gap(0.0, 0.0) == 0.0 and model.zero_field_gap(-3.0, 0.0) == 0.0
    assert model.zero_field_gap(0.0, 5e-324) == 1e-323          # 2A, where D / 8 underflows
    assert model.zero_field_gap(-1e308, 1.0) == 4e-308          # D overflows: 4A^2 / |U|
    assert model.zero_field_gap(1.0, 1e308) == np.inf           # no warning
    assert model.zero_field_gap([[1.0], [-1.0]], [0.0, 2.0]).shape == (2, 2)


WIDE_PARAMS = st.builds(
    ModelParams,
    u=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    mu_x=st.floats(0.1, 20.0),
    mu_y=st.floats(0.1, 20.0),
)
WIDE_FIELD = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(WIDE_PARAMS, WIDE_FIELD, WIDE_FIELD)
def test_levels_sum_to_twice_u(params, bx, by):
    """The trace of H is 2U at every field, so the four levels sum to 2U."""
    h = hamiltonian_stack(params, bx, by)
    total = eigensystem(h).values.sum(-1)
    assert abs(total - 2.0 * params.u) <= 16 * EPS * np.abs(h).max()
    zero = model.zero_field_values(params.u, params.a)
    assert abs(zero.sum() - 2.0 * params.u) <= 4 * EPS * np.abs(zero).max()


# --------------------------------------------------------------- moments

def test_zero_field_eigenstates_carry_no_moment():
    # closed form: structurally exact zeros for any instance
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = ModelParams(
            u=rng.uniform(-30.0, 30.0), a=rng.uniform(0.01, 5.0), mu_x=7.0, mu_y=11.0
        )
        cf = zero_field_eigensystem(params)
        for j in range(4):
            m = moment_expectation(cf.vectors[:, j].astype(complex), params)
            assert abs(m.mx) < 1e-14 and abs(m.my) < 1e-14
        # numeric route only where the spectrum is resolved; inside a
        # quasi-degenerate cluster single eigenvectors are not identifiable
        if np.min(np.diff(cf.values)) >= 0.5:
            es = eigensystem(build_hamiltonian(params))
            for j in range(4):
                m = moment_expectation(es.vectors[:, j].astype(complex), params)
                assert abs(m.mx) < 1e-10 and abs(m.my) < 1e-10


def test_pure_basis_state_moment():
    m = moment_expectation(basis_state("2"), P10)
    assert m == (0.0, 20.0)


def test_ground_state_saturates_at_large_field():
    h = build_hamiltonian(P10, FieldVector(by=5.0 * B_ZT))
    es = eigensystem(h)
    m = moment_expectation(es.vectors[:, 0].astype(complex), P10)
    assert m.my >= 0.99 * 2.0 * P10.mu_y
    # cross-check the ground vector against an independent dense solver
    _, ref_vectors = np.linalg.eigh(h)
    overlap = abs(ref_vectors[:, 0] @ es.vectors[:, 0])
    assert overlap > 1.0 - 1e-10


def test_moment_rejects_unnormalized_state():
    with pytest.raises(ValueError) as err:
        moment_expectation(np.array([1.0, 1.0, 0.0, 0.0]), P10)
    assert str(err.value) == "state is not normalized (|norm - 1| = 4.142e-01)"
    # a stack names its first bad state
    states = np.tile(basis_state("1"), (20, 1))
    states[17] *= 1.002
    states[19] *= 3.0
    with pytest.raises(ValueError) as err:
        moment_expectation(states, P10)
    assert str(err.value) == "state 17 is not normalized (|norm - 1| = 2.000e-03)"
    grid = np.tile(basis_state("2"), (2, 3, 1))
    grid[1, 2] = 0.0
    with pytest.raises(ValueError) as err:
        moment_expectation(grid, P10)
    assert str(err.value) == "state (1, 2) is not normalized (|norm - 1| = 1.000e+00)"
    with pytest.raises(ValueError) as err:
        moment_expectation(np.zeros(3), P10)
    assert str(err.value) == "state must have 4 amplitudes, got shape (3,)"


def test_moments_beyond_max_entry_are_rejected():
    # 2 * mu overflowed: a zero field was reported as not finite, and mx came back NaN
    for mu_x, mu_y, name in ((1e308, 1.0, "mu_x"), (1.0, 1e308, "mu_y")):
        with pytest.raises(ValueError, match=f"^moment {name} must be at most 4.49.*, got 1e.308$"):
            ModelParams(u=1.0, a=1.0, mu_x=mu_x, mu_y=mu_y)
    edge = ModelParams(u=1.0, a=1.0, mu_x=model.MAX_ENTRY, mu_y=model.MAX_ENTRY)
    assert moment_expectation(basis_state("1bar"), edge) == (-2.0 * model.MAX_ENTRY, 0.0)
    assert np.isfinite(hamiltonian_stack(edge)).all()


def test_hellmann_feynman_derivative():
    # dlambda/dBy = -mu_B/k_B * my for nondegenerate levels off the crossing
    step = 1e-5
    for frac in (0.2, 0.5, 0.8, 1.4, 1.8):
        by = frac * B_ZT
        es = eigensystem(build_hamiltonian(P10, FieldVector(by=by)))
        lo = eigensystem(build_hamiltonian(P10, FieldVector(by=by - step))).values
        hi = eigensystem(build_hamiltonian(P10, FieldVector(by=by + step))).values
        fd = (hi - lo) / (2.0 * step)
        for j in range(4):
            m = moment_expectation(es.vectors[:, j].astype(complex), P10)
            predicted = -m.my * MU_B_OVER_K_B
            assert abs(fd[j] - predicted) <= 1e-6 * max(abs(predicted), 1e-3)


def test_lambda2_stays_zero_along_y_sweep():
    for by in np.linspace(0.0, 2.0 * B_ZT, 41):
        es = eigensystem(build_hamiltonian(P10, FieldVector(by=by)))
        assert abs(es.values[1]) < 1e-10


def test_small_fields_shift_the_ground_level_at_second_order():
    """The non-linear field response below saturation, from perturbation theory.

    At zero field the ground state is alpha|s1> + beta|s2> (s: the symmetric
    combination of a doublet; g = its vector, alpha^2 = 2 g[0]^2, beta^2 =
    2 g[2]^2).  A field along x couples it only to (|1> - |1bar>)/sqrt(2) at 0,
    with element alpha*e1, and one along y only to (|2> - |2bar>)/sqrt(2) at U,
    with element beta*e2 (e = 2 mu B mu_B/k_B).  So lambda1 moves by
    -alpha^2 e1^2 / (0 - lambda1) and -beta^2 e2^2 / (U - lambda1), up to a
    relative (e / denominator)^2 = 1e-6 at the fields chosen here.  Where alpha or
    beta is small the shift nears rounding, hence the absolute term.
    """
    rng = np.random.default_rng(20)
    n = 400
    u = rng.choice((-1.0, 1.0), n) * np.exp(rng.uniform(np.log(1e-2), np.log(50.0), n))
    a = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    mu = rng.uniform(1.0, 20.0, (n, 2))
    for axis in (0, 1):     # x, then y
        h, expected = np.empty((n, 4, 4)), np.empty((n, 2))
        for k in range(n):
            params = ModelParams(u=u[k], a=a[k], mu_x=mu[k, 0], mu_y=mu[k, 1])
            zero = zero_field_eigensystem(params)
            ground, weight = zero.values[0], 2.0 * zero.vectors[2 * axis, 0] ** 2
            denominator = (0.0, u[k])[axis] - ground
            e = 1e-3 * denominator
            field = e / (2.0 * mu[k, axis] * MU_B_OVER_K_B)
            h[k] = hamiltonian_stack(params, *((field, 0.0), (0.0, field))[axis])
            expected[k] = ground, -weight * e**2 / denominator
        floor = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(h).sum(axis=-1).max(axis=-1))
        error = np.abs(eigensystem(h).values[:, 0] - expected.sum(axis=1))
        bound = 1e-5 * np.abs(expected[:, 1]) + floor
        assert (error <= bound).all(), (axis, np.flatnonzero(error > bound))
        assert np.mean(np.abs(expected[:, 1]) > 1e3 * floor) > 0.5     # the shift is resolved


# ---------------------------------------------------------------- evolve

def test_evolve_identity_at_zero_time():
    state = basis_state("1")
    np.testing.assert_allclose(evolve(state, build_hamiltonian(P10), 0.0), state, atol=1e-14)


def test_eigenvector_is_stationary():
    h = build_hamiltonian(P10)
    es = eigensystem(h)
    state = es.vectors[:, 0].astype(complex)
    for t in (0.1, 1.7, 23.0):
        out = evolve(state, h, t)
        # same ray: only a global phase may differ
        assert abs(abs(np.vdot(state, out)) - 1.0) < 1e-12
        m = moment_expectation(out, P10)
        np.testing.assert_allclose(m, moment_expectation(state, P10), atol=1e-12)


def test_evolve_is_unitary_and_reversible():
    rng = np.random.default_rng(5)
    h = build_hamiltonian(P10, FieldVector(by=0.3))
    for _ in range(20):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        t = rng.uniform(-10.0, 10.0)
        out = evolve(state, h, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back = evolve(out, h, -t)
        np.testing.assert_allclose(back, state, atol=1e-10)


def test_tunneling_beat_against_spectral_sum():
    """Population transfer |1> -> |1bar> checked against the explicit
    three-phasor sum built from the closed-form overlaps."""
    h = build_hamiltonian(P10)
    cf = zero_field_eigensystem(P10)
    coeffs = (cf.vectors.T @ basis_state("1").real) * (cf.vectors.T @ basis_state("1bar").real)
    beat_ghz = (cf.values[1] - cf.values[0]) * K_B_OVER_H_GHZ
    times = np.linspace(0.0, 1.0 / beat_ghz, 400)
    oracle = np.abs(
        sum(
            coeffs[i] * np.exp(-2j * np.pi * K_B_OVER_H_GHZ * cf.values[i] * times)
            for i in range(4)
        )
    ) ** 2
    simulated = np.abs(evolve(basis_state("1"), h, times)[:, 1]) ** 2
    np.testing.assert_allclose(simulated, oracle, atol=1e-10)
    assert simulated.max() >= 0.93


def memo_free_evolve(initial, h, t):
    """evolve written out with a fresh diagonalization on every call."""
    es = eigensystem(h)
    overlaps = es.vectors.T @ initial
    phases = np.exp(-2j * np.pi * K_B_OVER_H_GHZ * es.values * np.asarray(t)[..., None])
    return (overlaps * phases) @ es.vectors.T


def test_evolve_diagonalizes_a_repeated_hamiltonian_once(monkeypatch):
    calls = []

    def counting_eigensystem(h):
        calls.append(h)
        return eigensystem(h)

    monkeypatch.setattr("qtmpair.model.eigensystem", counting_eigensystem)
    h = build_hamiltonian(ModelParams(u=3.7, a=0.21, mu_x=6.0, mu_y=8.0), FieldVector(by=0.05))
    for t in np.linspace(0.0, 2.0, 200):
        evolve(basis_state("2"), h, t)
    assert len(calls) == 1


def test_evolve_alternating_hamiltonians_equal_the_memo_free_form():
    # opposite fields: equal traces and norms, different spectra
    params = ModelParams(u=-7.0, a=0.3, mu_x=4.0, mu_y=9.0)
    pair = [build_hamiltonian(params, FieldVector(bx=b, by=0.1)) for b in (0.2, -0.2)]
    initial = basis_state("1")
    for k, t in enumerate(np.linspace(0.0, 3.0, 20)):
        h = pair[k % 2]
        np.testing.assert_array_equal(evolve(initial, h, t), memo_free_evolve(initial, h, t))
    times = np.linspace(0.0, 3.0, 7)
    for h in pair + pair:
        np.testing.assert_array_equal(
            evolve(initial, h, times), memo_free_evolve(initial, h, times)
        )


def test_evolve_checks_every_matrix_it_is_given():
    h = build_hamiltonian(P10, FieldVector(bx=0.1))
    nonfinite = h.copy()
    nonfinite[0, 0] = np.nan
    asymmetric = h.copy()
    asymmetric[0, 1] += 1.0
    for bad, message in ((nonfinite, "non-finite"), (asymmetric, "not symmetric")):
        evolve(basis_state("1"), h, 0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                evolve(basis_state("1"), bad, 0.5)
    # the matrix just accepted, made invalid in place
    evolve(basis_state("1"), h, 0.5)
    h[2, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        evolve(basis_state("1"), h, 0.5)


def test_evolve_follows_the_content_of_h():
    initial = basis_state("2")
    h = build_hamiltonian(P10, FieldVector(by=0.3))
    before = evolve(initial, h, 0.7)
    h[2, 2] += 1.5
    h[3, 3] -= 1.5
    after = evolve(initial, h, 0.7)
    np.testing.assert_array_equal(after, memo_free_evolve(initial, h, 0.7))
    assert not np.allclose(before, after)
    integer = np.array([[0, -1, 0, -1], [-1, 0, -1, 0], [0, -1, 3, 0], [-1, 0, 0, 5]])
    expected = memo_free_evolve(initial, integer.astype(float), 0.7)
    for matrix in (integer, integer.astype(float), integer):
        np.testing.assert_array_equal(evolve(initial, matrix, 0.7), expected)


def test_evolve_memo_is_read_only_and_never_handed_out():
    h = build_hamiltonian(P10, FieldVector(bx=0.2, by=0.1))
    for array in model._spectrum(h.tobytes())[:2]:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    initial = basis_state("1bar")
    for t in (0.7, np.linspace(0.0, 2.0, 5)):
        first = evolve(initial, h, t)
        expected = first.copy()
        first[...] = np.nan     # the returned state is the caller's own
        np.testing.assert_array_equal(evolve(initial, h, t), expected)
        np.testing.assert_array_equal(expected, memo_free_evolve(initial, h, t))


@pytest.mark.parametrize(
    "h, shape",
    [([[0.0] * 3] * 3, "(3, 3)"), (np.arange(4), "(4,)"), (np.zeros((1, 4, 4), dtype=int), "(1, 4, 4)")],
)
def test_evolve_names_the_shape_of_a_wrong_hamiltonian(h, shape):
    message = f"evolve takes one state (4,) and one 4x4 Hamiltonian, got shapes (4,) and {shape}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        evolve(basis_state("2"), h, 0.5)


# ------------------------------------------------------------ state checks

def random_state(rng, shape=()):
    raw = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def test_nonfinite_states_are_rejected():
    h = build_hamiltonian(P10, FieldVector(bx=0.1))
    message = r" is not normalized \(\|norm - 1\| = (nan|inf)\)$"
    for bad in (np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, -np.inf)):
        single = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
        stack = np.tile(basis_state("2"), (3, 1))
        stack[1, 2] = bad
        for call in (lambda s: moment_expectation(s, P10), lambda s: evolve(s, h, 0.5)):
            with pytest.raises(ValueError, match="^state" + message):
                call(single)
            with pytest.raises(ValueError, match="^state 1" + message):
                call(stack)
    # amplitudes whose squares (1e200) or their sum (1e154) exceed float64 give an
    # inf norm, with no overflow warning (this suite makes warnings errors)
    for amplitude in (1e154, 1e200):
        for call in (lambda s: moment_expectation(s, P10), lambda s: evolve(s, h, 0.5)):
            with pytest.raises(ValueError, match="^state" + message):
                call(np.full(4, amplitude))
            with pytest.raises(ValueError, match="^state 0" + message):
                call(np.full((3, 4), amplitude))


def test_norm_tolerance_boundary():
    """The population-based check keeps the norm semantics: |norm - 1| <= 1e-9."""
    rng = np.random.default_rng(31)
    h = build_hamiltonian(P10, FieldVector(bx=0.2, by=0.1))
    for call in (lambda s: moment_expectation(s, P10), lambda s: evolve(s, h, 0.5)):
        for scale in (1.0 - 0.5e-9, 1.0 + 0.5e-9):
            call(scale * random_state(rng))
        for scale in (1.0 - 2e-9, 1.0 + 2e-9):
            with pytest.raises(ValueError, match="^state is not normalized"):
                call(scale * random_state(rng))
    for scale in (1.0 - 0.5e-9, 1.0 + 0.5e-9):
        moment_expectation(scale * random_state(rng, (3,)), P10)
    for scale in (1.0 - 2e-9, 1.0 + 2e-9):
        states = random_state(rng, (3,))
        states[2] *= scale
        for call in (lambda s: moment_expectation(s, P10), lambda s: evolve(s, h, 0.5)):
            with pytest.raises(ValueError, match="^state 2 is not normalized"):
                call(states)


def test_evolve_rejects_nonfinite_times():
    h = build_hamiltonian(P10, FieldVector(by=0.2))
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^time must be finite, got {t}$"):
            evolve(basis_state("1"), h, t)
    with pytest.raises(ValueError, match="^time must be finite, got nan at index 3$"):
        evolve(basis_state("1"), h, [0.0, 1.0, 2.0, np.nan, np.inf])
    with pytest.raises(ValueError, match=re.escape("got -inf at index (1, 0)")):
        evolve(basis_state("1"), h, [[0.0, 1.0], [-np.inf, 2.0]])


def test_evolve_rejects_phases_beyond_float64():
    # each of these printed numpy overflow warnings, then "state 0 is not normalized (nan)"
    h_top = hamiltonian_stack(ModelParams(u=1e307, a=1.0, mu_x=1.0, mu_y=1.0))
    with pytest.raises(ValueError, match=re.escape(
            "phase rate of level 2 (9.999999999999999e+306 K) exceeds float64")):
        evolve(basis_state("1"), h_top, 0.0)
    h = build_hamiltonian(P10, FieldVector(by=0.2))
    with pytest.raises(ValueError, match=r"^phase exceeds float64 at t = -1e\+306 ns$"):
        evolve(basis_state("1"), h, -1e306)
    with pytest.raises(ValueError, match=re.escape("at t = 1e+306 ns at index (1, 0)")):
        evolve(basis_state("1"), h, [[0.0, 1e300], [1e306, 1e306]])
    for t in (np.nan, -np.inf, [1.0, np.inf]):      # with every level 0, max|rate| * t is NaN
        with pytest.raises(ValueError, match="^time must be finite, got "):
            evolve(basis_state("1"), np.zeros((4, 4)), t)
    # at the edge, every accepted time gives the phases of the unchecked form
    top = 2.0 * np.pi * K_B_OVER_H_GHZ * np.abs(eigensystem(h).values).max()
    edge = np.finfo(float).max / top
    times = np.nextafter(edge, np.inf) + np.arange(-8, 9) * np.spacing(edge)
    for t in times:
        try:
            state = evolve(basis_state("2"), h, t)
        except ValueError as err:
            assert str(err).startswith("phase exceeds float64")
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(memo_free_evolve(basis_state("2"), h, t)).all()
        else:
            np.testing.assert_array_equal(state, memo_free_evolve(basis_state("2"), h, t))
            assert np.isfinite(state).all()


PARAMS = st.builds(
    ModelParams,
    u=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    mu_x=st.floats(0.1, 15.0),
    mu_y=st.floats(0.1, 15.0),
)
FIELD = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).filter(lambda z: np.linalg.norm(z) > 1e-3)
TIMES = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(PARAMS, FIELD, FIELD, AMPLITUDES, TIMES)
def test_evolve_and_moments_are_bitwise_consistent(params, bx, by, amplitudes, times):
    """Scalar and array times, memo hit and miss, and the memo-free form
    give the same bits; so do stacked and per-row moments."""
    h = hamiltonian_stack(params, bx, by)
    initial = np.asarray(amplitudes) / np.linalg.norm(amplitudes)
    times = np.asarray(times)
    model._spectrum.cache_clear()
    states = evolve(initial, h, times)
    np.testing.assert_array_equal(evolve(initial, h, times), states)
    np.testing.assert_array_equal(memo_free_evolve(initial, h, times), states)
    for t, row in zip(times, states):
        np.testing.assert_array_equal(evolve(initial, h, t), row)
        np.testing.assert_array_equal(memo_free_evolve(initial, h, t), row)
    assert model._spectrum.cache_info().misses == 1     # every other call was a hit
    moments = moment_expectation(states, params)
    for i, state in enumerate(states):
        assert moment_expectation(state, params) == (moments.mx[i], moments.my[i])
