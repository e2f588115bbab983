import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmpair.reference import DY2S_C82, TB2SCN_C80
from qtmpair.relaxation import (
    ArrheniusProcess,
    DegenerateParametersError,
    LifetimePoint,
    RelaxationDataset,
    RelaxationModel,
    _evaluate,
    fit,
    load_dataset,
    model_lifetime,
    parse_dataset_csv,
    synthesize,
)

from test_acceptance import information_limit

GRID_30 = np.geomspace(0.4, 30.0, 30)

SINGLE = RelaxationModel(processes=(ArrheniusProcess(tau0=2.1e-3, delta=16.1),))


# ------------------------------------------------------- model evaluation

def test_jacobian_matches_central_differences():
    """The Jacobian from ``_evaluate`` equals central finite differences of
    its own ln tau (step 1e-5) to a relative tolerance of 1e-6, with an
    absolute floor of 1e-8 for entries of channels that never dominate."""
    rng = np.random.default_rng(2024)
    t = np.geomspace(0.3, 50.0, 25)
    step = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 5))
        theta = np.empty(2 * n)
        theta[0::2] = rng.uniform(-10.0, 5.0, n)    # ln tau0
        theta[1::2] = rng.uniform(0.0, 30.0, n)     # delta
        _, jac = _evaluate(theta, t)
        for j in range(2 * n):
            shift = np.zeros(2 * n)
            shift[j] = step
            upper, _ = _evaluate(theta + shift, t)
            lower, _ = _evaluate(theta - shift, t)
            np.testing.assert_allclose(
                jac[:, j], (upper - lower) / (2 * step), rtol=1e-6, atol=1e-8
            )


def test_evaluate_gives_infinite_ln_tau_when_rates_underflow():
    # a far-off fit candidate: every rate underflows to 0, so ln tau = +inf; its callers
    # keep that silent (tests of model_lifetime and synthesize turn warnings into errors)
    theta = np.array([800.0, 0.0, 5.0, 1.0e5])
    with np.errstate(all="ignore"):     # the scope that fit and model_lifetime provide
        ln_tau, jac = _evaluate(theta, GRID_30)
    assert np.all(ln_tau == np.inf)
    assert jac.shape == (30, 4)


def per_channel_evaluate(theta, t):
    """The per-channel form ``_evaluate`` replaced: one ``np.exp`` per channel."""
    n = len(theta) // 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        channel = np.stack(
            [np.exp(-theta[2 * i] - theta[2 * i + 1] / t) for i in range(n)], axis=1
        )
        rate = channel.sum(axis=1)
        jac = np.empty((len(t), 2 * n))
        jac[:, 0::2] = channel / rate[:, None]
        jac[:, 1::2] = channel / (rate * t)[:, None]
        return -np.log(rate), jac


def test_evaluate_equals_per_channel_form():
    """The broadcast over channels does the same IEEE operations per element
    as one exp per channel, so ln tau and the Jacobian are bit-identical,
    also for far-off candidates whose rates all underflow (inf and NaN)."""
    rng = np.random.default_rng(6)
    t = np.geomspace(0.3, 50.0, 25)
    underflowed = 0
    for k in range(200):
        n = int(rng.integers(1, 5))
        theta = np.empty(2 * n)
        theta[0::2] = rng.uniform(-10.0, 5.0, n) + (800.0 if k % 10 == 0 else 0.0)
        theta[1::2] = rng.uniform(0.0, 30.0, n)
        with np.errstate(all="ignore"):     # the scope that fit provides
            ln_tau, jac = _evaluate(theta, t)
        old_ln_tau, old_jac = per_channel_evaluate(theta, t)
        underflowed += bool(np.all(ln_tau == np.inf))
        assert np.array_equal(ln_tau, old_ln_tau)
        assert np.array_equal(jac, old_jac, equal_nan=True)
    assert underflowed == 20


# ------------------------------------------------------------------ types

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_field_rejects_nonfinite_values(value):
    """Each scalar field is checked for finiteness, and the message names it."""
    cases = [
        ("prefactor tau0 must be positive and finite",
         lambda: ArrheniusProcess(tau0=value, delta=1.0)),
        ("barrier delta must be >= 0 and finite", lambda: ArrheniusProcess(tau0=1.0, delta=value)),
        ("temperature must be positive", lambda: LifetimePoint(t_kelvin=value, tau_s=1.0)),
        ("lifetime must be positive", lambda: LifetimePoint(t_kelvin=1.0, tau_s=value)),
        ("sigma_ln_tau must be positive when given",
         lambda: LifetimePoint(t_kelvin=1.0, tau_s=1.0, sigma_ln_tau=value)),
    ]
    for rule, make in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}, got {value}$"):
            make()


def test_model_sorts_processes_by_barrier():
    model = RelaxationModel(
        processes=(ArrheniusProcess(2.1e-3, 16.1), ArrheniusProcess(4.0e2, 0.34))
    )
    assert [p.delta for p in model.processes] == [0.34, 16.1]


# --------------------------------------------------------------- lifetime

def test_single_process_high_temperature_limit():
    np.testing.assert_allclose(model_lifetime(SINGLE, 1e12), 2.1e-3, rtol=1e-8)


def test_single_process_at_barrier_temperature():
    np.testing.assert_allclose(model_lifetime(SINGLE, 16.1), 2.1e-3 * math.e, rtol=1e-12)


def test_lifetime_monotone_nonincreasing():
    rng = np.random.default_rng(13)
    temps = np.geomspace(0.1, 100.0, 200)
    for _ in range(20):
        n = rng.integers(1, 5)
        model = RelaxationModel(
            processes=tuple(
                ArrheniusProcess(tau0=10.0 ** rng.uniform(-4, 3), delta=rng.uniform(0.0, 30.0))
                for _ in range(n)
            )
        )
        taus = model_lifetime(model, temps)
        assert np.all(np.diff(taus) <= 1e-12 * taus[:-1])


def test_parallel_channels_only_accelerate():
    temps = np.geomspace(0.4, 30.0, 50)
    combined = model_lifetime(DY2S_C82.relaxation, temps)
    for p in DY2S_C82.relaxation.processes:
        single = model_lifetime(RelaxationModel(processes=(p,)), temps)
        assert np.all(combined <= single * (1 + 1e-12))


def test_lifetime_rejects_nonpositive_temperature():
    # the message names the first bad value and where it is, not the whole grid
    message = "^temperatures must be positive and finite, got 0.0 at index 0$"
    with pytest.raises(ValueError, match=message):
        model_lifetime(SINGLE, 0.0)
    with pytest.raises(ValueError, match="got -2.0 at index 1$"):
        model_lifetime(SINGLE, np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="got -1.0 at index 0$"):
        model_lifetime(SINGLE, np.linspace(-1.0, 5.0, 200))
    with pytest.raises(ValueError, match=r"got nan at index \(1, 0\)$"):
        model_lifetime(SINGLE, [[1.0, 2.0, 3.0], [math.nan, 5.0, -6.0]])


def test_lifetime_keeps_the_grid_shape():
    grid = np.geomspace(0.4, 30.0, 6).reshape(2, 3)
    taus = model_lifetime(DY2S_C82.relaxation, grid)
    assert taus.shape == (2, 3)
    np.testing.assert_array_equal(taus.ravel(), model_lifetime(DY2S_C82.relaxation, grid.ravel()))
    assert isinstance(model_lifetime(DY2S_C82.relaxation, 2.0), float)


# -------------------------------------------------------------- synthesize

def test_synthesize_noise_free_lies_on_model():
    ds = synthesize(DY2S_C82.relaxation, GRID_30, 0.0, seed=7)
    np.testing.assert_allclose(
        ds.lifetimes(), model_lifetime(DY2S_C82.relaxation, GRID_30), rtol=1e-15
    )
    # a grid of any shape gives its points in C order, a scalar gives one point
    assert synthesize(DY2S_C82.relaxation, GRID_30.reshape(5, 6), 0.0, seed=7).points == ds.points
    assert synthesize(SINGLE, 2.0).points == (LifetimePoint(2.0, model_lifetime(SINGLE, 2.0)),)


def test_synthesize_is_deterministic_per_seed():
    a = synthesize(SINGLE, GRID_30, 0.05, seed=11)
    b = synthesize(SINGLE, GRID_30, 0.05, seed=11)
    c = synthesize(SINGLE, GRID_30, 0.05, seed=12)
    np.testing.assert_array_equal(a.lifetimes(), b.lifetimes())
    assert not np.array_equal(a.lifetimes(), c.lifetimes())


def test_synthesize_names_the_temperature_where_the_lifetime_overflows():
    # ln tau = 1077 at 2 K and 710 at 3 K: beyond float64, whatever the evaluation
    model = RelaxationModel(processes=(ArrheniusProcess(tau0=1e-10, delta=2200.0),))
    message = r"^lifetime exceeds float64 \(ln tau > 709.78\) at T = 2.0 K$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            synthesize(model, [2.0, 3.0, 4.0], 0.0, seed=0)
        with pytest.raises(ValueError, match=message.replace("2.0 K", "3.0 K")):
            synthesize(model, [4.0, 3.0, 2.0], 0.05, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lifetime_beyond_float64_is_inf_without_a_warning():
    # ln tau = 1077 at 2 K, 710 at 3 K and 527 at 4 K
    model = RelaxationModel(processes=(ArrheniusProcess(tau0=1e-10, delta=2200.0),))
    taus = model_lifetime(model, [3.0, 2.0, 4.0])
    assert taus[0] == taus[1] == math.inf
    np.testing.assert_allclose(taus[2], 7.3e228, rtol=1e-2)
    np.testing.assert_allclose(taus[2], 1e-10 * math.exp(550.0), rtol=1e-12)
    assert model_lifetime(model, 2.0) == math.inf


# -------------------------------------------------------------------- fit

def test_fit_noise_free_single_process_is_exact():
    ds = synthesize(SINGLE, GRID_30, 0.0, seed=0)
    res = fit(ds, 1)
    assert res.converged
    proc = res.model.processes[0]
    np.testing.assert_allclose(proc.tau0, 2.1e-3, rtol=1e-8)
    np.testing.assert_allclose(proc.delta, 16.1, rtol=1e-8)
    assert res.residual_rms < 1e-10


def test_fit_noise_free_two_processes_is_exact():
    for ref in (DY2S_C82, TB2SCN_C80):
        ds = synthesize(ref.relaxation, GRID_30, 0.0, seed=0)
        res = fit(ds, 2)
        assert res.converged
        for fitted, truth in zip(res.model.processes, ref.relaxation.processes):
            np.testing.assert_allclose(fitted.tau0, truth.tau0, rtol=1e-8)
            np.testing.assert_allclose(fitted.delta, truth.delta, rtol=1e-8)
        assert res.residual_rms < 1e-10


def test_fit_retries_a_singular_step_with_more_damping(monkeypatch):
    """A damped normal matrix that LAPACK calls singular is retried at ten
    times the damping; on the seed-1 Dy2S@C82 data the fit still lands on
    the unpatched minimum."""
    ds = synthesize(DY2S_C82.relaxation, GRID_30, 0.05, seed=1)
    plain = fit(ds, 2)
    solve, calls = np.linalg.solve, []

    def singular_once(a, b):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    retried = fit(ds, 2)
    assert retried.converged and len(calls) > 1
    # both are N + damping * diag(N) with the first iteration's N: at the start damping
    # 1e-3 and then at 1e-2, so only the diagonal differs, by (1 + 1e-2) / (1 + 1e-3)
    first, retry = calls[0], calls[1]
    off_diagonal = ~np.eye(len(first), dtype=bool)
    np.testing.assert_array_equal(retry[off_diagonal], first[off_diagonal])
    np.testing.assert_allclose(retry.diagonal() / first.diagonal(), 1.01 / 1.001, rtol=1e-12)
    for got, want in zip(retried.model.processes, plain.model.processes):
        np.testing.assert_allclose(got.tau0, want.tau0, rtol=1e-7)
        np.testing.assert_allclose(got.delta, want.delta, rtol=1e-7)


def test_fit_without_a_downhill_step_stops_unconverged(monkeypatch):
    """Where none of the 60 damped trials goes downhill, the fit stops after
    its first iteration and reports that it did not converge."""
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    res = fit(synthesize(DY2S_C82.relaxation, GRID_30, 0.05, seed=1), 2)
    assert not res.converged
    assert res.iterations == 1 and len(res.objective_trace) == 1


def test_fit_scatter_tracks_information_limit():
    """The spread of the low-barrier estimate over seeds should match the
    least-squares information limit (within a factor 2), i.e. the fitter
    adds no excess variance."""
    truth = DY2S_C82.relaxation
    estimates = []
    for seed in range(1, 21):
        res = fit(synthesize(truth, GRID_30, 0.05, seed=seed), 2)
        estimates.append(res.model.processes[0].delta)
    spread = np.std(estimates)
    predicted = information_limit(truth, GRID_30, 0.05)[1]     # sigma_CR of delta_I, 0.0340 K
    assert predicted / 2 <= spread <= predicted * 2


def test_fit_matches_scipy_least_squares():
    """On the 40 noisy acceptance datasets (both molecules, seeds 1..20) the
    fitter lands on the same least-squares minimum as scipy's
    Levenberg-Marquardt started at the truth, to 1e-6 in every parameter."""
    pytest.importorskip("scipy")
    from scipy.optimize import least_squares

    def residuals(theta, t, ln_tau):
        rate = sum(np.exp(-theta[i] - theta[i + 1] / t) for i in range(0, len(theta), 2))
        return ln_tau + np.log(rate)

    for ref in (DY2S_C82, TB2SCN_C80):
        truth = [v for p in ref.relaxation.processes for v in (math.log(p.tau0), p.delta)]
        for seed in range(1, 21):
            ds = synthesize(ref.relaxation, GRID_30, 0.05, seed=seed)
            res = fit(ds, 2)
            oracle = least_squares(
                residuals, truth, args=(ds.temperatures(), np.log(ds.lifetimes())),
                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            assert oracle.success
            expected = sorted(zip(oracle.x[1::2], np.exp(oracle.x[0::2])))
            for fitted, (delta, tau0) in zip(res.model.processes, expected):
                np.testing.assert_allclose(fitted.delta, delta, rtol=1e-6)
                np.testing.assert_allclose(fitted.tau0, tau0, rtol=1e-6)


def test_fit_respects_point_weights():
    # an off-model point with a huge ln-tau uncertainty is effectively ignored
    ds = synthesize(SINGLE, GRID_30, 0.0, seed=0)
    outlier = LifetimePoint(t_kelvin=5.0, tau_s=1e3, sigma_ln_tau=1e4)
    tight = tuple(
        LifetimePoint(p.t_kelvin, p.tau_s, sigma_ln_tau=0.05) for p in ds.points
    )
    res = fit(RelaxationDataset(points=tight + (outlier,)), 1)
    assert res.converged
    np.testing.assert_allclose(res.model.processes[0].delta, 16.1, rtol=1e-6)
    np.testing.assert_allclose(res.model.processes[0].tau0, 2.1e-3, rtol=1e-6)


def test_fit_two_channels_on_single_process_data():
    # noise-free: the two channels collapse exactly -> loud degeneracy error
    ds = synthesize(SINGLE, GRID_30, 0.0, seed=0)
    with pytest.raises(DegenerateParametersError) as err:
        fit(ds, 2)
    assert len(err.value.parameter_pair) == 2

    # noisy: either the same error or a converged fit in which one channel
    # is negligible at every data temperature; never a silent wrong answer
    ds = synthesize(SINGLE, GRID_30, 0.05, seed=1)
    res = fit(ds, 2)
    assert res.converged
    rates = np.stack(
        [np.exp(-p.delta / GRID_30) / p.tau0 for p in res.model.processes], axis=1
    )
    weaker_share = (rates.min(axis=1) / rates.sum(axis=1)).max()
    assert weaker_share < 0.05


def test_fit_objective_never_increases():
    for seed in (1, 5, 9):
        res = fit(synthesize(TB2SCN_C80.relaxation, GRID_30, 0.05, seed=seed), 2)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        # the start's objective, then one per iteration: a converged fit takes a step in each
        assert res.converged and len(trace) == res.iterations + 1


def test_fit_std_errors_shrink_with_sample_size():
    # quadrupling N should halve the errors; allow a factor-2 band
    sizes = {30: [], 120: []}
    for n in sizes:
        temps = np.geomspace(0.4, 30.0, n)
        for seed in (2, 3, 4):
            res = fit(synthesize(TB2SCN_C80.relaxation, temps, 0.05, seed=seed), 2)
            sizes[n].append(res.std_errors)
    ratio = np.mean(sizes[30], axis=0) / np.mean(sizes[120], axis=0)
    assert np.all(ratio >= 1.0) and np.all(ratio <= 4.0)


def test_fit_covariance_is_symmetric_psd():
    res = fit(synthesize(DY2S_C82.relaxation, GRID_30, 0.05, seed=2), 2)
    np.testing.assert_array_equal(res.covariance, res.covariance.T)
    assert np.all(np.linalg.eigvalsh(res.covariance) >= -1e-15)
    assert np.all(res.std_errors >= 0.0)


def test_fit_inputs_beyond_float64_are_named():
    # a 1/T^2 or 1/sigma^2 that overflows or vanishes reached polyfit and LAPACK (six DLASCL
    # lines, "SVD did not converge") or raised OverflowError; start lines that leave float64
    # gave a NaN Jacobian
    base = [LifetimePoint(t, tau) for t, tau in ((0.5, 2.5), (1.0, 3.0), (2.0, 4.0), (3.0, 5.0))]
    for extra, named in (
        ((1e-155, 2.0), "got T = 1e-155 K, sigma_ln_tau = None"),
        ((1e200, 2.0), "got T = 1e+200 K, sigma_ln_tau = None"),
        ((4.0, 2.0, 1e-200), "got T = 4.0 K, sigma_ln_tau = 1e-200"),
        ((4.0, 2.0, 1e200), "got T = 4.0 K, sigma_ln_tau = 1e+200"),
    ):
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            fit(RelaxationDataset(base + [LifetimePoint(*extra)]), 1)
    # weights of 1e-310 pass the input check, but the normal matrix that scales with them
    # cannot be inverted within float64
    faint = [LifetimePoint(p.t_kelvin, p.tau_s, 1e155) for p in base]
    with pytest.raises(ValueError, match=re.escape(
            "covariance exceeds float64 for weights down to 1e-310") + "$"):
        fit(RelaxationDataset(faint), 1)
    edge = [LifetimePoint(1e-100 * j, 1e250 * 10.0**-j) for j in range(1, 9)]
    with pytest.raises(ValueError, match=re.escape(
            "start lines give a residual or slope beyond float64 at T = 1e-100 K")):
        fit(RelaxationDataset(edge), 2)


def test_synthesize_noise_beyond_float64_is_rejected_without_a_warning():
    # a zero lifetime times an infinite noise factor warned and gave NaN
    model = RelaxationModel(processes=(ArrheniusProcess(tau0=1e-310, delta=0.0),))
    message = r"^lifetime exceeds float64 \(ln tau > 709.78\) at T = 1.0 K$"
    with pytest.raises(ValueError, match=message):
        synthesize(model, [1.0, 2.0, 3.0, 4.0], 1e300, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synthesize_names_the_temperature_where_the_lifetime_rounds_to_zero():
    # each rate 1/tau0 = 2e323/s is beyond float64, so every lifetime is 0
    tiny = ArrheniusProcess(tau0=5e-324, delta=0.0)
    message = r"^lifetime underflows float64 \(ln tau < -709.78\) at T = 1.0 K$"
    with pytest.raises(ValueError, match=message):
        synthesize(RelaxationModel(processes=(tiny,) * 4), [1.0, 2.0, 3.0], 0.0, seed=0)
    # a 1e-300 s lifetime is finite, but noise can round it to 0: here eps = -76.6 at 3.0 K
    model = RelaxationModel(processes=(ArrheniusProcess(tau0=1e-300, delta=0.0),))
    with pytest.raises(ValueError, match=message.replace("1.0 K", "3.0 K")):
        synthesize(model, [1.0, 2.0, 3.0], 30.0, seed=6)


def test_fit_step_whose_norm_overflows_warns_nothing():
    """An accepted step can have a norm above 1e154, whose square overflows
    float64.  Such a step is no small step, and the fit raises without
    numpy's overflow warning (an error under the suite's warning filter)."""
    model = RelaxationModel(processes=(
        ArrheniusProcess(tau0=0.007018192444461753, delta=26.954021993347233),
        ArrheniusProcess(tau0=36.717686560802115, delta=23.30798966940635),
        ArrheniusProcess(tau0=10.008845306670972, delta=27.30316393394304),
    ))
    with pytest.raises(DegenerateParametersError) as exc:
        fit(synthesize(model, GRID_30, 0.05, seed=129), 3)
    assert exc.value.parameter_pair == ("ln_tau0_1", "delta_3")


def test_degenerate_parameters_error_keeps_only_its_message_as_text():
    # built positionally, the pair must not join the exception's args and so its text
    message = "parameters delta_1 and delta_2 are degenerate"
    err = DegenerateParametersError(message, ("delta_1", "delta_2"))
    assert (str(err), err.args, err.parameter_pair) == (message, (message,), ("delta_1", "delta_2"))


def test_fit_that_ends_at_a_negative_barrier_keeps_its_message():
    """The arrhenius-fit workload of ``bench/workloads.py`` (``_fit_hits_known_defect``)
    sets aside a dataset whose fit raises a ValueError starting with
    ``barrier delta must be >= 0`` and lets any other exception stop the run.
    Its seed-8 pool holds this dataset, so rewording the message that ``fit``
    gives here needs the same change in that workload."""
    model = RelaxationModel(processes=(
        ArrheniusProcess(tau0=6.416174943845949, delta=0.4940460054921157),
        ArrheniusProcess(tau0=2.272457256017805, delta=5.402178268782606),
        ArrheniusProcess(tau0=0.6980894475861587, delta=34.028912610823355),
    ))
    data = synthesize(model, np.geomspace(0.9563166209163936, 101.5709628229762, 30),
                      0.05, seed=219475902)
    with pytest.raises(ValueError, match=r"^barrier delta must be >= 0") as exc:
        fit(data, 3)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "barrier delta must be >= 0 and finite, got -0.3805040653252383"


def test_fit_result_json_keys():
    res = fit(synthesize(SINGLE, GRID_30, 0.0, seed=0), 1)
    payload = json.loads(res.to_json())
    assert sorted(payload) == ["converged", "covariance", "model", "residual_rms", "std_errors"]
    assert payload["converged"] is True
    assert payload["model"]["processes"][0]["delta_K"] == pytest.approx(16.1, rel=1e-8)


# ------------------------------------------------------------------- I/O

def test_dataset_csv_round_trip(tmp_path):
    points = (
        LifetimePoint(0.5, 900.0, sigma_ln_tau=0.05, mode="DC"),
        LifetimePoint(4.0, 1.25, sigma_ln_tau=None, mode="AC"),
        LifetimePoint(20.0, 3.1e-3, sigma_ln_tau=0.02, mode=""),
    )
    ds = RelaxationDataset(points=points)
    text = ds.to_csv()
    assert text.splitlines()[0] == "T_K,tau_s,sigma_ln_tau,mode"
    assert parse_dataset_csv(text) == ds

    path = tmp_path / "data.csv"
    path.write_text(text)
    assert load_dataset(path) == ds
    synthetic = synthesize(SINGLE, GRID_30, 0.05, seed=4)
    assert parse_dataset_csv(synthetic.to_csv()) == synthetic


def accepted_tag(mode):
    try:
        LifetimePoint(1.0, 1.0, mode=mode)
    except ValueError:
        return False
    return True


POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
POINTS = st.builds(
    LifetimePoint,
    t_kelvin=POSITIVE,
    tau_s=POSITIVE,
    sigma_ln_tau=st.none() | POSITIVE,
    # any text the tag rule lets through must survive the CSV round trip
    mode=st.just("") | st.text(max_size=8).filter(accepted_tag),
)


@settings(derandomize=True, database=None, max_examples=100)
@given(st.lists(POINTS, min_size=1, max_size=40))
def test_dataset_csv_round_trip_property(points):
    ds = RelaxationDataset(points=tuple(points))
    assert parse_dataset_csv(ds.to_csv()) == ds


@pytest.mark.parametrize(
    "mode", ["a,b", '"x', 'x"y', " DC", "DC ", "a\nb", "a\rb", "\t", "a\0"]
)
def test_point_rejects_tags_that_csv_cannot_carry(mode):
    message = f"mode tag {mode!r} cannot be written to CSV unchanged"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LifetimePoint(1.0, 2.0, mode=mode)


def test_dataset_csv_minimal_columns():
    ds = parse_dataset_csv("T_K,tau_s\n1.0,2.0\n3.0,4.0\n")
    assert ds.points[1].tau_s == 4.0
    assert ds.points[0].sigma_ln_tau is None
    assert ds.points[0].mode == ""
    # a sigma-free dataset writes only the two required columns
    assert ds.to_csv().splitlines()[0] == "T_K,tau_s"


MODE_FIRST = "T_K,tau_s,mode,sigma_ln_tau\n"     # to_csv never writes mode before sigma_ln_tau


def test_dataset_csv_reads_cells_by_column_position():
    ds = parse_dataset_csv(MODE_FIRST + "1.0,2.0,DC,0.1\n"
                           "3.0,4.0,AC,\n"      # an empty sigma_ln_tau cell
                           "5.0,6.0,AC\n"       # rows shorter than the header
                           "7.0,8.0\n")
    assert ds.points == (LifetimePoint(1.0, 2.0, 0.1, "DC"), LifetimePoint(3.0, 4.0, None, "AC"),
                         LifetimePoint(5.0, 6.0, None, "AC"), LifetimePoint(7.0, 8.0, None, ""))
    ds = parse_dataset_csv("T_K,tau_s,sigma_ln_tau,mode\n1.0,2.0,0.1\n3.0,4.0,,AC\n")
    assert ds.points == (LifetimePoint(1.0, 2.0, 0.1, ""), LifetimePoint(3.0, 4.0, None, "AC"))


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1.0,2.0,DC,0.1,9\n", "line 2: 5 cells for 4 columns"),
        ("1.0,2.0,DC,0.1\n3.0\n", "line 3: missing T_K/tau_s cells"),
        ("1.0,2.0,DC,x\n", "line 2, column sigma_ln_tau: could not convert string to float: 'x'"),
        ("1.0,,DC,0.1\n", "line 2, column tau_s: could not convert string to float: ''"),
        ("1.0,2.0,DC,-0.1\n", "line 2: sigma_ln_tau must be positive when given, got -0.1"),
        ('1.0,2.0,"a""b",0.1\n', "line 2: mode tag 'a\"b' cannot be written to CSV unchanged"),
        ("0,2.0,DC,0.1\n", "line 2: temperature must be positive, got 0.0"),
    ],
    ids=["extra-cell", "one-cell-row", "bad-sigma", "empty-tau", "negative-sigma", "quoted-tag",
         "zero-temperature"],
)
def test_dataset_csv_located_messages_with_mode_first(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_dataset_csv(MODE_FIRST + rows)
