"""Multi-process Arrhenius model of zero-field magnetization lifetimes.

Each decay channel is thermally activated, tau_i(T) = tau0_i * exp(delta_i/T),
and channels act in parallel, so rates add:

    1 / tau(T) = sum_i (1/tau0_i) * exp(-delta_i / T)

A single channel dominates wherever its rate is largest, which reproduces
the straight regime-local lines of an Arrhenius plot while giving one
smooth model over the full temperature range.  Fitting minimizes weighted
least squares on ln(tau), matching the roughly relative errors of lifetime
measurements, with a damped Gauss-Newton iteration.
"""

import csv
import io
import math

import numpy as np

from .constants import MAX_PROCESSES
from .model import _first
from .record import Record
from .serialize import csv_text, fmt, json_text

MAX_ITERATIONS = 500
OBJECTIVE_RTOL = 1e-12
STEP_TOL = 1e-10
DAMPING_FACTOR = 10.0
CONDITION_LIMIT = 1e12
TINY = np.finfo(float).tiny

DATASET_COLUMNS = ("T_K", "tau_s", "sigma_ln_tau", "mode")


class DegenerateParametersError(RuntimeError):
    """Normal matrix is singular; carries the most degenerate parameter pair."""

    def __init__(self, message, parameter_pair):
        super().__init__(message)
        self.parameter_pair = parameter_pair


class ArrheniusProcess(Record):
    """One activated decay channel: lifetime tau0 * exp(delta / T).

    tau0 in seconds (> 0), barrier delta = Delta_eff/k_B in kelvin (>= 0).
    """

    __slots__ = ("tau0", "delta")

    def __init__(self, tau0, delta):
        self._init(tau0, delta)
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise ValueError(f"prefactor tau0 must be positive and finite, got {self.tau0}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"barrier delta must be >= 0 and finite, got {self.delta}")


class RelaxationModel(Record):
    """Parallel combination of 1 to 4 Arrhenius channels, sorted by barrier."""

    __slots__ = ("processes",)

    def __init__(self, processes):
        procs = tuple(processes)
        if not 1 <= len(procs) <= MAX_PROCESSES:
            raise ValueError(f"need 1..{MAX_PROCESSES} processes, got {len(procs)}")
        if any(not isinstance(p, ArrheniusProcess) for p in procs):
            raise TypeError("processes must be ArrheniusProcess instances")
        self._init(tuple(sorted(procs, key=lambda p: (p.delta, p.tau0))))


class LifetimePoint(Record):
    """One (temperature, lifetime) observation.

    ``sigma_ln_tau`` is the optional one-sigma uncertainty of ln(tau);
    ``mode`` is a free measurement tag such as 'DC' or 'AC', carried as
    metadata only; it must read back unchanged from CSV, so it holds no
    comma, double quote, line break or NUL and no leading or trailing space.
    """

    __slots__ = ("t_kelvin", "tau_s", "sigma_ln_tau", "mode")

    def __init__(self, t_kelvin, tau_s, sigma_ln_tau=None, mode=""):
        self._init(t_kelvin, tau_s, sigma_ln_tau, mode)
        if not (math.isfinite(self.t_kelvin) and self.t_kelvin > 0):
            raise ValueError(f"temperature must be positive, got {self.t_kelvin}")
        if not (math.isfinite(self.tau_s) and self.tau_s > 0):
            raise ValueError(f"lifetime must be positive, got {self.tau_s}")
        if self.sigma_ln_tau is not None and not (
            math.isfinite(self.sigma_ln_tau) and self.sigma_ln_tau > 0
        ):
            raise ValueError(f"sigma_ln_tau must be positive when given, got {self.sigma_ln_tau}")
        mode = self.mode
        if mode and (mode != mode.strip() or any(c in mode for c in ',"\r\n\0')):
            raise ValueError(f"mode tag {mode!r} cannot be written to CSV unchanged")


class RelaxationDataset(Record):
    """Collection of lifetime observations."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(points)
        if not pts:
            raise ValueError("dataset must contain at least one point")
        if any(not isinstance(p, LifetimePoint) for p in pts):
            raise TypeError("points must be LifetimePoint instances")
        self._init(pts)

    def temperatures(self):
        return np.array([p.t_kelvin for p in self.points])

    def lifetimes(self):
        return np.array([p.tau_s for p in self.points])

    def to_csv(self):
        """Dataset as CSV text; sigma/mode columns appear only when used."""
        columns = {"T_K": self.temperatures(), "tau_s": self.lifetimes()}
        if any(p.sigma_ln_tau is not None for p in self.points):
            columns["sigma_ln_tau"] = [
                "" if p.sigma_ln_tau is None else fmt(p.sigma_ln_tau) for p in self.points
            ]
        if any(p.mode for p in self.points):
            columns["mode"] = [p.mode for p in self.points]
        return csv_text(columns)


def parse_dataset_csv(text):
    """Parse dataset CSV with header ``T_K,tau_s[,sigma_ln_tau][,mode]``."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty dataset file") from None
    header = [h.strip() for h in header]
    if (
        header[:2] != ["T_K", "tau_s"]
        or any(h not in DATASET_COLUMNS for h in header)
        or len(set(header)) != len(header)
    ):
        raise ValueError(
            f"dataset header must be T_K,tau_s[,sigma_ln_tau][,mode], got {','.join(header)}"
        )
    n = len(header)     # an absent column reads cell n, which padding leaves empty
    sigma_at, mode_at = (header.index(h) if h in header else n for h in DATASET_COLUMNS[2:])
    points = []
    for number, row in enumerate(reader, start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) > n:
            raise ValueError(f"line {number}: {len(cells)} cells for {n} columns")
        if len(cells) < 2:
            raise ValueError(f"line {number}: missing T_K/tau_s cells")
        cells += [""] * (n + 1 - len(cells))
        t_kelvin = _cell_value(cells[0], "T_K", number)
        tau_s = _cell_value(cells[1], "tau_s", number)
        sigma = _cell_value(cells[sigma_at], "sigma_ln_tau", number) if cells[sigma_at] else None
        try:
            points.append(LifetimePoint(t_kelvin, tau_s, sigma, cells[mode_at]))
        except ValueError as err:
            raise ValueError(f"line {number}: {err}") from None
    return RelaxationDataset(points=tuple(points))


def _cell_value(cell, column, number):
    try:
        return float(cell)
    except ValueError as err:
        raise ValueError(f"line {number}, column {column}: {err}") from None


def load_dataset(path):
    """Read a dataset CSV file, UTF-8 with or without a byte-order mark."""
    with open(path, encoding="utf-8-sig") as handle:
        return parse_dataset_csv(handle.read())


class FitResult(Record):
    """Fitted model plus uncertainty information.

    ``std_errors`` and ``covariance`` refer to the fit parameters in the
    order (ln tau0_1, delta_1, ln tau0_2, delta_2, ...) with processes
    sorted by ascending barrier, the same order as ``model.processes``.
    ``objective_trace`` records the weighted objective after each
    accepted step (diagnostics; not serialized).
    """

    __slots__ = ("model", "std_errors", "residual_rms", "covariance", "converged", "iterations",
                 "objective_trace")

    def __init__(self, model, std_errors, residual_rms, covariance, converged, iterations,
                 objective_trace=()):
        self._init(model, std_errors, residual_rms, covariance, converged, iterations,
                   objective_trace)

    def to_json(self):
        return json_text({
            "model": {
                "processes": [
                    {"tau0_s": p.tau0, "delta_K": p.delta} for p in self.model.processes
                ]
            },
            "std_errors": self.std_errors,
            "covariance": self.covariance,
            "residual_rms": self.residual_rms,
            "converged": self.converged,
        })


# ------------------------------------------------------------------ model

def _evaluate(theta, t):
    """ln tau of the parallel-channel model and d ln tau / d theta.

    theta = (ln tau0_1, delta_1, ln tau0_2, ...); Jacobian rows are data
    points.  Rates that underflow to 0 or overflow give ln tau = +-inf and
    a NaN Jacobian, silent under its callers' errstate; ``fit`` rejects them.
    """
    channel = np.exp(-theta[0::2] - theta[1::2] / t[:, None])
    rate = channel.sum(axis=1)
    jac = np.empty((len(t), len(theta)))
    np.divide(channel, rate[:, None], out=jac[:, 0::2])
    np.divide(channel, (rate * t)[:, None], out=jac[:, 1::2])
    return -np.log(rate), jac


@np.errstate(all="ignore")  # a lifetime beyond float64 is inf, one that rounds to 0 is 0
def model_lifetime(model, t_kelvin):
    """Lifetime of the parallel-channel model at temperature(s) ``t_kelvin``.

    Accepts a scalar or an array of any shape and returns the same shape;
    temperatures must be positive.  A lifetime beyond float64 (ln tau >
    709.78) comes back as ``inf``, without a warning.
    """
    t = np.asarray(t_kelvin, dtype=float)
    bad = ~(np.isfinite(t) & (t > 0.0))
    if bad.any():
        i = _first(bad)     # () for a scalar, reported as index 0
        raise ValueError(f"temperatures must be positive and finite, got {t[i]} at index {i or 0}")
    theta = np.array([[np.log(p.tau0), p.delta] for p in model.processes]).ravel()
    tau = np.exp(_evaluate(theta, t.reshape(-1))[0])
    return float(tau[0]) if t.ndim == 0 else tau.reshape(t.shape)


def synthesize(model, temperatures, noise_sigma=0.0, seed=0):
    """Generate a synthetic dataset with lognormal lifetime scatter.

    Each lifetime is the model value times exp(eps) with eps drawn from a
    Gaussian of width ``noise_sigma`` by a seeded generator; the same seed
    always yields the same dataset.
    """
    temps = np.asarray(temperatures, dtype=float).ravel()
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    with np.errstate(over="ignore", invalid="ignore"):
        eps = np.random.default_rng(seed).standard_normal(temps.size) * noise_sigma
        taus = model_lifetime(model, temps) * np.exp(eps)
    bad = ~(taus < np.inf)      # inf, or NaN from a zero lifetime times an infinite factor
    if bad.any():
        first = temps[_first(bad)]
        raise ValueError(f"lifetime exceeds float64 (ln tau > 709.78) at T = {first} K")
    if not taus.all():      # a rate 1/tau beyond float64, or noise, gave 0; inf is named first
        first = temps[_first(taus == 0.0)]
        raise ValueError(f"lifetime underflows float64 (ln tau < -709.78) at T = {first} K")
    return RelaxationDataset(points=tuple(map(LifetimePoint, temps.tolist(), taus.tolist())))


# -------------------------------------------------------------------- fit

def _segmented_init(t, ln_tau, n_processes):
    """Initial parameters from contiguous equal-count segments of the
    Arrhenius plot (ln tau versus 1/T), one straight line per segment."""
    inv_t = 1.0 / t
    order = np.argsort(inv_t)
    x, y = inv_t[order], ln_tau[order]
    n = len(x)
    theta = np.empty(2 * n_processes)
    for k in range(n_processes):
        segment = slice(round(k * n / n_processes), round((k + 1) * n / n_processes))
        # full=True returns the same line, but no RankWarning where all T are equal
        (slope, intercept), *_ = np.polyfit(x[segment], y[segment], 1, full=True)
        theta[2 * k] = intercept            # ln tau0
        theta[2 * k + 1] = max(slope, 0.0)  # barrier cannot be negative
    return theta


@np.errstate(all="ignore")  # inf and NaN are silent here: the checks below reject them by name
def fit(data, n_processes):
    """Fit ``n_processes`` parallel Arrhenius channels to a dataset.

    Minimizes sum_k w_k (ln tau_k - ln tau_model(T_k))^2 over the
    parameters (ln tau0_i, delta_i) by Gauss-Newton with multiplicative
    damping (x10 on uphill trials, /10 after accepted steps).  Weights
    are 1/sigma^2 where a point carries an uncertainty, else 1.  The
    iteration starts from a straight-line fit to each of ``n_processes``
    equal-count segments of the Arrhenius plot.

    Parameters
    ----------
    data : RelaxationDataset
        Needs at least ``2 * 2 * n_processes`` points.
    n_processes : int
        Number of channels, 1 to 4.

    Returns
    -------
    FitResult
        ``converged`` is False if the iteration cap was reached or no
        downhill step could be found.

    Raises
    ------
    DegenerateParametersError
        If the Gauss-Newton normal matrix is numerically singular, e.g.
        when two channels collapse onto each other.
    ValueError
        If a 1/T^2 or weight 1/sigma^2 is 0 or their sums leave float64, or
        if the start lines, the covariance or a fitted prefactor leave float64.
    """
    if not (isinstance(n_processes, (int, np.integer)) and 1 <= n_processes <= MAX_PROCESSES):
        raise ValueError(f"n_processes must be an integer in 1..{MAX_PROCESSES}, got {n_processes}")
    n_params = 2 * n_processes
    if len(data.points) < 2 * n_params:
        raise ValueError(
            f"need at least {2 * n_params} points to fit {n_processes} processes, "
            f"got {len(data.points)}"
        )
    t = data.temperatures()
    y = np.log(data.lifetimes())
    sigma = np.array([1.0 if p.sigma_ln_tau is None else p.sigma_ln_tau for p in data.points])
    # the start lines scale by the sum of 1/T^2, the normal equations by those of w and w/T^2
    weights, inv_t2 = np.float_power(sigma, -2.0), t**-2.0
    sums = weights.sum() + inv_t2.sum() + weights @ inv_t2     # finite if each sum is
    if not (sums < np.inf and weights.all() and inv_t2.all()):
        i = int(np.argmax(np.abs(np.log(weights * inv_t2))))    # the most extreme point
        raise ValueError(f"1/T^2 and 1/sigma_ln_tau^2 must be nonzero with sums within float64, "
                         f"got T = {t[i]} K, sigma_ln_tau = {data.points[i].sigma_ln_tau}")

    theta = _segmented_init(t, y, n_processes)
    ln_tau, jac = _evaluate(theta, t)
    residual = y - ln_tau
    terms = weights * residual**2
    obj = float(terms.sum())
    if not (math.isfinite(obj) and np.isfinite(jac).all()):
        i = _first(~np.isfinite(np.column_stack([terms, jac])).all(axis=1))
        raise ValueError(f"start lines give a residual or slope beyond float64 at T = {t[i]} K")
    trace = [obj]
    damping = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jtw = jac.T * weights
        normal = jtw @ jac
        gradient = jtw @ residual
        scale = np.diag(np.maximum(normal.diagonal(), TINY))

        for _ in range(60):
            try:
                step = np.linalg.solve(normal + damping * scale, gradient)
            except np.linalg.LinAlgError:
                damping *= DAMPING_FACTOR
                continue
            candidate = theta + step
            cand_ln_tau, cand_jac = _evaluate(candidate, t)
            cand_residual = y - cand_ln_tau
            cand_obj = float((weights * cand_residual**2).sum())
            if math.isfinite(cand_obj) and cand_obj <= obj and np.isfinite(cand_jac).all():
                change = obj - cand_obj
                theta, obj, residual, jac = candidate, cand_obj, cand_residual, cand_jac
                trace.append(obj)
                damping = max(damping / DAMPING_FACTOR, 1e-15)
                break
            damping *= DAMPING_FACTOR
        else:   # no downhill step in 60 trials
            break
        small_step = math.sqrt(step @ step) < STEP_TOL     # np.linalg.norm's sum for a vector
        if change <= OBJECTIVE_RTOL * max(obj, TINY) or small_step:
            converged = True
            break

    pairs = theta.reshape(-1, 2)    # (ln tau0, delta) rows, by barrier and then ln tau0,
    pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]   # the order of RelaxationModel
    ln_tau, jac = _evaluate(pairs.ravel(), t)
    residual = y - ln_tau
    covariance, std_errors = _covariance((jac.T * weights) @ jac, residual, weights, n_params)

    model = RelaxationModel(    # ArrheniusProcess rejects a prefactor beyond float64
        [ArrheniusProcess(float(np.exp(ln_tau0)), float(delta)) for ln_tau0, delta in pairs]
    )
    return FitResult(
        model=model,
        std_errors=std_errors,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        covariance=covariance,
        converged=converged,
        iterations=iterations,
        objective_trace=tuple(trace),
    )


def _covariance(normal, residual, weights, n_params):
    """Invert the normal matrix, scaled by the residual variance (under the errstate of fit)."""
    if np.linalg.cond(normal) > CONDITION_LIMIT:
        pair = _degenerate_pair(normal, n_params)
        raise DegenerateParametersError(
            f"normal matrix is numerically singular: parameters {pair[0]} and {pair[1]} "
            "are degenerate (channels may have collapsed onto each other)",
            parameter_pair=pair,
        )
    dof = len(residual) - n_params
    s2 = float(np.sum(weights * residual**2)) / dof
    covariance = s2 * np.linalg.inv(normal)
    covariance = (covariance + covariance.T) / 2.0
    if not np.isfinite(covariance).all():   # the normal matrix scales with w: too small ones
        raise ValueError(f"covariance exceeds float64 for weights down to {weights.min()}")
    return covariance, np.sqrt(np.maximum(np.diag(covariance), 0.0))


def _degenerate_pair(normal, n_params):
    """Names of the two parameters dominating the near-null direction."""
    d = np.sqrt(np.maximum(np.diag(normal), TINY))
    corr = normal / np.outer(d, d)
    _, vecs = np.linalg.eigh(corr)
    null = np.abs(vecs[:, 0])
    first, second = np.argsort(null)[-2:][::-1]
    names = [f"{kind}_{i + 1}" for i in range(n_params // 2) for kind in ("ln_tau0", "delta")]
    return (names[first], names[second])
