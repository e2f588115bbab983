"""Seeded inputs, timed tasks and oracle checks of the four workloads.

A workload object provides:

* ``make_tasks(seed, workdir)``: the task pool, built only from the seed.
  The timed loop cycles through it, so every run sees the same mix.
* ``run(task, calls)``: the timed part.  Every call into qtmpair goes
  through ``calls(name, fn, *args)``, which a traced run turns into a span.
* ``check(task, out)``: oracle checks, run untimed after the task.  It
  returns a list of mismatch messages; an empty list means correct.
* ``units(task)``: work units one task completes (points, samples, fits,
  CLI calls), and ``window``, the tasks per throughput window, a multiple
  of the pool's repeating pattern; together they give ``work_per_ref_s``.
* ``replay(tasks, tracer, record)``: feeds the generated inputs through
  the lower layers' public functions one call at a time, for the
  per-layer metrics of a traced run.
* ``clock()``: seconds per ref_ms at the moment, from ``refclock``.

A task that raises, or whose fit does not converge, is a failed
operation; an oracle mismatch is a failed operation too and also makes
the run incorrect.
"""

import csv
import io
import json
import subprocess
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from qtmpair import cli
from qtmpair.analysis import (
    ground_splitting,
    kelvin_to_gigahertz,
    sweep_field,
    sweep_ratio,
    tunneling_from_splitting,
    zeeman_threshold,
)
from qtmpair.constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from qtmpair.jacobi import jacobi_eigh
from qtmpair.model import (
    BASIS_LABELS,
    FieldVector,
    ModelParams,
    basis_state,
    build_hamiltonian,
    eigensystem,
    evolve,
    moment_expectation,
    zero_field_eigensystem,
)
from qtmpair.reference import REFERENCE_MOLECULES
from qtmpair.relaxation import (
    ArrheniusProcess,
    DegenerateParametersError,
    RelaxationModel,
    fit,
    load_dataset,
    model_lifetime,
    parse_dataset_csv,
    synthesize,
)

import refclock


class TaskFailed(RuntimeError):
    """An operation that completed without raising but did not succeed."""


def plain_call(name, fn, *args):
    return fn(*args)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _random_params(rng, ratio_lo, ratio_hi, a_lo=0.05, a_hi=0.5):
    a = _log_uniform(rng, a_lo, a_hi)
    ratio = _log_uniform(rng, ratio_lo, ratio_hi) * float(rng.choice((-1.0, 1.0)))
    return ModelParams(
        u=ratio * a, a=a, mu_x=float(rng.uniform(1.0, 20.0)), mu_y=float(rng.uniform(1.0, 20.0))
    )


def reference_hamiltonian(params, bx=0.0, by=0.0):
    """The 4x4 pair Hamiltonian written out from the model definition."""
    e1 = 2.0 * params.mu_x * bx * MU_B_OVER_K_B
    e2 = 2.0 * params.mu_y * by * MU_B_OVER_K_B
    h = np.full((4, 4), -params.a)
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = 0.0
    h[np.diag_indices(4)] = (-e1, e1, params.u - e2, params.u + e2)
    return h


def closed_form_ratio_row(ratio):
    """Zero-field eigenvalues at U/A = ratio, in units of A, ascending."""
    s = np.hypot(ratio, 4.0)
    return np.sort([(ratio - s) / 2.0, 0.0, ratio, (ratio + s) / 2.0])


def _parse_csv_floats(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def _close(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# ------------------------------------------------------------ field-sweep

FIELD_POINTS = 101   # By from 0 to 2 B_Zt
RATIO_POINTS = 100


@dataclass(frozen=True)
class SweepTask:
    params: ModelParams
    ratio_min: float
    ratio_max: float


class FieldSweep:
    clock = staticmethod(refclock.tick)
    unit = "points"
    pool_size = 256
    window = 16
    replay_tasks = 3

    def make_tasks(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        tasks = []
        for i in range(self.pool_size):
            if i < len(REFERENCE_MOLECULES):
                # the two reference systems: U/A = 40 and 190 at their published A
                ref = REFERENCE_MOLECULES[i]
                a = ref.reported_tunneling_k
                params = ModelParams(
                    u=ref.splitting_ratio * a, a=a,
                    mu_x=float(rng.uniform(1.0, 20.0)), mu_y=float(rng.uniform(1.0, 20.0)),
                )
            else:
                params = _random_params(rng, 1.0, 1000.0)
            ratio = params.u / params.a
            tasks.append(SweepTask(params, min(0.0, 2.0 * ratio), max(0.0, 2.0 * ratio)))
        return tasks

    def units(self, task):
        return FIELD_POINTS + RATIO_POINTS

    def run(self, task, calls):
        field = calls("analysis.sweep_field", sweep_field, task.params, 2.0, FIELD_POINTS)
        ratio = calls(
            "analysis.sweep_ratio", sweep_ratio, task.ratio_min, task.ratio_max, RATIO_POINTS
        )
        texts = [
            calls("serialize.sweep_to_csv", field.to_csv),
            calls("serialize.sweep_to_json", field.to_json),
            calls("serialize.sweep_to_csv", ratio.to_csv),
            calls("serialize.sweep_to_json", ratio.to_json),
        ]
        return field, ratio, texts

    def check(self, task, out):
        field, ratio, (field_csv, field_json, ratio_csv, ratio_json) = out
        p = task.params
        values = field.eigenvalues
        tol = 1e-10 * (3.0 * abs(p.u) + 4.0 * p.a)
        bad = []
        if not _close(values[0], zero_field_eigensystem(p).values, tol):
            bad.append("B = 0 row differs from zero_field_eigensystem")
        if not _close(values.sum(axis=1), np.full(len(values), 2.0 * p.u), 4.0 * tol):
            bad.append("eigenvalue sum differs from tr H = 2U")
        # The antisymmetric x-doublet state is an exact eigenstate at 0 for any
        # field along y; it is the second level for U > 0 and the third for U < 0.
        zero_index = 1 if p.u > 0 else 2
        if not _close(values[:, zero_index], np.zeros(len(values)), tol):
            bad.append(f"lambda{zero_index + 1} is not 0 for a field along y")
        if np.any(np.diff(values, axis=1) < 0) or np.any(np.diff(ratio.eigenvalues, axis=1) < 0):
            bad.append("eigenvalues not ascending")
        expected = np.array([closed_form_ratio_row(r) for r in ratio.axis_values])
        if not _close(ratio.eigenvalues, expected, 1e-12 * (np.abs(expected) + 4.0)):
            bad.append("sweep_ratio rows differ from the closed form")
        for table, text_csv, text_json in ((field, field_csv, field_json), (ratio, ratio_csv, ratio_json)):
            bad += _table_round_trip(table, text_csv, text_json)
        return bad

    def replay(self, tasks, tracer, record):
        for task in tasks[: self.replay_tasks]:
            with tracer.task("replay.field-sweep"):
                self.run(task, tracer.call)
                b_zt = zeeman_threshold(task.params)
                for frac in np.linspace(0.0, 2.0, FIELD_POINTS):
                    h = tracer.call(
                        "model.build_hamiltonian", build_hamiltonian,
                        task.params, FieldVector(by=frac * b_zt),
                    )
                    tracer.call("jacobi.jacobi_eigh", jacobi_eigh, h)
                    es = tracer.call("model.eigensystem", eigensystem, h)
                    tracer.call(
                        "model.moment_expectation", moment_expectation, es.vectors[:, 0], task.params
                    )
                for ratio in np.linspace(task.ratio_min, task.ratio_max, RATIO_POINTS):
                    tracer.call(
                        "model.zero_field_eigensystem", zero_field_eigensystem,
                        ModelParams(u=float(ratio), a=1.0, mu_x=1.0, mu_y=1.0),
                    )


def _table_round_trip(table, text_csv, text_json):
    bad = []
    expected = [table.axis_values[:, None], table.eigenvalues]
    if table.ground_moments is not None:
        expected.append(table.ground_moments)
    expected = np.hstack(expected)
    header, parsed = _parse_csv_floats(text_csv)
    if header != table.columns() or not np.array_equal(parsed, expected):
        bad.append("sweep CSV does not round-trip")
    data = json.loads(text_json)
    parsed = np.column_stack([data["axis"]] + [data[c] for c in table.columns()[1:]])
    if not np.array_equal(parsed, expected):
        bad.append("sweep JSON does not round-trip")
    return bad


# ------------------------------------------------------------- beat-trace

BEAT_SAMPLES = 200
ORACLE_SAMPLES = 8
HAMILTONIAN_KINDS = ("zero-field", "field-x", "field-y-near-BZt", "a=0")


@dataclass(frozen=True)
class BeatTask:
    kind: str
    params: ModelParams
    field: FieldVector
    label: str
    times: np.ndarray
    oracle_index: np.ndarray


def _slowest_beat_gap(params, field):
    """Smallest nonzero level spacing, used to span several beat periods."""
    values = np.linalg.eigvalsh(reference_hamiltonian(params, field.bx, field.by))
    gaps = np.diff(values)
    return float(np.min(gaps[gaps > 1e-6 * (values[-1] - values[0])]))


class BeatTrace:
    clock = staticmethod(refclock.tick)
    unit = "samples"
    pool_size = 256
    window = 16         # four of each Hamiltonian kind
    replay_tasks = 2

    def make_tasks(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        tasks = []
        for i in range(self.pool_size):
            kind = HAMILTONIAN_KINDS[i % len(HAMILTONIAN_KINDS)]
            params = _random_params(rng, 1.0, 200.0)
            if kind == "a=0":
                params = ModelParams(u=params.u, a=0.0, mu_x=params.mu_x, mu_y=params.mu_y)
            field = FieldVector()
            if kind == "field-x":
                field = FieldVector(bx=_log_uniform(rng, 0.01, 1.0))
            elif kind == "field-y-near-BZt":
                field = FieldVector(by=zeeman_threshold(params) * float(rng.uniform(0.9, 1.1)))
            periods = float(rng.uniform(3.0, 6.0))
            t_max = periods / (K_B_OVER_H_GHZ * _slowest_beat_gap(params, field))
            tasks.append(
                BeatTask(
                    kind=kind,
                    params=params,
                    field=field,
                    label=str(rng.choice(BASIS_LABELS)),
                    times=np.linspace(0.0, t_max, BEAT_SAMPLES),
                    oracle_index=np.sort(rng.choice(BEAT_SAMPLES, ORACLE_SAMPLES, replace=False)),
                )
            )
        return tasks

    def units(self, task):
        return BEAT_SAMPLES

    def run(self, task, calls):
        h = calls("model.build_hamiltonian", build_hamiltonian, task.params, task.field)
        initial = basis_state(task.label)
        states = np.empty((len(task.times), 4), dtype=complex)
        populations = np.empty((len(task.times), 4))
        moments = np.empty((len(task.times), 2))
        for k, t in enumerate(task.times):
            state = calls("model.evolve", evolve, initial, h, t)
            states[k] = state
            populations[k] = np.abs(state) ** 2
            moment = calls("model.moment_expectation", moment_expectation, state, task.params)
            moments[k] = moment.mx, moment.my
        return states, populations, moments

    def check(self, task, out):
        # imported here so that scipy stays out of the other workloads' set-up
        from scipy.linalg import expm

        states, populations, moments = out
        p = task.params
        bad = []
        if not _close(populations.sum(axis=1), np.ones(len(task.times)), 1e-10):
            bad.append("norm not preserved")
        h = reference_hamiltonian(p, task.field.bx, task.field.by)
        initial = np.zeros(4, dtype=complex)
        initial[BASIS_LABELS.index(task.label)] = 1.0
        # rounding in expm and in the phases grows with the largest phase
        max_phase = 2.0 * np.pi * K_B_OVER_H_GHZ * np.abs(h).sum(axis=1).max() * task.times[-1]
        tol = 1e-10 + 1e-14 * max_phase
        for k in task.oracle_index:
            expected = expm(-2j * np.pi * K_B_OVER_H_GHZ * h * task.times[k]) @ initial
            if not _close(states[k], expected, tol):
                bad.append(f"state at sample {k} differs from expm")
                break
            pop = np.abs(expected) ** 2
            m = (2.0 * p.mu_x * (pop[0] - pop[1]), 2.0 * p.mu_y * (pop[2] - pop[3]))
            if not _close(moments[k], m, 2.0 * (p.mu_x + p.mu_y) * tol):
                bad.append(f"moment at sample {k} differs from expm")
                break
        return bad

    def replay(self, tasks, tracer, record):
        for task in tasks[: self.replay_tasks]:
            with tracer.task("replay.beat-trace"):
                self.run(task, tracer.call)


# ---------------------------------------------------------- arrhenius-fit

C08_TEMPERATURES = np.geomspace(0.4, 30.0, 30)
C08_NOISE = 0.05
CURVE_POINTS = 200
EXACT_RTOL = 1e-6
LN_TAU_SAFE = 700.0     # below ln(float max) = 709.78 by far more than the noise
NEGATIVE_BARRIER = "barrier delta must be >= 0"


@dataclass(frozen=True)
class FitTask:
    kind: str
    model: RelaxationModel
    temperatures: np.ndarray
    noise: float
    seed: int
    curve_grid: np.ndarray


def _separated_model(rng, n):
    """1..4 channels whose rates cross at well-separated temperatures.

    The crossovers sit near the boundaries of equal-count segments of the
    log-spaced grid, so each channel dominates one stretch of the data.
    """
    t_min = float(rng.uniform(0.3, 1.0))
    t_max = t_min * (float(rng.uniform(60.0, 150.0)) if n > 1 else float(rng.uniform(10.0, 60.0)))
    span = np.log(t_max / t_min)
    delta = float(rng.uniform(0.2, 2.0))
    ln_tau0 = np.log(_log_uniform(rng, 1.0, 1e3))
    processes = [ArrheniusProcess(float(np.exp(ln_tau0)), delta)]
    for k in range(1, n):
        crossover = t_min * np.exp(span * (k / n + float(rng.uniform(-0.08, 0.08)) / n))
        next_delta = delta * float(rng.uniform(4.0, 8.0)) + 2.0
        ln_tau0 -= (next_delta - delta) / crossover
        delta = next_delta
        processes.append(ArrheniusProcess(float(np.exp(ln_tau0)), delta))
    return RelaxationModel(tuple(processes)), np.geomspace(t_min, t_max, max(30, 10 * n))


def _high_barrier_model(rng):
    """One Orbach-like channel with a barrier up to ~2200 K, and its grid down to 2 K."""
    model = RelaxationModel(
        (ArrheniusProcess(_log_uniform(rng, 1e-12, 1e-9), float(rng.uniform(600.0, 2200.0))),)
    )
    return model, np.geomspace(2.0, float(rng.uniform(80.0, 150.0)), 30)


def _representable_from(model, temps):
    """The grid's span, starting where ln tau <= LN_TAU_SAFE at the lowest point."""
    (proc,) = model.processes
    t_lo = max(temps[0], proc.delta / (LN_TAU_SAFE - np.log(proc.tau0)))
    return np.geomspace(t_lo, temps[-1], len(temps))


def _fit_hits_known_defect(task):
    """True if this commit's ``fit`` raises or stalls on the task's noisy data.

    With 5 % noise a low barrier or two close channels can be unidentifiable:
    ``fit`` then ends with a negative barrier (ValueError), a singular normal
    matrix (DegenerateParametersError) or no convergence.
    """
    data = synthesize(task.model, task.temperatures, task.noise, task.seed)
    try:
        return not fit(data, len(task.model.processes)).converged
    except DegenerateParametersError:
        return True
    except ValueError as err:
        if str(err).startswith(NEGATIVE_BARRIER):
            return True
        raise


class ArrheniusFit:
    """Timed pool with no known-defect inputs, plus a probe set that has them.

    Two known defects of ``relaxation`` make operations fail; the timed
    loop must not fail, so their inputs go to ``self.defect_tasks``.  The
    traced run replays that set and counts the failures in
    ``relaxation.synthesize.failed`` and ``relaxation.fit.raised``:

    * high-barrier datasets sampled down to 2 K overflow ln tau > 709.78;
      the timed copy of each starts where ln tau <= ``LN_TAU_SAFE``;
    * a noisy separated-model fit can end with a negative barrier, a
      singular normal matrix or no convergence; such a task is replaced in
      the pool by the same model with the next noise seed.
    """

    clock = staticmethod(refclock.tick)
    unit = "fits"
    pool_size = 128
    window = 32         # four blocks of eight dataset kinds

    def __init__(self):
        self.defect_tasks = []

    def make_tasks(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        tasks = []
        for i in range(self.pool_size):
            slot, cycle = i % 8, i // 8
            noise = C08_NOISE
            if slot < 3:
                # c08 design: reference molecules, 30 points in 0.4-30 K
                ref = REFERENCE_MOLECULES[(slot + cycle) % 2]
                model, temps, kind = ref.relaxation, C08_TEMPERATURES, f"c08 {ref.name}"
                if slot == 2:
                    noise = 0.0
            elif slot == 3:
                (model, temps), kind = _high_barrier_model(rng), "high-barrier"
                noise = 0.0 if cycle % 2 == 0 else C08_NOISE
            else:
                n = slot - 3
                (model, temps), kind = _separated_model(rng, n), f"{n}-channel"
                noise = 0.0 if cycle % 2 == 0 else C08_NOISE
            task = FitTask(
                kind=kind + (" noise-free" if noise == 0.0 else ""),
                model=model,
                temperatures=temps,
                noise=noise,
                seed=int(rng.integers(2**31)),
                curve_grid=np.geomspace(temps[0], temps[-1], CURVE_POINTS),
            )
            if slot == 3:
                self.defect_tasks.append(task)
                temps = _representable_from(model, temps)
                task = replace(task, temperatures=temps,
                               curve_grid=np.geomspace(temps[0], temps[-1], CURVE_POINTS))
            elif slot >= 4 and noise > 0.0:
                while _fit_hits_known_defect(task):
                    self.defect_tasks.append(task)
                    task = replace(task, seed=task.seed + 1)
            tasks.append(task)
        return tasks

    def units(self, task):
        return 1

    def run(self, task, calls):
        data = calls("relaxation.synthesize", synthesize, task.model, task.temperatures, task.noise, task.seed)
        text = calls("serialize.dataset_to_csv", data.to_csv)
        parsed = calls("relaxation.parse_dataset_csv", parse_dataset_csv, text)
        result = calls("relaxation.fit", fit, parsed, len(task.model.processes))
        if not result.converged:
            raise TaskFailed(f"fit did not converge in {result.iterations} iterations")
        curve = calls("relaxation.model_lifetime", model_lifetime, result.model, task.curve_grid)
        report = calls("serialize.fit_to_json", result.to_json)
        return data, parsed, result, curve, report

    def check(self, task, out):
        data, parsed, result, curve, report = out
        bad = []
        if parsed.points != data.points:
            bad.append("dataset CSV does not round-trip")
        if task.noise == 0.0 and not _recovered(result.model, task.model, EXACT_RTOL, EXACT_RTOL):
            bad.append(f"noise-free fit misses the truth by more than {EXACT_RTOL:g} relative")
        # ln tau = -logsumexp(-ln tau0_i - delta_i / T), evaluated without overflow
        terms = [-np.log(p.tau0) - p.delta / task.curve_grid for p in result.model.processes]
        with np.errstate(over="ignore"):
            expected = np.exp(-np.logaddexp.reduce(terms, axis=0))
        if not np.allclose(curve, expected, rtol=1e-9, atol=0.0):
            bad.append("model_lifetime curve differs from the log-sum-exp form")
        reported = json.loads(report)["model"]["processes"]
        if [(p["tau0_s"], p["delta_K"]) for p in reported] != [
            (p.tau0, p.delta) for p in result.model.processes
        ]:
            bad.append("fit JSON does not round-trip")
        return bad

    def replay(self, tasks, tracer, record):
        counts = dict.fromkeys(
            ("fit.count", "fit.converged", "fit.recovered", "fit.iterations",
             "fit.raised", "synthesize.failed", "curve.points"), 0,
        )
        for task in tasks + self.defect_tasks:
            with tracer.task("replay.arrhenius-fit"):
                try:
                    data = tracer.call(
                        "relaxation.synthesize", synthesize,
                        task.model, task.temperatures, task.noise, task.seed,
                    )
                except ValueError:
                    counts["synthesize.failed"] += 1
                    continue
                text = tracer.call("serialize.dataset_to_csv", data.to_csv)
                parsed = tracer.call("relaxation.parse_dataset_csv", parse_dataset_csv, text)
                counts["fit.count"] += 1
                try:
                    result = tracer.call("relaxation.fit", fit, parsed, len(task.model.processes))
                except (ValueError, RuntimeError):
                    counts["fit.raised"] += 1
                    continue
                counts["fit.iterations"] += result.iterations
                counts["fit.converged"] += result.converged
                # the c08 criterion: barriers within 10 %, prefactors within a factor 2
                counts["fit.recovered"] += result.converged and _recovered(
                    result.model, task.model, 0.10, 1.0
                )
                tracer.call("relaxation.model_lifetime", model_lifetime, result.model, task.curve_grid)
                counts["curve.points"] += len(task.curve_grid)
                tracer.call("serialize.fit_to_json", result.to_json)
        record.update(counts)


def _recovered(fitted, truth, delta_rtol, tau0_rtol):
    for f, t in zip(fitted.processes, truth.processes):
        if abs(f.delta - t.delta) > delta_rtol * t.delta:
            return False
        if not (1.0 / (1.0 + tau0_rtol) <= f.tau0 / t.tau0 <= 1.0 + tau0_rtol):
            return False
    return True


# -------------------------------------------------------------- cli-calls

@dataclass(frozen=True)
class CliTask:
    subcommand: str
    argv: tuple
    expected: object       # () -> in-process library result, computed once, untimed
    compare: object        # (stdout text, expected) -> list of mismatches


def _cmp_table(fmt, text, table):
    if fmt == "csv":
        header, parsed = _parse_csv_floats(text)
        ok = header == table.columns()
    else:
        data = json.loads(text)
        parsed = np.column_stack([data["axis"]] + [data[c] for c in table.columns()[1:]])
        ok = True
    expected = [table.axis_values[:, None], table.eigenvalues]
    if table.ground_moments is not None:
        expected.append(table.ground_moments)
    expected = np.hstack(expected)
    ok = ok and _close(parsed, expected, 1e-9 * (np.abs(expected) + 1.0))
    return [] if ok else ["spectrum table differs from the library result"]


def _expected_eigen(params, bx, by):
    """Library eigenvalues, and the Hamiltonian written out independently."""
    values = eigensystem(build_hamiltonian(params, FieldVector(bx=bx, by=by))).values
    return values, reference_hamiltonian(params, bx, by)


def _cmp_eigen(text, expected):
    library_values, h = expected
    data = json.loads(text)
    values = np.array(data["values_K"])
    vectors = np.array(data["vectors"]).T
    scale = 1e-9 * (np.abs(h).sum(axis=1).max() + 1.0)
    ok = _close(values, library_values, scale)
    ok = ok and _close(h @ vectors, vectors * values, scale)
    ok = ok and _close(vectors.T @ vectors, np.eye(4), 1e-9)
    return [] if ok else ["eigen output differs from the library result"]


def _expected_extract(u, a, mu_y):
    params = ModelParams(u=u, a=a, mu_x=1.0, mu_y=mu_y)
    delta = ground_splitting(params)
    return {
        "splitting_K": delta,
        "tunneling_paper_K": tunneling_from_splitting(delta, mode="paper"),
        "tunneling_exact_K": tunneling_from_splitting(delta, u=u, mode="exact"),
        "frequency_GHz": kelvin_to_gigahertz(delta),
        "zeeman_threshold_T": zeeman_threshold(params),
    }


def _cmp_extract(text, expected):
    data = json.loads(text)
    ok = all(np.isclose(data[k], v, rtol=1e-12, atol=0.0) for k, v in expected.items())
    return [] if ok else ["extract report differs from the library result"]


def _expected_fit(path):
    return fit(load_dataset(path), 2)


def _cmp_fit(text, expected):
    data = json.loads(text)
    got = [(p["tau0_s"], p["delta_K"]) for p in data["model"]["processes"]]
    want = [(p.tau0, p.delta) for p in expected.model.processes]
    ok = data["converged"] and np.allclose(got, want, rtol=1e-9, atol=0.0)
    return [] if ok else ["fit report differs from the library result"]


def _cmp_synth(text, expected):
    got = parse_dataset_csv(text)
    ok = np.allclose(got.temperatures(), expected.temperatures(), rtol=1e-12, atol=0.0)
    ok = ok and np.allclose(got.lifetimes(), expected.lifetimes(), rtol=1e-12, atol=0.0)
    return [] if ok else ["synth dataset differs from the library result"]


def _expected_evolve(params, field, label, t_max, points):
    h = build_hamiltonian(params, field)
    initial = basis_state(label)
    rows = []
    for t in np.linspace(0.0, t_max, points):
        state = evolve(initial, h, t)
        m = moment_expectation(state, params)
        rows.append([t, *(np.abs(state) ** 2), m.mx, m.my])
    return np.array(rows)


def _cmp_evolve(text, expected):
    _, parsed = _parse_csv_floats(text)
    scale = np.abs(expected).max(axis=0) + 1.0
    return [] if _close(parsed, expected, 1e-9 * scale) else ["evolve trace differs from the library result"]


def _num(x):
    return repr(float(x))


class CliCalls:
    clock = staticmethod(refclock.launch_tick)
    unit = "calls"
    window = 7          # one call of each subcommand

    def __init__(self):
        self.workdir = None
        self._expected = {}
        self._outputs = {}

    def make_tasks(self, seed, workdir):
        """Two seeded argv lists per subcommand; closed loop with one client."""
        self.workdir = workdir
        rng = np.random.default_rng([seed, 4])
        tasks = []
        for k in range(2):
            fmt = ("csv", "json")[k]
            lo = float(rng.uniform(-100.0, 0.0))
            hi = lo + _log_uniform(rng, 10.0, 1000.0)
            tasks.append(CliTask(
                "spectrum-ua",
                ("spectrum-ua", "--min", _num(lo), "--max", _num(hi), "--points", "101", "--format", fmt),
                partial(sweep_ratio, lo, hi, 101), partial(_cmp_table, fmt),
            ))
            p = _random_params(rng, 1.0, 1000.0)
            tasks.append(CliTask(
                "spectrum-field",
                ("spectrum-field", "--u", _num(p.u), "--a", _num(p.a), "--mu-x", _num(p.mu_x),
                 "--mu-y", _num(p.mu_y), "--max", "2", "--points", "81", "--format", fmt),
                partial(sweep_field, p, 2.0, 81), partial(_cmp_table, fmt),
            ))
            p = _random_params(rng, 1.0, 1000.0)
            bx, by = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))
            tasks.append(CliTask(
                "eigen",
                ("eigen", "--u", _num(p.u), "--a", _num(p.a), "--mu-x", _num(p.mu_x),
                 "--mu-y", _num(p.mu_y), "--bx", _num(bx), "--by", _num(by)),
                partial(_expected_eigen, p, bx, by), _cmp_eigen,
            ))
            p = _random_params(rng, 1.0, 1000.0)
            u = abs(p.u)
            tasks.append(CliTask(
                "extract",
                ("extract", "--u", _num(u), "--a", _num(p.a), "--mu-y", _num(p.mu_y)),
                partial(_expected_extract, u, p.a, p.mu_y), _cmp_extract,
            ))
            ref = REFERENCE_MOLECULES[k]
            path = workdir / f"dataset-{k}.csv"
            path.write_text(
                synthesize(ref.relaxation, C08_TEMPERATURES, C08_NOISE, int(rng.integers(2**31))).to_csv(),
                encoding="utf-8",
            )
            argv = ("fit", "--input", str(path), "--processes", "2")
            if k == 1:
                argv += ("--curve-output", str(workdir / "curve.csv"))
            tasks.append(CliTask(
                "fit", argv,
                partial(_expected_fit, path), _cmp_fit,
            ))
            model, temps = _separated_model(rng, k + 1)
            noise, synth_seed = C08_NOISE * k, int(rng.integers(2**31))
            argv = ("synth",)
            for proc in model.processes:
                argv += ("--process", _num(proc.tau0), _num(proc.delta))
            argv += ("--t-min", _num(temps[0]), "--t-max", _num(temps[-1]),
                     "--points", str(len(temps)), "--noise", _num(noise), "--seed", str(synth_seed))
            tasks.append(CliTask(
                "synth", argv,
                partial(synthesize, model, np.geomspace(temps[0], temps[-1], len(temps)),
                        noise, synth_seed),
                _cmp_synth,
            ))
            p = _random_params(rng, 1.0, 100.0)
            field = FieldVector(by=zeeman_threshold(p) * float(rng.uniform(0.9, 1.1)))
            label = str(rng.choice(BASIS_LABELS))
            t_max = 3.0 / (K_B_OVER_H_GHZ * _slowest_beat_gap(p, field))
            tasks.append(CliTask(
                "evolve",
                ("evolve", "--u", _num(p.u), "--a", _num(p.a), "--mu-x", _num(p.mu_x),
                 "--mu-y", _num(p.mu_y), "--by", _num(field.by), "--initial", label,
                 "--t-max", _num(t_max), "--points", "101"),
                partial(_expected_evolve, p, field, label, t_max, 101), _cmp_evolve,
            ))
        return tasks

    def units(self, task):
        return 1

    def run(self, task, calls):
        proc = calls(f"cli.subprocess.{task.subcommand}", self._call, task.argv)
        if proc.returncode != 0:
            raise TaskFailed(f"exit code {proc.returncode}: {proc.stderr.decode()[:200]}")
        return proc.stdout

    def _call(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "qtmpair.cli", *argv],
            capture_output=True, cwd=self.workdir, timeout=120,
        )

    def check(self, task, out):
        bad = []
        if self._outputs.setdefault(task.argv, out) != out:
            bad.append("same argv gave different bytes")
        if task.argv not in self._expected:
            self._expected[task.argv] = task.expected()
        return bad + task.compare(out.decode("utf-8"), self._expected[task.argv])

    def replay(self, tasks, tracer, record):
        out = self.workdir / "replay-output.txt"
        for task in tasks:
            with tracer.task("replay.cli-calls"):
                code = tracer.call(
                    f"cli.compute.{task.subcommand}", cli.main, [*task.argv, "--output", str(out)]
                )
            if code != 0:
                raise TaskFailed(f"in-process cli.main {task.subcommand} exited {code}")


WORKLOADS = {
    "field-sweep": FieldSweep,
    "beat-trace": BeatTrace,
    "arrhenius-fit": ArrheniusFit,
    "cli-calls": CliCalls,
}
