"""Command-line interface: plot-ready spectrum tables, scalar extraction,
time traces, and Arrhenius dataset synthesis/fitting.

Exit codes: 0 on success, 2 for argument errors (usage text on stderr;
every ``ValueError`` a handler raises, including the library's own
parameter checks, and every file that cannot be read or written is
reported this way), 3 for domain errors such as a
non-convergent fit (machine-readable JSON diagnostic on stderr).  Output
is byte-reproducible for identical inputs: floats are printed as
shortest round-trip decimals.
"""

import argparse
import re
import sys

import numpy as np

from .analysis import (
    EXTRACTION_NOTES,
    _grid,
    ground_splitting,
    kelvin_to_gigahertz,
    sweep_field,
    sweep_ratio,
    tunneling_from_splitting,
    zeeman_threshold,
)
from .constants import MAX_PROCESSES
from .model import (
    BASIS_LABELS,
    ModelParams,
    basis_state,
    eigensystem,
    evolve,
    hamiltonian_stack,
    moment_expectation,
)
from .serialize import csv_text, json_text

EXIT_OK = 0
EXIT_DOMAIN = 3   # argparse itself exits 2 on argument errors
_NEGATIVE_FLOAT = re.compile(r"-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)\Z", re.I)


class DomainError(RuntimeError):
    """Runtime failure reported as a JSON diagnostic with exit code 3."""

    def __init__(self, kind, message, **detail):
        super().__init__(message)
        self.kind = kind
        self.detail = detail

    def to_json(self):
        return json_text({"error": self.kind, "message": str(self), **self.detail})


def _add_model_flags(sub):
    sub.add_argument("--u", type=float, required=True, help="doublet splitting U (kelvin)")
    sub.add_argument("--a", type=float, required=True, help="tunneling element A (kelvin, >= 0)")
    sub.add_argument(
        "--mu-x", type=float, default=None,
        help="pair moment along x (Bohr magnetons; defaults to --mu-y)",
    )
    sub.add_argument(
        "--mu-y", type=float, required=True, help="pair moment along y (Bohr magnetons)"
    )


def _model_params(args):
    mu_x = args.mu_y if args.mu_x is None else args.mu_x
    return ModelParams(u=args.u, a=args.a, mu_x=mu_x, mu_y=args.mu_y)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtmpair",
        description=(
            "Four-state pseudospin toolkit for coupled anisotropic 4f ion pairs: "
            "tunneling spectra, field sweeps, parameter extraction and Arrhenius "
            "relaxation fits. Units: energies in kelvin (E/k_B), fields in tesla, "
            "moments in Bohr magnetons, times in nanoseconds/seconds."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = commands.add_parser(
        "spectrum-ua",
        help="zero-field eigenvalues versus the ratio U/A (units of A)",
        description="Zero-field eigenvalue table versus U/A; eigenvalues in units of A.",
    )
    sub.add_argument("--min", type=float, required=True, help="first U/A ratio (dimensionless)")
    sub.add_argument("--max", type=float, required=True, help="last U/A ratio (dimensionless)")
    sub.add_argument("--points", type=int, required=True, help="number of scan points (>= 2)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.set_defaults(handler=_cmd_spectrum_ua)

    sub = commands.add_parser(
        "spectrum-field",
        help="eigenvalues and ground moment versus a field along y",
        description=(
            "Eigenvalue/ground-moment table versus a magnetic field along y; the scan "
            "axis is By in units of the threshold field B_Zt = U/(2 mu_y), eigenvalues "
            "in kelvin, moments in Bohr magnetons."
        ),
    )
    _add_model_flags(sub)
    sub.add_argument(
        "--max", type=float, required=True,
        help="sweep end in units of B_Zt (dimensionless, > 0)",
    )
    sub.add_argument("--points", type=int, required=True, help="number of scan points (>= 2)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.set_defaults(handler=_cmd_spectrum_field)

    sub = commands.add_parser(
        "eigen",
        help="one-shot eigensystem at given parameters and field",
        description="Eigenvalues (kelvin) and eigenvectors at one parameter/field point (JSON).",
    )
    _add_model_flags(sub)
    sub.add_argument("--bx", type=float, default=0.0, help="field along x (tesla)")
    sub.add_argument("--by", type=float, default=0.0, help="field along y (tesla)")
    sub.set_defaults(handler=_cmd_eigen)

    sub = commands.add_parser(
        "extract",
        help="scalar report: splitting, tunneling element, frequency, threshold field",
        description=(
            "Scalar extraction report (JSON). Provide --delta directly and/or --u/--a "
            "to compute the splitting; --u/--mu-y enable the threshold field."
        ),
    )
    sub.add_argument("--delta", type=float, default=None, help="ground-state splitting (kelvin)")
    sub.add_argument(
        "--u", type=float, default=None,
        help="doublet splitting U (kelvin, finite); with a negative U, --mode both "
        "reports tunneling_exact_K as null",
    )
    sub.add_argument("--a", type=float, default=None, help="tunneling element A (kelvin)")
    sub.add_argument("--mu-y", type=float, default=None, help="pair moment along y (Bohr magnetons)")
    sub.add_argument(
        "--mode", choices=("paper", "exact", "both"), default="both",
        help="tunneling extraction rule: quarter rule ('paper'), closed-form inversion "
        "('exact'), or both",
    )
    sub.set_defaults(handler=_cmd_extract)

    sub = commands.add_parser(
        "fit",
        help="fit parallel Arrhenius processes to a lifetime dataset",
        description=(
            "Fit N parallel Arrhenius channels to a T_K,tau_s dataset (CSV); report is "
            "JSON (prefactors in seconds, barriers in kelvin). Optionally write the "
            "fitted model curve sampled at the data temperatures plus a dense "
            "log-spaced grid."
        ),
    )
    sub.add_argument("--input", metavar="PATH", required=True, help="dataset CSV file")
    sub.add_argument(
        "--processes", type=int, required=True, choices=range(1, MAX_PROCESSES + 1),
        help=f"number of channels (1..{MAX_PROCESSES})",
    )
    sub.add_argument(
        "--curve-output", metavar="PATH", default=None,
        help="also write the model curve as CSV (T_K,tau_s) to this file",
    )
    sub.add_argument(
        "--grid-points", type=int, default=200,
        help="size of the dense log-spaced temperature grid for the curve (>= 2)",
    )
    sub.set_defaults(handler=_cmd_fit)

    sub = commands.add_parser(
        "synth",
        help="generate a synthetic lifetime dataset from Arrhenius parameters",
        description=(
            "Synthesize a lifetime dataset on a log-spaced temperature grid with "
            "seeded lognormal scatter; output is dataset CSV (T_K,tau_s)."
        ),
    )
    sub.add_argument(
        "--process", nargs=2, type=float, action="append", required=True,
        metavar=("TAU0", "DELTA"),
        help="one channel: prefactor tau0 (seconds) and barrier delta (kelvin); repeatable",
    )
    sub.add_argument("--t-min", type=float, required=True, help="lowest temperature (kelvin)")
    sub.add_argument("--t-max", type=float, required=True, help="highest temperature (kelvin)")
    sub.add_argument("--points", type=int, required=True, help="number of temperatures (>= 1)")
    sub.add_argument(
        "--noise", type=float, default=0.0, help="ln-tau noise width (dimensionless, >= 0)"
    )
    sub.add_argument("--seed", type=int, default=0, help="random seed (integer)")
    sub.set_defaults(handler=_cmd_synth)

    sub = commands.add_parser(
        "evolve",
        help="coherent time trace of basis-state populations and moment",
        description=(
            "Propagate a basis state coherently and tabulate populations and the "
            "magnetic moment; trace columns are t_ns,p1,p1bar,p2,p2bar,mx,my "
            "(times in nanoseconds, moments in Bohr magnetons)."
        ),
    )
    _add_model_flags(sub)
    sub.add_argument("--bx", type=float, default=0.0, help="field along x (tesla)")
    sub.add_argument("--by", type=float, default=0.0, help="field along y (tesla)")
    sub.add_argument(
        "--initial", choices=BASIS_LABELS, default="1", help="initial basis state"
    )
    sub.add_argument("--t-max", type=float, required=True, help="trace length (nanoseconds)")
    sub.add_argument("--points", type=int, required=True, help="number of samples (>= 2)")
    sub.set_defaults(handler=_cmd_evolve)

    # each subcommand ends with --output, reports usage errors against its own parser
    # and reads -1.5e1 or -inf as a value: argparse's own rule takes only -1 and -1.5
    for sub_parser in commands.choices.values():
        sub_parser.add_argument(
            "--output", metavar="PATH", default=None,
            help="output file (default: standard output)",
        )
        sub_parser.set_defaults(_parser=sub_parser)
        sub_parser._negative_number_matcher = _NEGATIVE_FLOAT
    return parser


# ---------------------------------------------------------------- handlers

def _cmd_spectrum_ua(args):
    table = sweep_ratio(args.min, args.max, args.points)
    return table.to_csv() if args.format == "csv" else table.to_json()


def _cmd_spectrum_field(args):
    table = sweep_field(_model_params(args), args.max, args.points)
    return table.to_csv() if args.format == "csv" else table.to_json()


def _cmd_eigen(args):
    es = eigensystem(hamiltonian_stack(_model_params(args), args.bx, args.by))
    return json_text({
        "values_K": es.values,
        "vectors": es.vectors.T,
        "basis": list(BASIS_LABELS),
        "convention": (
            "vectors[i] is the eigenvector of values_K[i] (ascending), amplitudes "
            "ordered as 'basis'; the largest-magnitude amplitude is made positive"
        ),
    })


def _cmd_extract(args):
    if args.u is not None and not np.isfinite(args.u):
        raise ValueError(f"--u must be finite, got {args.u}")
    delta = args.delta
    if args.u is not None and args.a is not None:   # even beside --delta, to reject a bad --a
        splitting = ground_splitting(ModelParams(u=args.u, a=args.a, mu_x=1.0, mu_y=1.0))
        delta = splitting if delta is None else delta
    if delta is None:
        raise ValueError("provide --delta, or both --u and --a to compute the splitting")
    if args.mode == "exact" and args.u is None:
        raise ValueError("--mode exact needs --u: the exact inversion uses the doublet splitting U")

    paper = args.mode in ("paper", "both")
    exact = args.mode == "exact" or (args.mode == "both" and args.u is not None and args.u >= 0)
    threshold = args.u is not None and args.mu_y is not None
    return json_text({
        "splitting_K": delta,
        "tunneling_paper_K": tunneling_from_splitting(delta, mode="paper") if paper else None,
        "tunneling_exact_K": (
            tunneling_from_splitting(delta, u=args.u, mode="exact") if exact else None
        ),
        "frequency_GHz": kelvin_to_gigahertz(delta),
        "zeeman_threshold_T": (
            zeeman_threshold(ModelParams(u=args.u, a=0.0, mu_x=1.0, mu_y=args.mu_y))
            if threshold else None
        ),
        "notes": list(EXTRACTION_NOTES),
    })


def _cmd_fit(args):
    # only fit and synth import relaxation, so the spectral calls start without it
    from .relaxation import DegenerateParametersError, fit, load_dataset, model_lifetime
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be >= 2, got {args.grid_points}")
    try:
        data = load_dataset(args.input)
    except ValueError as err:
        raise DomainError("DatasetError", str(err), path=args.input) from err

    try:
        result = fit(data, args.processes)
    except DegenerateParametersError as err:
        raise DomainError(
            "DegenerateParameters", str(err), parameter_pair=list(err.parameter_pair)
        ) from err
    except ValueError as err:
        raise DomainError("FitError", str(err)) from err
    if not result.converged:
        raise DomainError(
            "FitNotConverged",
            f"fit did not converge within {result.iterations} iterations",
            iterations=result.iterations,
            residual_rms=result.residual_rms,
        )

    if args.curve_output is not None:
        temps = data.temperatures()
        grid = np.geomspace(temps.min(), temps.max(), args.grid_points)
        sample = np.sort(np.concatenate([temps, grid]))     # np.unique would import numpy.ma
        sample = sample[np.append(True, sample[1:] != sample[:-1])]
        curve = {"T_K": sample, "tau_s": model_lifetime(result.model, sample)}
        _write_text(args.curve_output, csv_text(curve))
    return result.to_json()


def _cmd_synth(args):
    from .relaxation import ArrheniusProcess, RelaxationModel, synthesize
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not 0 < args.t_min <= args.t_max < np.inf:
        raise ValueError(f"need 0 < --t-min <= --t-max, both finite, "
                         f"got {args.t_min} and {args.t_max}")
    model = RelaxationModel(
        processes=tuple(ArrheniusProcess(tau0=p[0], delta=p[1]) for p in args.process)
    )
    with np.errstate(over="ignore"):    # a last point rounded past float64 is set to --t-max
        temps = np.geomspace(args.t_min, args.t_max, args.points)
    return synthesize(model, temps, noise_sigma=args.noise, seed=args.seed).to_csv()


def _cmd_evolve(args):
    if not 0 < args.t_max < np.inf:
        raise ValueError(f"--t-max must be > 0 and finite (nanoseconds), got {args.t_max}")
    times = _grid(0.0, args.t_max, args.points)
    params = _model_params(args)
    states = evolve(basis_state(args.initial), hamiltonian_stack(params, args.bx, args.by), times)
    moments = moment_expectation(states, params)
    populations = zip((f"p{label}" for label in BASIS_LABELS), (np.abs(states) ** 2).T)
    return csv_text({"t_ns": times, **dict(populations), "mx": moments.mx, "my": moments.my})


# -------------------------------------------------------------------- main

def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:     # as parse_args would; with only -h, the top level owns a leftover
        owner = args._parser if argv[0] == args.command else parser  # iff the command is not first
        owner.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        output = args.handler(args)
        if args.output is not None:
            _write_text(args.output, output)
    except (ValueError, OSError) as err:    # an OSError names its file
        args._parser.error(str(err))
    except DomainError as err:
        sys.stderr.write(err.to_json())
        return EXIT_DOMAIN
    if args.output is None:
        sys.stdout.write(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
