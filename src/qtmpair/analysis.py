"""Spectrum sweeps and scalar extraction of tunneling parameters.

Two sweeps are provided: the zero-field eigenvalue spectrum as a function
of the splitting-to-tunneling ratio U/A (in units of A), and the spectrum
as a function of a magnetic field along y (in units of the threshold field
B_Zt at which the Zeeman energy of the antiferromagnetic doublet
compensates U).  The scalar helpers convert between the ground-state gap,
the tunneling element and the oscillation frequency.
"""

import json
from dataclasses import dataclass

import numpy as np

from .constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from .model import (
    FieldVector,
    ModelParams,
    build_hamiltonian,
    eigensystem,
    moment_expectation,
    zero_field_eigensystem,
)
from .serialize import fmt


@dataclass(frozen=True)
class SweepTable:
    """Plot-ready eigenvalue table along one scan axis.

    ``axis_values`` is strictly increasing and dimensionless (U/A for the
    ratio sweep, By/B_Zt for the field sweep).  ``eigenvalues`` has one
    ascending row of four values per axis point (units of A for the ratio
    sweep, kelvin for the field sweep).  ``ground_moments`` holds (mx, my)
    of the ground state in Bohr magnetons, field sweep only.
    """

    axis_name: str
    axis_values: np.ndarray
    eigenvalues: np.ndarray
    ground_moments: np.ndarray | None = None

    def columns(self):
        """Column names, matching the CSV header."""
        names = ["axis", "lambda1", "lambda2", "lambda3", "lambda4"]
        if self.ground_moments is not None:
            names += ["mx", "my"]
        return names

    def to_csv(self):
        lines = [",".join(self.columns())]
        for i, x in enumerate(self.axis_values):
            cells = [fmt(x)] + [fmt(v) for v in self.eigenvalues[i]]
            if self.ground_moments is not None:
                cells += [fmt(v) for v in self.ground_moments[i]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self):
        data = {"axis_name": self.axis_name, "axis": self.axis_values.tolist()}
        for j, name in enumerate(["lambda1", "lambda2", "lambda3", "lambda4"]):
            data[name] = self.eigenvalues[:, j].tolist()
        if self.ground_moments is not None:
            data["mx"] = self.ground_moments[:, 0].tolist()
            data["my"] = self.ground_moments[:, 1].tolist()
        return json.dumps(data, indent=2) + "\n"


def sweep_ratio(ratio_min, ratio_max, n_points):
    """Zero-field spectrum versus U/A, reported in units of A.

    Evaluates the closed-form eigensystem at ``n_points`` uniformly spaced
    ratios with A fixed to 1.
    """
    if not (np.isfinite(ratio_min) and np.isfinite(ratio_max)) or ratio_min >= ratio_max:
        raise ValueError(f"need finite ratio_min < ratio_max, got {ratio_min} and {ratio_max}")
    _check_points(n_points)
    ratios = np.linspace(ratio_min, ratio_max, n_points)
    rows = np.empty((n_points, 4))
    for i, ratio in enumerate(ratios):
        rows[i] = zero_field_eigensystem(
            ModelParams(u=float(ratio), a=1.0, mu_x=1.0, mu_y=1.0)
        ).values
    return SweepTable(axis_name="U/A", axis_values=ratios, eigenvalues=rows)


def sweep_field(params, max_field_ratio, n_points):
    """Spectrum and ground-state moment versus a field along y.

    Sweeps By from 0 to ``max_field_ratio`` times the threshold field
    B_Zt = U / (2 mu_y); the axis is dimensionless By/B_Zt, eigenvalues
    are in kelvin.  Choose ``max_field_ratio`` > 1 to cover the level
    crossing region around B_Zt.
    """
    if not 0.0 < max_field_ratio < np.inf:
        raise ValueError(f"max_field_ratio must be positive and finite, got {max_field_ratio}")
    _check_points(n_points)
    b_zt = zeeman_threshold(params)
    if b_zt == 0.0:
        raise ValueError("field scale B_Zt vanishes for u = 0; field sweep is undefined")
    fractions = np.linspace(0.0, max_field_ratio, n_points)
    rows = np.empty((n_points, 4))
    moments = np.empty((n_points, 2))
    for i, frac in enumerate(fractions):
        es = eigensystem(build_hamiltonian(params, FieldVector(by=frac * b_zt)))
        rows[i] = es.values
        m = moment_expectation(es.vectors[:, 0], params)
        moments[i] = (m.mx, m.my)
    return SweepTable(
        axis_name="By/B_Zt", axis_values=fractions, eigenvalues=rows, ground_moments=moments
    )


def _check_points(n_points):
    if int(n_points) != n_points or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points}")


def zeeman_threshold(params):
    """Threshold field |U| / (2 mu_y) in tesla.

    At this field along y the Zeeman energy of the antiferromagnetic
    doublet compensates the splitting U and the diabatic levels cross.
    """
    return abs(params.u) / (2.0 * params.mu_y * MU_B_OVER_K_B)


def ground_splitting(params):
    """Gap between the two lowest zero-field levels, in kelvin.

    Equals (sqrt(U^2 + 16 A^2) - |U|) / 2; the tunneling element lifts
    the ground doublet degeneracy by this amount.  Evaluated in the
    rationalized form 8 A^2 / (sqrt(U^2 + 16 A^2) + |U|), which avoids
    cancellation deep in the protected regime U >> A.
    """
    if params.a == 0.0:
        return 0.0
    return float(8.0 * params.a**2 / (np.hypot(params.u, 4.0 * params.a) + abs(params.u)))


def tunneling_from_splitting(delta, u=None, mode="exact"):
    """Invert a measured ground-state gap ``delta`` to the tunneling element.

    mode='exact' solves the closed-form gap for A, giving
    sqrt(delta * (delta + U)) / 2 and requiring the splitting ``u`` >= 0.
    mode='paper' applies the published quarter rule delta / 4, which
    ignores ``u``; it is kept because published tunneling values for
    these systems follow it, but it diverges from the exact inversion
    by a factor of order U/A in the protected regime.
    """
    if not np.isfinite(delta) or delta < 0:
        raise ValueError(f"splitting delta must be a finite value >= 0, got {delta}")
    if mode == "paper":
        return delta / 4.0
    if mode == "exact":
        if u is None or not np.isfinite(u) or u < 0:
            raise ValueError(f"exact inversion requires a finite u >= 0, got {u}")
        return float(np.sqrt(delta * (delta + u)) / 2.0)
    raise ValueError(f"mode must be 'paper' or 'exact', got {mode!r}")


def kelvin_to_gigahertz(delta):
    """Oscillation frequency of an energy splitting: delta * k_B/h in GHz."""
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return delta * K_B_OVER_H_GHZ


# Annotations attached to extraction reports.  The published values for the
# two reference systems are not mutually consistent with the exact rules at
# better than ~15%, so reports carry the caveats instead of resolving them.
EXTRACTION_NOTES = (
    "tunneling_paper_K uses the quarter rule delta/4; tunneling_exact_K inverts "
    "the closed-form gap. The two conventions diverge by a factor of order U/A "
    "in the protected regime U >> A.",
    "frequency_GHz is the exact conversion delta * 20.836619 GHz/K; published "
    "frequencies for the reference systems (6.3 and 20.8 GHz for gaps of 0.34 "
    "and 0.97 K) deviate from it by up to ~15%.",
)
