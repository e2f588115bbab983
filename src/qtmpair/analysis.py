"""Spectrum sweeps and scalar extraction of tunneling parameters.

Two sweeps are provided: the zero-field eigenvalue spectrum as a function
of the splitting-to-tunneling ratio U/A (in units of A), and the spectrum
as a function of a magnetic field along y (in units of the threshold field
B_Zt at which the Zeeman energy of the antiferromagnetic doublet
compensates U).  The scalar helpers convert between the ground-state gap,
the tunneling element and the oscillation frequency.
"""

import math

import numpy as np

from .constants import K_B_OVER_H_GHZ, MU_B_OVER_K_B
from .model import eigensystem, hamiltonian_stack, moment_expectation
from .model import zero_field_gap, zero_field_values
from .record import Record
from .serialize import csv_text, json_text


class SweepTable(Record):
    """Plot-ready eigenvalue table along one scan axis.

    ``axis_values`` is strictly increasing and dimensionless (U/A for the
    ratio sweep, By/B_Zt for the field sweep).  ``eigenvalues`` has one
    ascending row of four values per axis point (units of A for the ratio
    sweep, kelvin for the field sweep).  ``ground_moments`` holds (mx, my)
    of the ground state in Bohr magnetons, field sweep only.
    """

    __slots__ = ("axis_name", "axis_values", "eigenvalues", "ground_moments")

    def __init__(self, axis_name, axis_values, eigenvalues, ground_moments=None):
        self._init(axis_name, axis_values, eigenvalues, ground_moments)

    def _table(self):
        """Ordered mapping of column name to column, as written to CSV and JSON."""
        table = {"axis": self.axis_values}
        table.update(zip(("lambda1", "lambda2", "lambda3", "lambda4"), self.eigenvalues.T))
        if self.ground_moments is not None:
            table.update(zip(("mx", "my"), self.ground_moments.T))
        return table

    def columns(self):
        """Column names, matching the CSV header."""
        return list(self._table())

    def to_csv(self):
        return csv_text(self._table())

    def to_json(self):
        return json_text({"axis_name": self.axis_name, **self._table()})


def sweep_ratio(ratio_min, ratio_max, n_points):
    """Zero-field spectrum versus U/A, reported in units of A.

    Evaluates the closed-form eigenvalues at ``n_points`` uniformly spaced
    ratios with A fixed to 1.
    """
    if not (np.isfinite(ratio_min) and np.isfinite(ratio_max)) or ratio_min >= ratio_max:
        raise ValueError(f"need finite ratio_min < ratio_max, got {ratio_min} and {ratio_max}")
    if not math.isfinite(float(ratio_max) - float(ratio_min)):
        raise ValueError(f"ratio range {ratio_min} to {ratio_max} exceeds float64")
    ratios = _grid(ratio_min, ratio_max, n_points)
    return SweepTable(
        axis_name="U/A", axis_values=ratios, eigenvalues=zero_field_values(ratios, 1.0)
    )


def sweep_field(params, max_field_ratio, n_points):
    """Spectrum and ground-state moment versus a field along y.

    Sweeps By from 0 to ``max_field_ratio`` times the threshold field
    B_Zt = U / (2 mu_y); the axis is dimensionless By/B_Zt, eigenvalues
    are in kelvin.  Choose ``max_field_ratio`` > 1 to cover the level
    crossing region around B_Zt.  All points are diagonalized in one
    stacked call.
    """
    if not 0.0 < max_field_ratio < np.inf:
        raise ValueError(f"max_field_ratio must be positive and finite, got {max_field_ratio}")
    fractions = _grid(0.0, max_field_ratio, n_points)
    b_zt = zeeman_threshold(params)
    if b_zt == 0.0:
        cause = "for u = 0" if params.u == 0 else f"at u = {params.u}, mu_y = {params.mu_y}"
        raise ValueError(f"field scale B_Zt vanishes {cause}; field sweep is undefined")
    if not math.isfinite(float(max_field_ratio) * b_zt):    # then every fraction * b_zt is
        raise ValueError(f"sweep end {max_field_ratio} * B_Zt = {b_zt} T exceeds float64")
    es = eigensystem(hamiltonian_stack(params, by=fractions * b_zt))
    ground = moment_expectation(es.vectors[..., 0], params)
    return SweepTable(
        axis_name="By/B_Zt",
        axis_values=fractions,
        eigenvalues=es.values,
        ground_moments=np.column_stack([ground.mx, ground.my]),
    )


def _grid(start, stop, n_points):
    """``n_points`` uniform points from ``start`` to ``stop``, which must be finite."""
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 2):
        raise ValueError(f"n_points must be an integer >= 2, got {n_points}")
    with np.errstate(over="ignore"):    # (n - 1) * step may round past float64; the end is stop
        grid = np.linspace(start, stop, n_points)
    if not (grid[1:] > grid[:-1]).all():    # compared, not subtracted: a step may overflow
        raise ValueError(f"{n_points} points from {start} to {stop} repeat a float64 value")
    return grid


def zeeman_threshold(params):
    """Threshold field |U| / (2 mu_y) in tesla.

    At this field along y the Zeeman energy of the antiferromagnetic
    doublet compensates the splitting U and the diabatic levels cross.
    """
    threshold = abs(params.u) / (2.0 * params.mu_y * MU_B_OVER_K_B)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold field exceeds float64 at u = {params.u}, mu_y = {params.mu_y}")
    return threshold


def ground_splitting(params):
    """Gap between the two lowest zero-field levels in kelvin, :func:`model.zero_field_gap`.

    The tunneling element lifts the ground doublet by it.  Raises ``ValueError`` beyond float64.
    """
    delta = float(zero_field_gap(params.u, params.a))
    if not math.isfinite(delta):
        raise ValueError(f"ground splitting exceeds float64 at u = {params.u}, a = {params.a}")
    return delta


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
        delta, u = float(delta), float(u)    # Python floats overflow to inf without a warning
        product = delta * (delta + u)
        if np.finfo(float).tiny <= product < math.inf:    # else it overflowed or lost digits
            return math.sqrt(product) / 2.0
        return math.sqrt(delta) * math.sqrt(delta / 4.0 + u / 4.0)
    raise ValueError(f"mode must be 'paper' or 'exact', got {mode!r}")


def kelvin_to_gigahertz(delta):
    """Oscillation frequency of an energy splitting: delta * k_B/h in GHz."""
    frequency = float(delta) * K_B_OVER_H_GHZ
    if not math.isfinite(frequency):
        raise ValueError(f"delta must be finite with a finite frequency, got {delta}")
    return frequency


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
