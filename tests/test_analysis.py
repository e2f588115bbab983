import json
import math
import re

import numpy as np
import pytest

from qtmpair.analysis import (
    ground_splitting,
    kelvin_to_gigahertz,
    sweep_field,
    sweep_ratio,
    tunneling_from_splitting,
    zeeman_threshold,
)
from qtmpair.constants import MU_B_OVER_K_B
from qtmpair.model import ModelParams

P10 = ModelParams(u=10.0, a=1.0, mu_x=10.0, mu_y=10.0)


# ----------------------------------------------------------------- sweeps

def test_ratio_sweep_row_at_ten():
    table = sweep_ratio(0.0, 20.0, 201)
    i = np.argmin(np.abs(table.axis_values - 10.0))
    assert table.axis_values[i] == 10.0
    s = math.sqrt(100.0 + 16.0)
    np.testing.assert_allclose(
        table.eigenvalues[i], [(10.0 - s) / 2.0, 0.0, 10.0, (10.0 + s) / 2.0], atol=1e-12
    )


def test_ratio_sweep_row_at_zero():
    table = sweep_ratio(0.0, 10.0, 11)
    np.testing.assert_allclose(table.eigenvalues[0], [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_ratio_sweep_endpoint_semantics():
    table = sweep_ratio(0.0, 10.0, 2)
    np.testing.assert_array_equal(table.axis_values, [0.0, 10.0])
    assert table.eigenvalues.shape == (2, 4)
    assert table.ground_moments is None


def test_ratio_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        sweep_ratio(5.0, 5.0, 10)
    with pytest.raises(ValueError):
        sweep_ratio(0.0, 10.0, 1)
    with pytest.raises(ValueError, match="^ratio range -1e[+]308 to 1e[+]308 exceeds float64$"):
        sweep_ratio(-1e308, 1e308, 3)
    for n_points in (math.inf, math.nan, 3.0):
        with pytest.raises(ValueError, match=f"^n_points must be an integer >= 2, got {n_points}$"):
            sweep_ratio(0.0, 1.0, n_points)


def test_field_sweep_zero_field_row_matches_closed_form():
    table = sweep_field(P10, 2.0, 41)
    s = math.sqrt(100.0 + 16.0)
    np.testing.assert_allclose(
        table.eigenvalues[0], [(10.0 - s) / 2.0, 0.0, 10.0, (10.0 + s) / 2.0], atol=1e-10
    )


def test_field_sweep_lambda2_column_is_zero():
    table = sweep_field(P10, 2.0, 81)
    assert np.max(np.abs(table.eigenvalues[:, 1])) < 1e-10


def test_field_sweep_ground_moment_saturates():
    table = sweep_field(P10, 5.0, 51)
    assert table.ground_moments is not None
    assert table.ground_moments[-1, 1] >= 0.99 * 2.0 * P10.mu_y


def test_field_sweep_rows_are_continuous():
    # adjacent sorted eigenvalues may move at most ~ the Zeeman step
    n = 101
    table = sweep_field(P10, 2.0, n)
    b_zt = zeeman_threshold(P10)
    step_kelvin = 2.0 * P10.mu_y * MU_B_OVER_K_B * (2.0 * b_zt / (n - 1))
    jumps = np.abs(np.diff(table.eigenvalues, axis=0))
    assert jumps.max() <= 2.0 * step_kelvin


def test_field_sweep_rejects_zero_u():
    with pytest.raises(ValueError):
        sweep_field(ModelParams(u=0.0, a=1.0, mu_x=10.0, mu_y=10.0), 2.0, 11)


def test_sweeps_reach_the_float64_edge_without_a_warning():
    # (n - 1) * step rounded past float64 and warned, although linspace sets the end itself
    assert sweep_ratio(-1.7976931348623157e308, 0.0, 7).axis_values[-1] == 0.0
    edge = sweep_field(ModelParams(u=1e-300, a=0.0, mu_x=1.0, mu_y=1.0), 1.7976931348623157e308, 3)
    assert edge.axis_values[-1] == 1.7976931348623157e308
    # an end field beyond float64 warned and was then named as by=inf T
    message = "sweep end 10000000000.0 * B_Zt = 7.443644169989013e+299 T exceeds float64"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_field(ModelParams(u=1.0, a=1.0, mu_x=1.0, mu_y=1e-300), 1e10, 3)


def test_sweep_serialization_round_trip():
    table = sweep_field(P10, 2.0, 5)
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "axis,lambda1,lambda2,lambda3,lambda4,mx,my"
    assert table.columns() == lines[0].split(",")
    assert len(lines) == 6
    parsed = [float(x) for x in lines[1].split(",")]
    assert parsed[0] == 0.0

    data = json.loads(table.to_json())
    assert data["axis_name"] == "By/B_Zt"
    np.testing.assert_allclose(data["lambda1"], table.eigenvalues[:, 0])

    ratio_table = sweep_ratio(0.0, 10.0, 3)
    assert ratio_table.to_csv().split("\n")[0] == "axis,lambda1,lambda2,lambda3,lambda4"
    assert ratio_table.columns() == ["axis", "lambda1", "lambda2", "lambda3", "lambda4"]


# ---------------------------------------------------------------- scalars

def test_threshold_field_formula():
    assert zeeman_threshold(P10) == 10.0 / (2.0 * 10.0 * MU_B_OVER_K_B)
    # published regression scale: ~0.744 T for this parameter set
    assert abs(zeeman_threshold(P10) - 0.74436) < 1e-5


def test_threshold_field_zero_u():
    assert zeeman_threshold(ModelParams(u=0.0, a=1.0, mu_x=10.0, mu_y=10.0)) == 0.0


def test_threshold_field_scaling():
    rng = np.random.default_rng(9)
    for _ in range(25):
        u = rng.uniform(0.5, 40.0)
        mu_y = rng.uniform(0.5, 20.0)
        scale = rng.uniform(1.5, 4.0)
        base = zeeman_threshold(ModelParams(u=u, a=1.0, mu_x=1.0, mu_y=mu_y))
        np.testing.assert_allclose(
            zeeman_threshold(ModelParams(u=scale * u, a=1.0, mu_x=1.0, mu_y=mu_y)),
            scale * base,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            zeeman_threshold(ModelParams(u=u, a=1.0, mu_x=1.0, mu_y=scale * mu_y)),
            base / scale,
            rtol=1e-12,
        )


def test_ground_splitting_values():
    s = math.sqrt(100.0 + 16.0)
    np.testing.assert_allclose(ground_splitting(P10), (s - 10.0) / 2.0, rtol=1e-14)
    assert ground_splitting(ModelParams(u=10.0, a=0.0, mu_x=1.0, mu_y=1.0)) == 0.0
    np.testing.assert_allclose(
        ground_splitting(ModelParams(u=0.0, a=1.0, mu_x=1.0, mu_y=1.0)), 2.0, rtol=1e-14
    )


def test_scalars_stay_finite_or_raise_near_the_float64_limit():
    # (sqrt(U**2 + 16 A**2) - |U|) / 2, where 8 A**2 or the sum |U| + |U| overflows
    for u, a, gap in (
        (1e200, 1e200, 1e200 * (17**0.5 - 1.0) / 2.0),
        (0.0, 1e200, 2e200),
        (-3e307, 2e160, 16e13 / 3.0),       # 4 A**2 / |U|, as A << |U|
        (1e308, 1.0, 4e-308),
        (1.0, 5e307, 1e308),
    ):
        np.testing.assert_allclose(
            ground_splitting(ModelParams(u=u, a=a, mu_x=1.0, mu_y=1.0)), gap, rtol=1e-15
        )
    with pytest.raises(ValueError, match="^ground splitting exceeds float64 at u = 1.0, a = 1e"):
        ground_splitting(ModelParams(u=1.0, a=1e308, mu_x=1.0, mu_y=1.0))
    np.testing.assert_allclose(tunneling_from_splitting(1e200, u=1.0), 5e199, rtol=1e-15)
    np.testing.assert_allclose(tunneling_from_splitting(1e308, u=1e308), 1e308 / 2**0.5,
                               rtol=1e-15)
    with pytest.raises(ValueError, match="got 1e[+]308$"):
        kelvin_to_gigahertz(1e308)
    with pytest.raises(ValueError, match="^threshold field exceeds float64 at u = 1e[+]308"):
        zeeman_threshold(ModelParams(u=1e308, a=1.0, mu_x=1.0, mu_y=1e-300))


def test_quarter_rule_extraction():
    assert tunneling_from_splitting(0.34, mode="paper") == 0.085
    assert tunneling_from_splitting(0.97, mode="paper") == 0.2425
    # published rounded value sits at the 3% boundary
    assert abs(tunneling_from_splitting(0.97, mode="paper") - 0.250) <= 0.03 * 0.250 + 1e-12


def test_exact_extraction_round_trip():
    delta = ground_splitting(P10)
    np.testing.assert_allclose(
        tunneling_from_splitting(delta, u=10.0, mode="exact"), 1.0, rtol=1e-12
    )
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = rng.uniform(0.0, 1000.0)
        a = rng.uniform(1e-3, 10.0)
        params = ModelParams(u=u, a=a, mu_x=1.0, mu_y=1.0)
        recovered = tunneling_from_splitting(ground_splitting(params), u=u, mode="exact")
        assert abs(recovered - a) <= 1e-10 * a


def test_extraction_conventions_diverge_in_protected_regime():
    # for U >> A the two conventions disagree by a factor ~ U/A
    for ratio in (100.0, 400.0):
        params = ModelParams(u=ratio, a=1.0, mu_x=1.0, mu_y=1.0)
        delta = ground_splitting(params)
        exact = tunneling_from_splitting(delta, u=ratio, mode="exact")
        quarter = tunneling_from_splitting(delta, mode="paper")
        np.testing.assert_allclose(exact / quarter, ratio, rtol=0.01)


def test_extraction_rejects_bad_input():
    with pytest.raises(ValueError):
        tunneling_from_splitting(-0.1, mode="paper")
    with pytest.raises(ValueError):
        tunneling_from_splitting(0.3, mode="exact")
    with pytest.raises(ValueError):
        tunneling_from_splitting(0.3, u=-1.0, mode="exact")
    with pytest.raises(ValueError):
        tunneling_from_splitting(0.3, u=1.0, mode="fast")


def test_frequency_conversion():
    assert kelvin_to_gigahertz(1.0) == 20.836619
    assert kelvin_to_gigahertz(0.0) == 0.0
    np.testing.assert_allclose(kelvin_to_gigahertz(0.97), 20.21152043, rtol=1e-9)
    with pytest.raises(ValueError):
        kelvin_to_gigahertz(float("nan"))
