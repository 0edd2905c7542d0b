"""One rule for a worst: ``errors.worst`` and the reports that reduce by it.

Each report is checked with a NaN at sample or leg 1, where Python's
``max`` would keep the value before it and read the check as passed.
"""

import math

import numpy as np
import pytest

from finslerlab import cli, comparison as cmp, errors, geometry as geo
from finslerlab import jets as jr, projective as pj, zoo

NAN = float("nan")


@pytest.mark.parametrize("values", [[NAN, 0.5, 2.0], [0.5, NAN, 2.0],
                                    [0.5, 2.0, NAN]])
def test_a_nan_anywhere_is_the_worst(values):
    assert math.isnan(errors.worst(values))
    assert math.isnan(errors.worst(iter(values)))


def test_the_first_nan_is_returned():
    first, second = np.float64(NAN), NAN
    assert errors.worst([1.0, first, second]) is first


def test_without_a_nan_worst_is_max_s_own_pick():
    a, b = 1.0, np.float64(1.0)  # a tie goes to the first
    assert errors.worst([a, b]) is a and errors.worst([b, a]) is b
    values = [0.5, np.float64(2.0), 1, -math.inf]
    assert errors.worst(values) is max(values)
    assert type(errors.worst(values)) is np.float64
    assert errors.worst([3, 2]) == 3 and type(errors.worst([3, 2])) is int
    assert errors.worst([-math.inf, math.inf]) == math.inf


def _nan_at_1(out):
    out = np.array(out, dtype=float)
    out[1] = NAN
    return out


def _nan_normalized_at_1(rep):
    return {**rep, "normalized": _nan_at_1(rep["normalized"])}


def test_projective_campaign_reports_a_nan_sample(spoil_call):
    spoil_call(pj, "rapcsak_residual", 1, _nan_normalized_at_1)
    rep = pj.projective_campaign(zoo.euclidean(), zoo.funk_ball(1), count=5)
    assert math.isnan(rep["max_normalized_residual"])


def test_einstein_campaign_reports_a_nan_sample(spoil_call):
    spoil_call(geo, "_residual", 1, _nan_at_1)
    spoil_call(geo, "_spread", 2, lambda sp: {**sp, "max": NAN})
    rep = geo.einstein_campaign(zoo.klein(), count=3, flags=2)
    assert math.isnan(rep["max_einstein_residual"])
    assert math.isnan(rep["max_flag_spread"])


def test_the_projective_command_refuses_a_nan_sample(spoil_call, capsys):
    spoil_call(pj, "rapcsak_residual", 1, _nan_normalized_at_1)
    code = cli.main(["projective", "--base", "euclidean", "--cand",
                     "funk-plus", "--samples", "5"])
    assert code == cli.EXIT_CHECK
    assert ": no" in capsys.readouterr().out


def test_the_curvature_command_refuses_a_nan_residual(spoil_call, capsys):
    spoil_call(geo, "_residual", 1, _nan_at_1)
    code = cli.main(["curvature", "--metric", "klein", "--samples", "3",
                     "--tol", "1e-6"])
    assert code == cli.EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


def test_ode_residual_reports_a_nan_time(spoil_call):
    spoil_call(jr, "extract_derivative", 1, _nan_at_1)
    case = cmp.make_case(-1, -1, 0.7, -0.4)
    assert math.isnan(cmp.ode_residual(case, np.linspace(-0.1, 0.1, 5)))


def test_numeric_vs_closed_reports_a_nan_leg(spoil_call):
    # f_squared's 2nd call gives the exact values of leg 1
    spoil_call(cmp, "f_squared", 2, lambda f2: f2 * NAN)
    assert math.isnan(cmp.numeric_vs_closed(cmp.make_case(0, 0, 1.0, 0.5)))


def test_verify_evolution_reports_a_nan_sample(spoil_call):
    spoil_call(cmp, "f_squared", 2, lambda f2: f2 * NAN)
    rep = zoo.verify_evolution("klein", np.array([0.1, 0.2]),
                               np.array([0.6, 0.8]))
    assert math.isnan(rep["max_rel_dev"])
    assert math.isnan(rep["rows"][1][3])
