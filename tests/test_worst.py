"""One rule for a worst: ``errors.worst``, ``errors.least`` and the reports
and audits that reduce by them.

Each report is checked with a NaN at sample or leg 1, or in a later flag
column, where Python's ``max`` or ``min`` would keep the value before it
and read the check as passed; each audit with a NaN that a verdict
``value > tol`` would pass.
"""

import math

import numpy as np
import pytest

from finslerlab import cli, comparison as cmp, errors, geometry as geo
from finslerlab import jets as jr, projective as pj, zoo
from finslerlab.errors import NotProjectivelyRelatedError, SingularMetricError

NAN = float("nan")


NAN_LISTS = ([NAN, 0.5, 2.0], [0.5, NAN, 2.0], [0.5, 2.0, NAN])


@pytest.mark.parametrize("values, extreme", [
    pytest.param(values, extreme, id=f"{tag}values{i}")
    for tag, extreme in (("", errors.worst), ("least-", errors.least))
    for i, values in enumerate(NAN_LISTS)])
def test_a_nan_anywhere_is_the_worst(values, extreme):
    assert math.isnan(extreme(values))
    assert math.isnan(extreme(iter(values)))


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
    # one batch call predicts all 25 samples: spoil sample 1's value
    spoil_call(cmp, "f_squared", 1,
               lambda f2: np.where(np.arange(f2.size) == 1, NAN, f2))
    rep = zoo.verify_evolution("klein", np.array([0.1, 0.2]),
                               np.array([0.6, 0.8]))
    assert math.isnan(rep["max_rel_dev"])
    assert math.isnan(rep["rows"][1][3])


# ---------------------------------------------------------------------------
# the geometry and projective audits


X, Y = np.array([0.31, -0.22]), np.array([0.62, 0.81])


def _nan_in_flag_column_3(out):
    K, sin_sq = out
    K = np.array(K)
    K[..., 3] = NAN  # a sample's 3rd or 4th flag value, never its first
    return K, sin_sq


def test_a_later_nan_flag_curvature_spoils_the_flag_range(spoil_call):
    spoil_call(geo, "_flag_values", 1, _nan_in_flag_column_3)
    sp = geo.flag_spread(zoo.klein(), X, Y, flags=6)
    assert math.isnan(sp["values"][3])
    assert all(math.isnan(sp[key]) for key in ("min", "max", "spread"))


def test_einstein_campaign_reports_a_later_nan_flag_curvature(spoil_call):
    spoil_call(geo, "_flag_values", 1, _nan_in_flag_column_3)
    rep = geo.einstein_campaign(zoo.klein(), 5, flags=6)
    for key in ("flag_min", "flag_max", "max_flag_spread"):
        assert math.isnan(rep[key])


def _nan_hessian(tensors):
    return (*tensors[:2], tensors[2] * NAN)


def test_check_minkowski_fails_a_nan_hessian(spoil_call):
    spoil_call(jr, "derivative_tensors", 2, _nan_hessian)
    rep = geo.check_minkowski(zoo.klein(), 5)
    assert not rep["passed"]
    assert math.isnan(rep["worst_cond"]) and math.isnan(rep["min_eig"])
    (failure,) = rep["failures"]
    assert math.isnan(failure["min_eig"]) and math.isnan(failure["cond"])


def test_a_nan_fundamental_tensor_is_singular(spoil_call):
    spoil_call(jr, "derivative_tensors", 1, _nan_hessian)
    with pytest.raises(SingularMetricError, match="not strongly convex"):
        geo.fundamental_tensor(zoo.klein(), X, Y)


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda D2: D2 + math.inf, id="inf"),
    pytest.param(lambda D2: np.where(np.eye(4, dtype=bool) & (np.arange(4) == 3),
                                     math.inf, D2), id="inf-in-g"),
    pytest.param(lambda D2: D2 * 1e-310, id="subnormal"),
    pytest.param(lambda D2: D2 * 1e-320, id="subnormal-coarse")])
def test_an_inf_or_subnormal_fundamental_tensor_is_singular(spoil, spoil_call):
    # LAPACK reads an inf g as NaN eigenvalues; a subnormal one passed
    # a least eigenvalue > 0, and its g^-1 overflowed into a RuntimeWarning
    spoil_call(jr, "derivative_tensors", 1,
               lambda tensors: (*tensors[:2], spoil(tensors[2])))
    with pytest.raises(SingularMetricError, match="not strongly convex"):
        geo.fundamental_tensor(zoo.klein(), X, Y)


def test_a_nan_candidate_spray_is_not_projectively_related(spoil_call):
    spoil_call(pj, "_assemble", 2, lambda data: {**data, "G": data["G"] * NAN})
    with pytest.raises(NotProjectivelyRelatedError, match="nan"):
        pj.projective_factor(zoo.euclidean(), zoo.funk_ball(1), X, Y)
