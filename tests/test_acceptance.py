"""Acceptance gate: one test per shipped verification campaign.

Each test runs the corresponding campaign from ``finslerlab.acceptance``
with its pinned tolerance and prints a single PASS/FAIL summary line
(visible under ``pytest -s`` and in the failure report otherwise).
"""

import math
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import finslerlab
from finslerlab import acceptance as acc
from finslerlab import comparison as cmp
from finslerlab import geodesic as gd
from finslerlab import geometry as geo
from finslerlab import jets as jr
from finslerlab import projective as pj
from finslerlab import sampling, zoo


def _check(fn):
    rec = fn()
    mark = "PASS" if rec["passed"] else "FAIL"
    print(f"criterion {rec['criterion']:2d} {mark}  "
          f"worst {rec['worst']:.3e} vs tol {rec['tol']:g}  ({rec['name']})")
    assert rec["passed"], (
        f"criterion {rec['criterion']} ({rec['name']}): "
        f"worst {rec['worst']:.6e} exceeds tol {rec['tol']:g}; "
        f"details: {rec['details']}")
    return rec


def test_criterion_01_flag_curvature_constancy():
    rec = _check(acc.criterion_1)
    assert rec["tol"] == 1e-5


def test_criterion_02_projective_relatedness_and_chords():
    rec = _check(acc.criterion_2)
    assert rec["tol"] == 1e-7


def test_criterion_03_funk_condition_detector():
    rec = _check(acc.criterion_3)
    assert rec["tol"] == 1e-8
    # the detector must also refuse a non-example
    assert rec["details"]["klein_control_min"] > 1e-2


def test_criterion_04_projective_factor_closed_forms():
    rec = _check(acc.criterion_4)
    assert rec["tol"] == 1e-7


def test_criterion_05_curvature_transport():
    rec = _check(acc.criterion_5)
    assert rec["tol"] == 1e-6


def test_criterion_06_comparison_ode_closed_forms():
    rec = _check(acc.criterion_6)
    det = rec["details"]
    assert det["ode_residual"] <= 1e-10
    assert det["numeric_vs_closed"] <= 1e-8
    assert det["arc_roundtrip"] <= 1e-7


def test_criterion_07_projective_line_lengths():
    rec = _check(acc.criterion_7)
    det = rec["details"]
    assert det["window_pi"] <= 1e-9
    assert det["total_pi"] <= 1e-9
    assert det["sphere_chart_lines"] <= 1e-8


def _midpoint_lengths(metric, pairs, nodes):
    """The lengths of the lines x + t y by criterion 7's rule: ``nodes``
    midpoints of theta in (-pi/2, pi/2) at t = tan(theta), weights
    (pi / nodes) sec^2(theta)."""
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes) - math.pi / 2
    t, w = np.tan(theta)[:, None], math.pi / nodes / np.cos(theta) ** 2
    return np.array([w @ metric(x + t * y, np.tile(y, (nodes, 1)))
                     for x, y in pairs])


def test_criterion_7_line_rule_agrees_with_quad_and_with_twice_the_nodes():
    # the rule's convergence evidence: scipy's adaptive quad, called as
    # criterion 7 called it before the rule, and the rule at 80 nodes
    sph = zoo.spherical()
    pairs = sampling.state_pairs(sph, 10)
    lengths = _midpoint_lengths(sph, pairs, acc.LINE_NODES)
    rec = acc.criterion_7()
    assert rec["details"]["line_nodes"] == acc.LINE_NODES == 40
    assert rec["details"]["sphere_chart_lines"] == np.abs(lengths - math.pi).max()
    quads = [quad(lambda t: sph.F(list(x + t * y), list(y)), -np.inf, np.inf,
                  epsabs=1e-11, epsrel=1e-11, limit=400)[0] for x, y in pairs]
    assert np.abs(lengths - quads).max() <= 1e-12
    assert np.abs(lengths - _midpoint_lengths(sph, pairs, 80)).max() <= 1e-12


def test_criterion_08_evolution_coefficients():
    _check(acc.criterion_8)


def test_criterion_09_completeness_taxonomy():
    rec = _check(acc.criterion_9)
    assert rec["tol"] == 1e-7


def test_criterion_10_jet_oracle_and_fd_curvature():
    rec = _check(acc.criterion_10)
    det = rec["details"]
    assert det["derivative_dev"] <= 1e-6
    assert det["curvature_fd_dev"] <= 1e-4


def test_criterion_10_fails_when_the_oracle_refuses_its_checks(monkeypatch):
    from finslerlab import jets
    from finslerlab.errors import FDOracleError

    def refuse(f, x, y, idx):
        raise FDOracleError("Richardson extrapolation diverges")

    monkeypatch.setattr(jets, "fd_oracle", refuse)
    monkeypatch.setattr(acc, "FD_SAMPLES", 2)
    monkeypatch.setattr(acc, "FD_CURVATURE_SAMPLES", 1)
    rec = acc.criterion_10()
    assert rec["worst"] <= 1.0  # no check was left to deviate
    assert not rec["passed"]
    assert set(rec["details"]["fd_skipped"].values()) == {6}


def test_criterion_10_fails_on_a_nan_deviation(monkeypatch):
    from finslerlab import jets

    # max(worst, nan) keeps worst, which would read this as a perfect check
    monkeypatch.setattr(jets, "fd_oracle", lambda f, x, y, idx: float("nan"))
    monkeypatch.setattr(acc, "FD_SAMPLES", 2)
    monkeypatch.setattr(acc, "FD_CURVATURE_SAMPLES", 1)
    rec = acc.criterion_10()
    assert not rec["passed"]
    assert rec["worst"] != rec["worst"]


def _nan(out):
    return out * math.nan


def _nan_at(key):
    return lambda out: {**out, key: out[key] * math.nan}


def _nan_flag_max_of_row_1(rep):
    rep["rows"][1]["flag_max"] = math.nan
    return rep


def _nan_in_flag_column_3(out):
    K, sin_sq = out
    K = np.array(K)
    K[..., 3] = math.nan  # a sample's 3rd or 4th flag value, never its first
    return K, sin_sq


def _chord(metric, x, y, t_span, **tols):
    """A stand-in geodesic run: the chord through x along y."""
    return SimpleNamespace(xs=x + np.linspace(*t_span, 5)[:, None] * y)


# per criterion, the call whose 2nd result turns NaN (funk-minus's in
# criteria 3-5), and stand-ins for the costly calls that stay finite
NAN_CASES = [
    pytest.param(1, geo, "einstein_campaign", _nan_flag_max_of_row_1, {},
                 id="c1-flag-max-of-row-1"),
    pytest.param(1, geo, "_flag_values", _nan_in_flag_column_3, {},
                 id="c1-later-flag-curvature"),
    pytest.param(2, gd, "hausdorff_to_chord", _nan,
                 {"finslerlab.geodesic.integrate_geodesic": _chord},
                 id="c2-hausdorff"),
    pytest.param(3, pj, "funk_condition_residual", _nan, {},
                 id="c3-funk-minus-residual"),
    pytest.param(4, pj, "xi_and_tau", _nan_at("Xi"), {}, id="c4-funk-minus-xi"),
    pytest.param(5, pj, "curvature_transform_check", _nan_at("ricci_defect"),
                 {}, id="c5-funk-minus-ricci-defect"),
    pytest.param(6, cmp, "numeric_vs_closed", _nan,
                 {"finslerlab.comparison.numeric_vs_closed": lambda case: 0.0},
                 id="c6-numeric-vs-closed"),
    pytest.param(7, cmp, "candidate_length", _nan, {},
                 id="c7-candidate-length"),
    pytest.param(8, zoo, "verify_evolution", _nan_at("max_rel_dev"), {},
                 id="c8-ray-law"),
    pytest.param(9, cmp, "f_squared", _nan, {}, id="c9-f-squared"),
]


@pytest.mark.parametrize("k, owner, name, spoil, stubs", NAN_CASES)
def test_criteria_1_to_9_fail_on_a_nan_check(k, owner, name, spoil, stubs,
                                             monkeypatch, spoil_call):
    # max(worst, nan) keeps worst; errors.worst makes the criterion NaN
    for target, stub in stubs.items():
        monkeypatch.setattr(target, stub)
    spoil_call(owner, name, 2, spoil)
    rec = acc.ALL_CRITERIA[k - 1]()
    assert not rec["passed"]
    assert math.isnan(rec["worst"])


def test_run_all_aggregates_every_criterion():
    assert len(acc.ALL_CRITERIA) == 10
    names = [fn.__name__ for fn in acc.ALL_CRITERIA]
    assert names == [f"criterion_{k}" for k in range(1, 11)]


def test_the_former_backend_and_thread_variables_change_nothing():
    # the package has one numpy kernel and runs serially; it reads no
    # environment variable, so neither setting is an error or a switch
    src = str(Path(finslerlab.__file__).resolve().parents[1])
    env = dict(os.environ, FINSLER_LAB_BACKEND="numba",
               FINSLER_LAB_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("from finslerlab import acceptance; "
            "print(repr(acceptance.criterion_1()['worst']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == acc.criterion_1()["worst"]


def test_criterion_10_checks_every_index_of_degree_one_to_three():
    # criterion 10 reads its multi-indices over the 2n chart slots from the
    # jet context: degree by degree, each degree in the order of
    # combinations_with_replacement
    counts = []
    for n in (1, 2, 3, 4):
        idxs = jr.get_context(2 * n, 3).monomials[1:]
        graded = []
        for order in (1, 2, 3):
            for combo in combinations_with_replacement(range(2 * n), order):
                graded.append(tuple(combo.count(s) for s in range(2 * n)))
        assert idxs == graded
        counts.append(len(idxs))
    assert counts == [9, 34, 83, 164]
    idxs = jr.get_context(4, 3).monomials[1:]
    assert (idxs[0], idxs[-1]) == ((1, 0, 0, 0), (0, 0, 0, 3))
