"""Acceptance gate: one test per shipped verification campaign.

Each test runs the corresponding campaign from ``finslerlab.acceptance``
with its pinned tolerance and prints a single PASS/FAIL summary line
(visible under ``pytest -s`` and in the failure report otherwise).
"""

import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import finslerlab
from finslerlab import acceptance as acc
from finslerlab import jets as jr


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
    rec = acc.criterion_10(samples=2, fd_curvature_samples=1)
    assert rec["worst"] <= 1.0  # no check was left to deviate
    assert not rec["passed"]
    assert set(rec["details"]["fd_skipped"].values()) == {6}


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
