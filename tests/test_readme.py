"""The README's quick tour runs as written and states what it computes."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from finslerlab import METRIC_NAMES, cli, geometry as geo

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    """The python blocks of the README's quick tour, in order."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, re.S)


def _stated(block, pattern):
    """The number a tour block states after ``pattern``."""
    return float(re.search(pattern + r"\s*([-+0-9.e]+)", block).group(1))


def test_the_quick_tour_runs_and_states_its_values(capsys):
    # one namespace, block after block, as a reader runs the tour
    catalog, randers, geodesic, projective, comparison, ray = _tour()
    ns = {}

    exec(catalog, ns)
    assert capsys.readouterr().out == f"{METRIC_NAMES}\n"
    listed = re.search(r"print\(METRIC_NAMES\)\n((?:# .*\n)+)", catalog)
    assert tuple(re.findall(r"[-\w]+", listed.group(1))) == METRIC_NAMES
    stated = _stated(catalog, r"# F\(x, y\) =")
    assert stated == 1.0313641022244961
    assert ns["m"]((0.1, 0.2), (1.0, 0.0)) == stated

    exec(randers, ns)
    m, x, y = ns["m"], ns["x"], ns["y"]
    # g of |y| + b.y: (F / |y|) (I - u u^T) + (u + b)(u + b)^T, u = y / |y|
    b, u = np.array([0.3, 0.0]), y / np.linalg.norm(y)
    want = (m(x, y) / np.linalg.norm(y) * (np.eye(2) - np.outer(u, u))
            + np.outer(u + b, u + b))
    np.testing.assert_allclose(geo.fundamental_tensor(m, x, y), want,
                               rtol=1e-14)
    assert geo.spray_coefficients(m, x, y).tolist() == [0.0, 0.0]
    assert geo.flag_spread(m, x, y, flags=6)["values"] == [0.0] * 6
    assert geo.check_minkowski(m)["passed"]

    exec(geodesic, ns)
    run = ns["run"]
    assert (run.status_backward, run.status_forward) == ("t_limit", "t_limit")
    assert run.speed_drift == pytest.approx(
        _stated(geodesic, r"speed_drift\s*#"), rel=0.1, abs=0.0)

    exec(projective, ns)
    assert ns["rep"]["max_normalized_residual"] == pytest.approx(
        _stated(projective, r"residual\"\]\s*#"), rel=0.1, abs=0.0)

    exec(comparison, ns)
    case, cmp = ns["case"], ns["cmp"]
    assert case.C == _stated(comparison, r"here")
    t_lo, t_hi = cmp.maximal_interval(case)
    assert f"{t_lo:.4f}" == "-0.1438" and t_hi == math.inf
    assert cmp.families(case) == ["asymptote_plus"]
    rec = cmp.classify_completeness(case)
    assert (rec["bi_complete"], rec["base_forward_complete"]) == (False, True)

    exec(ray, ns)
    assert f"{ns['a']:.6f}" == f"{_stated(ray, r'a =')}"
    assert f"{ns['b']:.6f}" == f"{_stated(ray, r'b =')}"
    assert ns["lam"] == _stated(ray, r"lam =")
    rep = ns["rep"]
    assert rep["max_rel_dev"] < 1e-14
    times = [f"{row[0]:.4f}" for row in rep["rows"]]
    assert (times[0], times[-1]) == ("-0.5009", "2.2009")


def test_the_verify_all_excerpt_is_live_output(capsys):
    text = README.read_text(encoding="utf-8")
    excerpt = re.search(r"\$ finslerlab verify-all\n(.*?)```", text, re.S)
    shown = [line for line in excerpt.group(1).splitlines()
             if re.match(r"criterion +(1|10) ", line)]
    assert cli.main(["verify-all", "--only", "1,10"]) == cli.EXIT_OK
    assert shown == capsys.readouterr().out.splitlines()[:2]
