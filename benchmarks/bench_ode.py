"""ODE-layer benchmark: geodesic legs, the comparison case, criteria, verify-all, tier-1.

Times, on fixed inputs, the calls that run ``ode.integrate`` and the
closed forms of the comparison case, and writes each row's median and
interquartile range over its reps to ``BENCH_ode.json`` under a label:

  geodesic.klein2_interior       ``integrate_geodesic`` on klein, n = 2,
                                 from (0.31, -0.22) along (0.62, 0.81)
                                 over t in [-0.5, 0.5]
  geodesic.hilbert_ellipse_interior  the same start on the Hilbert metric
                                 of the 2:1 ellipse
  geodesic.funk_plus_rim         funk-plus, n = 2, from 0.75 e1 heading
                                 -(e1 + 0.05 e2) over t in [-0.3, 0.3]:
                                 the backward leg runs into the rim, as
                                 perfbench's rim operations do
  numeric_vs_closed              ``comparison.numeric_vs_closed`` of the
                                 case (lam, lamt, a, b) = (1, 1, 0.7, 0.5)
  comparison_step                ``comparison.numeric_integrate`` of the same
                                 case over its default span (two DOP853 legs,
                                 251 accepted steps), with the median time
                                 per accepted step in microseconds
  candidate_length.tail          ``comparison.candidate_length`` of the
                                 case (-1, -1, 2.0, 0.0) over [0, inf];
                                 the row times 2000 calls and
                                 ``us_per_call`` is one
  candidate_length.pi_window     the same of the case (1, 1, 0.7, 0.5) over
                                 [0.3, 0.3 + pi]
  classify_completeness          ``comparison.classify_completeness`` of
                                 (a, b) = (0.7, 0.5) for each of the nine
                                 (lam, lamt) pairs; 50 passes, and
                                 ``us_per_case`` is one case
  classify_completeness.<lam>_<lamt>  the same for the one pair (lam,
                                 lamt); 500 calls
  maximal_interval, first_critical_time  ``comparison.maximal_interval``
                                 and ``comparison.first_critical_time`` of
                                 the nine cases; 500 passes, ``us_per_case``
  f_squared.float, f_squared.array, f_squared.jet
                                 ``comparison.f_squared`` of the case
                                 (-1, 0, 1.0, 1.0) at t = -5.25, on the 9
                                 times of ``ode_residual`` and on their
                                 order-2 jet batch; 2000 calls
  ode_residual                   ``comparison.ode_residual`` of the case
                                 (1, 1, 0.7, 0.5) on 9 times in [-2.4, 2.4];
                                 500 calls
  import_comparison              a fresh ``python -c "import
                                 finslerlab.comparison"``: wall time and
                                 ``peak_rss_mb`` (of the first rep)
  criterion_6, criterion_9       ``acceptance.criterion_k()`` wall time
                                 and ``worst``
  criterion_7                    a fresh process's import of
                                 ``finslerlab.acceptance`` and one
                                 ``criterion_7()``, with the criterion's
                                 ``worst``, its own time ``criterion_s``
                                 and whether ``scipy`` was loaded
  verify_all                     ``finslerlab verify-all`` (all ten
                                 criteria in one process) in a subprocess
  tier1                          the tier-1 suite wall time

This is the one script that times ``verify_all`` and ``tier1``.

The geodesic rows run at criterion 2's tolerances (rtol 1e-9, atol
1e-11). Each ODE row carries the right-hand-side calls (counted in an
untimed run), the accepted, rejected and vetoed steps and the legs'
statuses.

Every row is timed by ``_bench.alternated``: each rep runs in a fresh
process, on the parent checkout and on this one in turn with
``--parent``; a per-call row's rep is the median of
``_bench.WORKER_REPS`` calls after a warm-up call, and ``criterion_7``
and ``verify_all`` take PAIRS reps. Run from the repository root:

    python benchmarks/bench_ode.py --label change --parent ../parent
"""

import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import REPS  # noqa: E402

OUT = _bench.REPO / "BENCH_ode.json"
X0, Y0 = np.array([0.31, -0.22]), np.array([0.62, 0.81])
PAIRS = 10  # reps of the criterion_7 and verify_all rows


def counting_rhs_calls(ode, call):
    """``call()`` with every ``ode.integrate`` counting its rhs calls;
    returns (result, calls, legs)."""
    integrate, calls, legs = ode.integrate, [0], []

    def counted(rhs, *args, **kwargs):
        def rhs_counted(t, u):
            calls[0] += 1
            return rhs(t, u)

        leg = integrate(rhs_counted, *args, **kwargs)
        legs.append(leg)
        return leg

    ode.integrate = counted
    try:
        return call(), calls[0], legs
    finally:
        ode.integrate = integrate


def _ode_row(call, value=False):
    """Worker of an ODE row: ``call`` with its rhs calls, steps and legs'
    statuses and, with ``value``, its result."""
    from finslerlab import ode

    result, calls, legs = counting_rhs_calls(ode, call)
    row = {"s": _bench.median_call(call), "rhs_calls": calls,
           "steps_accepted": sum(leg.n_accepted for leg in legs),
           "steps_rejected": sum(leg.n_rejected for leg in legs),
           "steps_vetoed": sum(leg.n_vetoed for leg in legs),
           "status": [leg.status for leg in legs]}
    return dict(row, value=result) if value else row


def _calls(fn, calls, value=False):
    """Worker of a row of ``calls`` calls of ``fn``, with its result as
    ``value`` if asked."""
    row = _bench.per_call(fn, calls)
    return dict(row, value=fn()) if value else row


def command(tree, argv):
    """Worker of a row that runs ``python <argv>`` in ``tree`` against its
    ``src``: its wall time, the last line of its output and its exit
    code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    s = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1:]
    return {"s": s, "summary": tail[0] if tail else "", "exit": proc.returncode}


def _fresh(tree, code):
    """Worker of a row that runs ``python -c <code>`` in a fresh process
    against ``tree``'s ``src``: its wall time ``s`` and the fields of the
    JSON object it prints last, whose own ``s``, if any, replaces it."""
    row = command(tree, ["-c", code])
    return {"s": row["s"], **json.loads(row["summary"])}


def per_case(rows):
    """Add the fields computed from a label's medians: ``us_per_case`` of
    the rows over the nine cases and ``us_per_accepted_step``."""
    for name in ("classify_completeness", "maximal_interval",
                 "first_critical_time"):
        rows[name]["us_per_case"] = rows[name]["us_per_call"] / 9
    row = rows["comparison_step"]
    row["us_per_accepted_step"] = row["median_s"] / row["steps_accepted"] * 1e6


def rows(tree):
    from finslerlab import comparison as cmp
    from finslerlab import geodesic as gd, jets as jr, zoo

    rim_y = -np.array([1.0, 0.05]) / np.hypot(1.0, 0.05)
    geodesics = {
        "klein2_interior": ("klein", X0, Y0, (-0.5, 0.5)),
        "hilbert_ellipse_interior": ("hilbert-ellipse", X0, Y0, (-0.5, 0.5)),
        "funk_plus_rim": ("funk-plus", np.array([0.75, 0.0]), rim_y,
                          (-0.3, 0.3)),
    }
    table = {}
    for name, (metric, x, y, span) in geodesics.items():
        m = zoo.make_metric(metric, 2)
        table[f"geodesic.{name}"] = (REPS, partial(_ode_row, partial(
            gd.integrate_geodesic, m, x, y, span, rtol=1e-9, atol=1e-11)))

    case = cmp.make_case(1, 1, 0.7, 0.5)
    table["numeric_vs_closed"] = (REPS, partial(
        _ode_row, partial(cmp.numeric_vs_closed, case), True))
    table["comparison_step"] = (REPS, partial(
        _ode_row, partial(cmp.numeric_integrate, case)))
    tail = cmp.make_case(-1, -1, 2.0, 0.0)
    for name, args in (("tail", (tail, 0.0, np.inf)),
                       ("pi_window", (case, 0.3, 0.3 + np.pi))):
        table[f"candidate_length.{name}"] = (REPS, partial(
            _calls, partial(cmp.candidate_length, *args), 2000, True))
    nine = [cmp.make_case(lam, lamt, 0.7, 0.5)
            for lam in (-1, 0, 1) for lamt in (-1, 0, 1)]
    for name, fn, calls in (
            ("classify_completeness", cmp.classify_completeness, 50),
            ("maximal_interval", cmp.maximal_interval, 500),
            ("first_critical_time", cmp.first_critical_time, 500)):
        table[name] = (REPS, partial(
            _calls, lambda fn=fn: [fn(c) for c in nine], calls))
    for c in nine:
        table[f"classify_completeness.{c.lam:g}_{c.lam_tilde:g}"] = (
            REPS, partial(_calls, partial(cmp.classify_completeness, c), 500))
    ts = np.linspace(-2.4, 2.4, 9)
    exp_family = cmp.make_case(-1, 0, 1.0, 1.0)
    for name, t in (("float", -5.25), ("array", ts),
                    ("jet", jr.variables(ts[:, None], 2)[0])):
        table[f"f_squared.{name}"] = (REPS, partial(
            _calls, partial(cmp.f_squared, exp_family, t), 2000))
    table["ode_residual"] = (REPS, partial(
        _calls, partial(cmp.ode_residual, case, ts), 500, True))
    table["import_comparison"] = (_bench.SUITE_REPS, partial(
        _fresh, tree, "import json, resource, finslerlab.comparison; "
        "print(json.dumps({'peak_rss_mb': resource.getrusage("
        "resource.RUSAGE_SELF).ru_maxrss / 1024.0}))"))
    table.update(_bench.suite((6, 9)))
    # a fresh process's import of the acceptance module and one criterion
    table["criterion_7"] = (PAIRS, partial(_fresh, tree, """\
import json, sys, time
import numpy
t0 = time.perf_counter()
from finslerlab import acceptance
t1 = time.perf_counter()
worst = acceptance.criterion_7()["worst"]
t2 = time.perf_counter()
print(json.dumps({"s": t2 - t0, "criterion_s": t2 - t1, "worst": worst,
                  "scipy_loaded": "scipy" in sys.modules}))
"""))
    table["verify_all"] = (PAIRS, partial(
        command, tree, ["-m", "finslerlab.cli", "verify-all"]))
    table["tier1"] = (_bench.SUITE_REPS, partial(
        command, tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors"]))
    return table


if __name__ == "__main__":
    _bench.run(__doc__, __file__, OUT, rows, per_case)
