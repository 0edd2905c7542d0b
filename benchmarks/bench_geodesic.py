"""Geodesic-layer benchmark: sprays, chord check, geodesics, rim legs, criterion 2.

Times, on fixed inputs, the layers that a geodesic run passes through,
and writes the median and interquartile range over the repetitions to
``BENCH_geodesic.json`` under a label:

  spray_<metric>    one-state ``geometry.spray_coefficients`` (an order-2
                    assembly, one per RK stage of a geodesic) for klein
                    (n = 2), spherical (n = 3), bryant (n = 3),
                    hilbert-ellipse (n = 2) and funk-plus (n = 2, whose F
                    reads a base value and runs live: the control); the
                    row times 200 calls, ``us_per_call`` is one,
                    ``py_calls`` and ``c_calls`` count the Python-level
                    and C-level calls of one spray as ``sys.setprofile``
                    sees them, and ``f_calls`` the runs of F's Python
                    body in one warm loop of 200 (0 where ``jets.jet_of``
                    replays F's recorded ring program)
  compose_sqrt_o<order>  ``jets.sqrt`` of a one-state jet in 4 variables
                    at orders 2 and 4, one ``jets._compose``; 2000 calls
  hausdorff_funk_minus  ``geodesic.hausdorff_to_chord`` on the funk-minus
                    trace of criterion 2's second state pair over t in
                    [-1, 1] (90 nodes at a7e543d; the row records ``nodes``)
  geodesic_funk_minus   one ``integrate_geodesic`` of that funk-minus trace
  rim_<metric>      the leg that runs out to the rim, one ``ode.integrate``
                    as ``integrate_geodesic`` runs it (a forward leg with
                    the start the backward leg hands on), for each of the
                    four rim starts of perfbench's seed-7 geodesic pool
                    (funk-ellipse-plus/-minus, funk-plus/-minus at rtol
                    1e-9): its rhs calls, accepted, rejected and vetoed
                    steps, status and end gap to the rim (-domain.signed)
  criterion_2       ``acceptance.criterion_2()`` wall time and ``worst``

Each row also carries counts that say what the timed call did (nodes,
accepted and rejected steps). ``--tree`` names the checkout whose
``src/`` (and, for the rim rows, ``perfbench/workloads.py``) is
measured. The comparison ODE's legs are ``bench_ode``'s rows.

Every row is timed by ``_bench.alternated``: each rep runs in a fresh
process, on the parent checkout and on this one in turn with
``--parent``; a per-call row's rep is the median of
``_bench.WORKER_REPS`` calls (of a spray row, loops) after a warm-up
call. Run from the repository root:

    python benchmarks/bench_geodesic.py --label change --parent ../parent
"""

import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import REPS, median_call  # noqa: E402

OUT = _bench.REPO / "BENCH_geodesic.json"

# one-state spray inputs: catalog name -> (n, x, y)
SPRAYS = {"klein": (2, [0.3, -0.2], [0.6, 0.8]),
          "spherical": (3, [0.3, -0.2, 0.1], [0.6, 0.8, -0.2]),
          "bryant": (3, [0.3, -0.2, 0.1], [0.6, 0.8, -0.2]),
          "hilbert-ellipse": (2, [0.3, -0.2], [0.6, 0.8]),
          "funk-plus": (2, [0.3, -0.2], [0.6, 0.8])}
SPRAY_CALLS = 200  # calls per timed loop of a spray row
# the metrics of the rim starts of perfbench's seed-7 geodesic pool, in
# pool order (tests/test_benchmarks.py holds them to the pool)
RIM_METRICS = ("funk-ellipse-plus", "funk-ellipse-minus", "funk-plus",
               "funk-minus")


def call_counts(call):
    """Python-level and C-level calls of one warm ``call()``, as
    ``sys.setprofile`` sees them."""
    call()
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return {"py_calls": counts["call"] - 1,  # less call() itself
            "c_calls": counts["c_call"] - 1}  # less sys.setprofile(None)


def f_calls(metric, spray):
    """Runs of ``metric.F``'s Python body in a loop of SPRAY_CALLS warm
    calls of ``spray(m)`` on a copy ``m`` of the metric that counts them."""
    runs = [0]

    def F(x, y):
        runs[0] += 1
        return metric.F(x, y)

    call = spray(replace(metric, F=F))
    call()
    runs[0] = 0
    for _ in range(SPRAY_CALLS):
        call()
    return runs[0]


def _spray(name):
    """Row ``spray_<name>``: SPRAY_CALLS one-state ``spray_coefficients``
    calls per loop, and the call counts of one."""
    from finslerlab import geometry as geo, zoo

    n, x0, y0 = SPRAYS[name]
    metric = zoo.make_metric(name, n)
    x0, y0 = np.array(x0), np.array(y0)
    spray = lambda m: lambda: geo.spray_coefficients(m, x0, y0)
    call = spray(metric)
    return dict(_bench.per_call(call, SPRAY_CALLS), **call_counts(call),
                f_calls=f_calls(metric, spray))


def _compose_sqrt(order):
    from finslerlab import jets as jr

    z = jr.variables([0.3, 0.5, 0.7, 0.9], order)
    arg = z[0] * z[1] + z[2] + z[3]
    return _bench.per_call(lambda: jr.sqrt(arg), 2000)


def _funk_minus():
    """The funk-minus trace of criterion 2's second state pair: the pair
    and the call of ``integrate_geodesic`` over t in [-1, 1]."""
    from finslerlab import geodesic as gd, sampling, zoo

    m = zoo.funk_ball(-1)
    x, y = sampling.state_pairs(m, 4)[1]
    return x, y, lambda: gd.integrate_geodesic(m, x, y, (-1.0, 1.0),
                                               rtol=1e-9, atol=1e-11)


def _hausdorff():
    from finslerlab import geodesic as gd

    x, y, integrate = _funk_minus()
    xs = integrate().xs
    return {"s": median_call(lambda: gd.hausdorff_to_chord(xs, x, y)),
            "nodes": len(xs), "value": gd.hausdorff_to_chord(xs, x, y)}


def _geodesic():
    integrate = _funk_minus()[2]
    run = integrate()
    return {"s": median_call(integrate), "nodes": len(run.xs),
            "steps_accepted": sum(leg.n_accepted for leg in run.legs),
            "steps_rejected": sum(leg.n_rejected for leg in run.legs)}


def rim_starts(tree):
    """The rim starts of perfbench's seed-7 geodesic pool, drawn by the
    tree's own ``perfbench/workloads.py``: metric name -> (workloads
    module, metric, spec)."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads as wl

    metrics = wl.catalog("geodesic")
    return {spec["metric"]: (wl, metrics[(spec["metric"], spec["n"])], spec)
            for spec in wl.make_pool("geodesic", np.random.default_rng(7),
                                     metrics) if spec["start"] == "rim"}


def _rim(tree, name):
    """Row ``rim_<metric>``: the leg of that rim start that reaches the rim."""
    from finslerlab import geodesic as gd, ode

    wl, m, spec = rim_starts(tree)[name]
    x, y = np.array(spec["x"]), np.array(spec["y"])
    u0 = np.concatenate([x, y / m(x, y)])
    # the Funk-plus backward and Funk-minus forward legs reach the rim; a
    # forward leg starts from what the backward leg hands on
    second = "minus" in spec["metric"]
    target = spec["span"][1 if second else 0]
    rhs, calls = gd.geodesic_rhs(m), [0]
    start = None
    if second:
        start = ode.integrate(rhs, 0.0, u0, spec["span"][0], wl.GEODESIC_RTOL,
                              wl.GEODESIC_ATOL)._next_start

    def counted(t, u):
        calls[0] += 1
        return rhs(t, u)

    def leg(f):
        return ode.integrate(f, 0.0, u0, target, wl.GEODESIC_RTOL,
                             wl.GEODESIC_ATOL, _start=start)

    res = leg(counted)
    return {"s": median_call(lambda: leg(rhs)), "status": res.status,
            "rhs_calls": calls[0], "steps_accepted": res.n_accepted,
            "steps_rejected": res.n_rejected, "steps_vetoed": res.n_vetoed,
            "rim_gap": -m.domain.signed(res.u_end[:spec["n"]])}


def rows(tree):
    table = {f"spray_{name}": (REPS, partial(_spray, name)) for name in SPRAYS}
    for order in (2, 4):
        table[f"compose_sqrt_o{order}"] = (REPS, partial(_compose_sqrt, order))
    table["hausdorff_funk_minus"] = (REPS, _hausdorff)
    table["geodesic_funk_minus"] = (REPS, _geodesic)
    for name in RIM_METRICS:
        table[f"rim_{name}"] = (REPS, partial(_rim, tree, name))
    table.update(_bench.suite((2,)))
    return table


if __name__ == "__main__":
    _bench.run(__doc__, __file__, OUT, rows)
