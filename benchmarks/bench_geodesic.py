"""Geodesic-layer benchmark: sprays, chord check, DOP853 stepper, rim legs, criteria 2 and 6, tier-1.

Times, on fixed inputs, the layers that a geodesic run and the comparison
ODE pass through, and writes the median and interquartile range over the
repetitions to ``BENCH_geodesic.json`` under a label:

  spray_<metric>    one-state ``geometry.spray_coefficients`` (an order-2
                    assembly, one per RK stage of a geodesic) for klein
                    (n = 2), spherical (n = 3), bryant (n = 3) and
                    hilbert-ellipse (n = 2); the row times 200 calls,
                    ``us_per_call`` is one, and ``py_calls`` and
                    ``c_calls`` count the Python-level and C-level calls
                    of one spray as ``sys.setprofile`` sees them
  compose_sqrt_o2/4 ``jets.sqrt`` of a one-state jet in 4 variables at
                    orders 2 and 4, one ``jets._compose``; 2000 calls
  hausdorff_funk_minus  ``geodesic.hausdorff_to_chord`` on the funk-minus
                    trace of criterion 2's second state pair over t in
                    [-1, 1] (90 nodes at a7e543d; the row records ``nodes``)
  ode_comparison    ``comparison.numeric_integrate`` over t in [0, 8]: one
                    ``ode.integrate`` of the 2-d comparison ODE, case
                    (lam, lamt, a, b) = (1, 1, 0.7, 0.5)
  geodesic_funk_minus   one ``integrate_geodesic`` of that funk-minus trace
  rim_<metric>      the leg that runs out to the rim, one ``ode.integrate``
                    as ``integrate_geodesic`` runs it (a forward leg with
                    the start the backward leg hands on), for each of the
                    four rim starts of perfbench's seed-7 geodesic pool
                    (funk-ellipse-plus/-minus, funk-plus/-minus at rtol
                    1e-9): its rhs calls, accepted, rejected and vetoed
                    steps, status and end gap to the rim (-domain.signed)
  criterion_2       ``acceptance.criterion_2()`` wall time
  criterion_6       ``acceptance.criterion_6()`` wall time
  verify_all        ``finslerlab verify-all`` in a subprocess
  tier1             the tier-1 suite (``python -m pytest -q``) wall time

Each row also carries counts that say what the timed call did (nodes,
accepted and rejected steps), and the file records the Python and numpy
versions and the kernel backend. Run from the repository root:

    python benchmarks/bench_geodesic.py --label parent --tree ../parent
    python benchmarks/bench_geodesic.py --label change --parent ../parent

``--tree`` names the checkout whose ``src/`` (and, for the tier-1 row,
``tests/``) is measured; rows of other labels already in the output file
are kept. With ``--parent`` the spray rows are timed by
``_bench.alternated``: each rep runs in a fresh process on the parent
checkout and on this one in turn, and its value is the median of
``WORKER_REPS`` loops after a warm-up loop. Those rows replace their
namesakes under the ``parent`` label, and the change's carry ``paired``.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402

OUT = _bench.REPO / "BENCH_geodesic.json"

# one-state spray inputs: catalog name -> (n, x, y)
SPRAYS = {"klein": (2, [0.3, -0.2], [0.6, 0.8]),
          "spherical": (3, [0.3, -0.2, 0.1], [0.6, 0.8, -0.2]),
          "bryant": (3, [0.3, -0.2, 0.1], [0.6, 0.8, -0.2]),
          "hilbert-ellipse": (2, [0.3, -0.2], [0.6, 0.8])}
SPRAY_CALLS = 200  # calls per timed loop of a spray row
WORKER_REPS = 5  # timed loops in one process of an alternated spray row


def _spray(name):
    """The call of row ``spray_<name>``: one ``spray_coefficients``."""
    from finslerlab import geometry as geo, zoo

    n, x0, y0 = SPRAYS[name]
    metric = zoo.make_metric(name, n)
    x0, y0 = np.array(x0), np.array(y0)
    return lambda: geo.spray_coefficients(metric, x0, y0)


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


def spray_row(name, reps):
    """The fields of row ``spray_<name>``: ``reps`` loops of SPRAY_CALLS
    calls and the call counts of one."""
    call = _spray(name)
    loop = lambda: [call() for _ in range(SPRAY_CALLS)]
    return _bench.timed(loop, reps), dict(calls=SPRAY_CALLS, **call_counts(call))


def main(argv=None):
    label, tree, parent, worker = _bench.arguments(__doc__, argv, paired=True)
    if worker:
        times, info = spray_row(worker[len("spray_"):], WORKER_REPS)
        print(json.dumps(dict(info, s=float(np.median(times)))))
        return

    from finslerlab import comparison as cmp
    from finslerlab import geodesic as gd, jets as jr
    from finslerlab import sampling, zoo

    summarize, timed, per_call = _bench.summarize, _bench.timed, _bench.per_call
    sprays = [f"spray_{name}" for name in SPRAYS]
    if parent:
        runs = _bench.alternated(__file__, {"parent": parent, label: tree}, sprays)
        rows = runs[label]
    else:
        rows = {}
        for row in sprays:
            times, info = spray_row(row[len("spray_"):], _bench.REPS)
            rows[row] = dict(summarize(times), **info)
    for row in (*rows.values(), *(runs["parent"].values() if parent else ())):
        row["us_per_call"] = row["median_s"] / row["calls"] * 1e6
    for order in (2, 4):
        z = jr.variables([0.3, 0.5, 0.7, 0.9], order)
        arg = z[0] * z[1] + z[2] + z[3]
        rows[f"compose_sqrt_o{order}"] = per_call(lambda: jr.sqrt(arg), 2000)

    m = zoo.funk_ball(-1)
    x, y = sampling.state_pairs(m, 4)[1]  # criterion 2's second pair
    integrate = lambda: gd.integrate_geodesic(m, x, y, (-1.0, 1.0),
                                              rtol=1e-9, atol=1e-11)
    run = integrate()
    rows["hausdorff_funk_minus"] = dict(
        summarize(timed(lambda: gd.hausdorff_to_chord(run.xs, x, y))),
        nodes=len(run.xs), value=gd.hausdorff_to_chord(run.xs, x, y))

    case = cmp.make_case(1, 1, 0.7, 0.5)
    ode_run = lambda: cmp.numeric_integrate(case, t_span=(0.0, 8.0))[1][0]
    res = ode_run()
    rows["ode_comparison"] = dict(
        summarize(timed(ode_run)),
        steps_accepted=res.n_accepted, steps_rejected=res.n_rejected)

    back, fwd = run.legs
    rows["geodesic_funk_minus"] = dict(
        summarize(timed(integrate)), nodes=len(run.xs),
        steps_accepted=back.n_accepted + fwd.n_accepted,
        steps_rejected=back.n_rejected + fwd.n_rejected)

    rows.update(rim_legs(tree))
    rows.update(_bench.criteria((2, 6)))
    times, info = _bench.verify_all(tree)
    rows["verify_all"] = dict(summarize(times), **info)
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(summarize(times), **info)
    if parent:
        _bench.write(OUT, "parent", runs["parent"], parent, width=22, merge=True)
    _bench.write(OUT, label, rows, tree, width=22)


def rim_legs(tree):
    """Rows ``rim_<metric>`` for the rim starts of perfbench's seed-7
    geodesic pool, drawn by the tree's own ``perfbench/workloads.py``."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads as wl
    from finslerlab import geodesic as gd, ode

    metrics = wl.catalog("geodesic")
    rows = {}
    for spec in wl.make_pool("geodesic", np.random.default_rng(7), metrics):
        if spec["start"] != "rim":
            continue
        m = metrics[(spec["metric"], spec["n"])]
        x, y = np.array(spec["x"]), np.array(spec["y"])
        u0 = np.concatenate([x, y / m(x, y)])
        # the Funk-plus backward and Funk-minus forward legs reach the rim;
        # a forward leg starts from what the backward leg hands on, where
        # the tree's ode has that hand-off
        second = "minus" in spec["metric"]
        target = spec["span"][1 if second else 0]
        rhs, calls = gd.geodesic_rhs(m), [0]
        start = {}
        if second:
            back = ode.integrate(rhs, 0.0, u0, spec["span"][0],
                                 wl.GEODESIC_RTOL, wl.GEODESIC_ATOL)
            if getattr(back, "_next_start", None) is not None:
                start = {"_start": back._next_start}

        def counted(t, u):
            calls[0] += 1
            return rhs(t, u)

        def leg(f):
            return ode.integrate(f, 0.0, u0, target, wl.GEODESIC_RTOL,
                                 wl.GEODESIC_ATOL, **start)

        res = leg(counted)
        rows[f"rim_{spec['metric']}"] = dict(
            _bench.summarize(_bench.timed(lambda: leg(rhs))),
            status=res.status, rhs_calls=calls[0],
            steps_accepted=res.n_accepted, steps_rejected=res.n_rejected,
            steps_vetoed=res.n_vetoed,
            rim_gap=-m.domain.signed(res.u_end[:spec["n"]]))
    return rows


if __name__ == "__main__":
    main()
