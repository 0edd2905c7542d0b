"""Geodesic-layer benchmark: sprays, chord check, DOP853 stepper, rim legs, criteria 2 and 6, tier-1.

Times, on fixed inputs, the layers that a geodesic run and the comparison
ODE pass through, and writes the median and interquartile range over the
repetitions to ``BENCH_geodesic.json`` under a label:

  spray_<metric>    one-state ``geometry.spray_coefficients`` (an order-2
                    assembly, one per RK stage of a geodesic) for klein
                    (n = 2), bryant (n = 3) and hilbert-ellipse (n = 2);
                    the row times 200 calls and ``us_per_call`` is one
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
  tier1             the tier-1 suite (``python -m pytest -q``) wall time

Each row also carries counts that say what the timed call did (nodes,
accepted and rejected steps), and the file records the Python and numpy
versions and the kernel backend. Run from the repository root:

    python benchmarks/bench_geodesic.py --label change
    python benchmarks/bench_geodesic.py --label parent --tree ../parent

``--tree`` names the checkout whose ``src/`` (and, for the tier-1 row,
``tests/``) is measured; rows of other labels already in the output file
are kept.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402

OUT = _bench.REPO / "BENCH_geodesic.json"

# one-state spray inputs: (catalog name, n, x, y)
SPRAYS = (("klein", 2, [0.3, -0.2], [0.6, 0.8]),
          ("bryant", 3, [0.3, -0.2, 0.1], [0.6, 0.8, -0.2]),
          ("hilbert-ellipse", 2, [0.3, -0.2], [0.6, 0.8]))


def main(argv=None):
    label, tree = _bench.arguments(__doc__, argv)

    import numpy as np

    from finslerlab import comparison as cmp
    from finslerlab import geodesic as gd, geometry as geo, jets as jr
    from finslerlab import sampling, zoo

    summarize, timed, per_call = _bench.summarize, _bench.timed, _bench.per_call
    rows = {}
    for name, n, x0, y0 in SPRAYS:
        metric = zoo.make_metric(name, n)
        x0, y0 = np.array(x0), np.array(y0)
        rows[f"spray_{name}"] = per_call(
            lambda: geo.spray_coefficients(metric, x0, y0), 200)
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
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(summarize(times), **info)
    _bench.write(OUT, label, rows, tree, width=22)


def rim_legs(tree):
    """Rows ``rim_<metric>`` for the rim starts of perfbench's seed-7
    geodesic pool, drawn by the tree's own ``perfbench/workloads.py``."""
    import numpy as np

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
