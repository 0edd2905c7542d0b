"""ODE-layer benchmark: geodesic legs, the comparison case, criteria, tier-1.

Times, on fixed inputs, the calls that run ``ode.integrate`` and the
closed forms of the comparison case, and writes the median and
interquartile range over the repetitions to ``BENCH_ode.json`` under a
label:

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
  classify_completeness.L_T      the same for the one pair (lam, lamt) =
                                 (L, T); 500 calls
  maximal_interval,              ``comparison.maximal_interval`` and
  first_critical_time            ``comparison.first_critical_time`` of the
                                 nine cases; 500 passes, ``us_per_case``
  f_squared.float, .array, .jet  ``comparison.f_squared`` of the case
                                 (-1, 0, 1.0, 1.0) at t = -5.25, on the 9
                                 times of ``ode_residual`` and on their
                                 order-2 jet batch; 2000 calls
  ode_residual                   ``comparison.ode_residual`` of the case
                                 (1, 1, 0.7, 0.5) on 9 times in [-2.4, 2.4];
                                 500 calls
  import_comparison              a fresh ``python -c "import
                                 finslerlab.comparison"``: wall time and
                                 ``peak_rss_mb``
  criterion_2, _6, _9            ``acceptance.criterion_k()`` wall time
  criterion_7                    a fresh process's import of
                                 ``finslerlab.acceptance`` and one
                                 ``criterion_7()``, with the criterion's
                                 ``worst``, its own time ``criterion_s``
                                 and whether ``scipy`` was loaded
  verify_all                     ``finslerlab verify-all`` in a subprocess
  tier1                          the tier-1 suite wall time

The geodesic rows run at criterion 2's tolerances (rtol 1e-9, atol
1e-11). Each ODE row carries the right-hand-side calls (counted in an
untimed run), the accepted and rejected steps, and, where the tree's
``OdeResult`` has it, the vetoed steps. Run from the repository root:

    python benchmarks/bench_ode.py --label parent --tree ../parent
    python benchmarks/bench_ode.py --label change --parent ../parent

The ``criterion_7`` and ``verify_all`` rows are timed by
``_bench.alternated``, PAIRS reps each in fresh processes. With
``--parent`` the reps alternate between the parent checkout and this one;
those rows replace their namesakes under the ``parent`` label, and the
change's carry ``paired``, the median per-rep ratio to the parent and the
reps it won. The other rows are one run per label.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402

OUT = _bench.REPO / "BENCH_ode.json"
X0, Y0 = np.array([0.31, -0.22]), np.array([0.62, 0.81])
FRESH_ROWS = ("criterion_7", "verify_all")  # timed by _bench.alternated
PAIRS = 10  # reps of each of those rows


def fresh_row(name, tree):
    """One rep of a FRESH_ROWS row in this fresh process: its time ``s``
    and the row's other fields."""
    if name == "verify_all":
        times, info = _bench.verify_all(tree, reps=1)
        return {"s": times[0], **info}
    t0 = time.perf_counter()
    from finslerlab import acceptance

    t1 = time.perf_counter()
    worst = acceptance.criterion_7()["worst"]
    t2 = time.perf_counter()
    return {"s": t2 - t0, "criterion_s": t2 - t1, "worst": worst,
            "scipy_loaded": "scipy" in sys.modules}


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


def ode_row(ode, call):
    _, calls, legs = counting_rhs_calls(ode, call)
    vetoed = [getattr(leg, "n_vetoed", None) for leg in legs]
    return dict(
        _bench.summarize(_bench.timed(call)), rhs_calls=calls,
        steps_accepted=sum(leg.n_accepted for leg in legs),
        steps_rejected=sum(leg.n_rejected for leg in legs),
        steps_vetoed=None if None in vetoed else sum(vetoed),
        status=[leg.status for leg in legs])


def main(argv=None):
    label, tree, parent, worker = _bench.arguments(__doc__, argv, paired=True)
    if worker:
        print(json.dumps(fresh_row(worker, tree)))
        return

    from finslerlab import comparison as cmp
    from finslerlab import geodesic as gd, jets as jr, ode, zoo

    rim_y = -np.array([1.0, 0.05]) / np.hypot(1.0, 0.05)
    geodesics = {
        "klein2_interior": ("klein", X0, Y0, (-0.5, 0.5)),
        "hilbert_ellipse_interior": ("hilbert-ellipse", X0, Y0, (-0.5, 0.5)),
        "funk_plus_rim": ("funk-plus", np.array([0.75, 0.0]), rim_y,
                          (-0.3, 0.3)),
    }
    rows = {}
    for name, (metric, x, y, span) in geodesics.items():
        m = zoo.make_metric(metric, 2)
        rows[f"geodesic.{name}"] = ode_row(
            ode, lambda: gd.integrate_geodesic(m, x, y, span, rtol=1e-9,
                                               atol=1e-11))

    case = cmp.make_case(1, 1, 0.7, 0.5)
    rows["numeric_vs_closed"] = dict(
        ode_row(ode, lambda: cmp.numeric_vs_closed(case)),
        value=cmp.numeric_vs_closed(case))
    row = ode_row(ode, lambda: cmp.numeric_integrate(case))
    rows["comparison_step"] = dict(
        row, us_per_accepted_step=row["median_s"] / row["steps_accepted"] * 1e6)

    tail = cmp.make_case(-1, -1, 2.0, 0.0)
    rows["candidate_length.tail"] = dict(
        _bench.per_call(lambda: cmp.candidate_length(tail, 0.0, np.inf), 2000),
        value=cmp.candidate_length(tail, 0.0, np.inf))
    window = (0.3, 0.3 + np.pi)
    rows["candidate_length.pi_window"] = dict(
        _bench.per_call(lambda: cmp.candidate_length(case, *window), 2000),
        value=cmp.candidate_length(case, *window))
    nine = [cmp.make_case(lam, lamt, 0.7, 0.5)
            for lam in (-1, 0, 1) for lamt in (-1, 0, 1)]
    row = _bench.per_call(
        lambda: [cmp.classify_completeness(c) for c in nine], 50)
    rows["classify_completeness"] = dict(
        row, us_per_case=row["us_per_call"] / len(nine))
    for c in nine:
        rows[f"classify_completeness.{c.lam:g}_{c.lam_tilde:g}"] = \
            _bench.per_call(lambda c=c: cmp.classify_completeness(c), 500)
    for name in ("maximal_interval", "first_critical_time"):
        fn = getattr(cmp, name)
        row = _bench.per_call(lambda: [fn(c) for c in nine], 500)
        rows[name] = dict(row, us_per_case=row["us_per_call"] / len(nine))
    ts = np.linspace(-2.4, 2.4, 9)
    exp_family = cmp.make_case(-1, 0, 1.0, 1.0)
    for name, t in (("float", -5.25), ("array", ts),
                    ("jet", jr.variables(ts[:, None], 2)[0])):
        rows[f"f_squared.{name}"] = _bench.per_call(
            lambda t=t: cmp.f_squared(exp_family, t), 2000)
    rows["ode_residual"] = dict(
        _bench.per_call(lambda: cmp.ode_residual(case, ts), 500),
        value=cmp.ode_residual(case, ts))
    times, info = _bench.fresh_import(tree, "finslerlab.comparison")
    rows["import_comparison"] = dict(_bench.summarize(times), **info)

    rows.update(_bench.criteria((2, 6, 9)))
    trees = {"parent": parent, label: tree} if parent else {label: tree}
    runs = _bench.alternated(__file__, trees, FRESH_ROWS, reps=PAIRS)
    rows.update(runs[label])
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(_bench.summarize(times), **info)
    if parent:
        _bench.write(OUT, "parent", runs["parent"], parent, width=34,
                     merge=True)
    _bench.write(OUT, label, rows, tree, width=34)


if __name__ == "__main__":
    main()
