"""Command-line front end.

Subcommands
-----------
curvature   flag-curvature / Einstein campaign over deterministic samples
projective  pointwise projective-relatedness decision for a metric pair
geodesic    integrate one geodesic and write the trace as CSV
ode         closed-form analysis of one comparison-ODE case
verify-all  run the acceptance campaigns, one summary line per criterion

Exit codes: 0 success, 1 a requested check failed, 2 usage error,
3 numerical failure. Options are declared once, typed and defaulted, in
:func:`build_parser`. ``--config file.yaml`` keys them by long name
(``lambda: -1``) and each entry parses as the flag ``--key=value``: a
wrong type is a usage error, explicit flags win, other keys are ignored.
"""

import argparse
import datetime
import json
import sys

import numpy as np
import yaml

from . import acceptance
from . import comparison as cmp
from . import geodesic as gd
from . import geometry as geo
from . import projective as pj
from . import sampling
from . import zoo
from .errors import FinslerError, NumericError, reals

EXIT_OK, EXIT_CHECK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    pass


def _vec(text):
    return reals(str(text).split(","), "comma-separated coordinates")


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _to_plain(obj):
    if isinstance(obj, dict):
        return {str(k): _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)  # strict-JSON friendly
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path, command, params, results):
    params = {k: v for k, v in params.items()  # the options of vars(args)
              if k not in ("command", "config", "fn")}
    report = {"command": command, "created": _timestamp(),
              "params": _to_plain(params), "results": _to_plain(results)}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.16e" % v for v in row) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# options: YAML config < explicit flags


def _config_flags(path):
    """The entries of the YAML mapping at ``path`` as ``--key=value`` flags;
    a null entry is left out."""
    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise UsageError(f"config file {path}: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config file must hold a mapping of options")
    return [f"--{k}={v}" for k, v in loaded.items() if v is not None]


def _add_common(sub):
    sub.add_argument("--config", help="YAML file with default options")
    sub.add_argument("--out", help="write a JSON (or CSV) report here")


def _add_chart(sub):
    """The options of the subcommands that build a catalog metric."""
    sub.add_argument("--dim", type=int, default=2,
                     help="chart dimension (default 2)")
    sub.add_argument("--eps", type=float, default=0.9,
                     help="shape parameter for the one-parameter family")


# ---------------------------------------------------------------------------
# subcommands


def cmd_curvature(args):
    metric = zoo.make_metric(args.metric, args.dim, args.eps)
    box = None if args.box is None else np.repeat(  # (lo, ..), (hi, ..)
        _vec(args.box)[:, None], metric.n, axis=1)
    report = geo.einstein_campaign(metric, count=args.samples, lam=args.lam,
                                   box=box, flags=args.flags)
    print(f"metric            : {metric.name} (n = {metric.n})")
    print(f"einstein constant : {report['lambda']}")
    print(f"samples           : {report['samples']}")
    print(f"max |Ric/(n-1) - lambda F^2| / F^2 : {report['max_einstein_residual']:.3e}")
    if "flag_min" in report:
        print(f"flag curvature range : [{report['flag_min']:.12f}, "
              f"{report['flag_max']:.12f}]")
        print(f"max flag spread      : {report['max_flag_spread']:.3e}")
        print(f"flags dropped        : {report['flags_dropped']}")
    if args.out:
        _write_json(args.out, "curvature", vars(args), report)
    if args.tol is not None and not report["max_einstein_residual"] <= args.tol:
        print(f"FAIL residual exceeds tol {args.tol:g}")
        return EXIT_CHECK
    return EXIT_OK


def cmd_projective(args):
    base = zoo.make_metric(args.base, args.dim, args.eps)
    cand = zoo.make_metric(args.cand, args.dim, args.eps)
    report = pj.projective_campaign(base, cand, count=args.samples)
    res = report["max_normalized_residual"]
    related = res <= args.tol
    print(f"base      : {base.name}")
    print(f"candidate : {cand.name}")
    print(f"samples   : {report['samples']}")
    print(f"max normalized geodesic-coincidence residual : {res:.3e}")
    print(f"projectively related (tol {args.tol:g}) : "
          f"{'yes' if related else 'no'}")
    if related:
        x, y = sampling.joint_state_pairs(base, cand, 1)[0]
        fac = pj.projective_factor(base, cand, x, y)
        print(f"projective factor at ({', '.join('%.3f' % c for c in x)}; "
              f"{', '.join('%.3f' % c for c in y)}) : {fac['P']:.12f}")
    if args.out:
        report = dict(report)
        report["related"] = related
        _write_json(args.out, "projective", vars(args), report)
    return EXIT_OK if related else EXIT_CHECK


def cmd_geodesic(args):
    metric = zoo.make_metric(args.metric, args.dim, args.eps)
    if args.x0 is None or args.y0 is None:
        raise UsageError("geodesic needs --x0 and --y0")
    x0, y0 = _vec(args.x0), _vec(args.y0)
    run = gd.integrate_geodesic(metric, x0, y0, _vec(args.tspan),
                                rtol=args.rtol, atol=args.atol)
    print(f"metric   : {metric.name} (n = {metric.n})")
    print(f"t span   : [{run.t_span[0]:g}, {run.t_span[1]:g}]")
    print(f"status   : backward {run.status_backward}, "
          f"forward {run.status_forward}")
    print(f"nodes    : {len(run.ts)}")
    for name, leg in zip(("backward", "forward"), run.legs):
        print(f"{name:<8} : {leg.n_accepted} accepted, {leg.n_rejected} "
              f"rejected, {leg.n_vetoed} vetoed steps")
    # -signed: the distance to the rim on the unit ball, -phi on a body
    gaps = [-metric.domain.signed(leg.u_end[:metric.n]) for leg in run.legs]
    print(f"rim gap  : backward {gaps[0]:.3e}, forward {gaps[1]:.3e}")
    print(f"unit-speed drift : {run.speed_drift:.3e}")
    if args.out:
        n = metric.n
        header = (["t"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["F"])
        rows = [[t, *x, *v, s] for t, x, v, s in
                zip(run.ts, run.xs, run.vs, run.speeds)]
        _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_ode(args):
    case = cmp.make_case(args.lam, args.lamt, args.a, args.b)
    lo, hi = cmp.maximal_interval(case)
    cls = cmp.classify_completeness(case)
    dev, legs = cmp.numeric_vs_closed_legs(
        case, t_span=None if args.tspan is None else _vec(args.tspan))
    legs = [{"leg": name, "status": status, "t_end": res.t_end,
             "accepted": res.n_accepted, "rejected": res.n_rejected,
             "vetoed": res.n_vetoed}
            for name, (res, status) in zip(("backward", "forward"), legs)]
    print(f"case          : lam={case.lam:g} lamt={case.lam_tilde:g} "
          f"a={case.a:g} b={case.b:g}")
    print(f"invariant C   : {case.C:.12g}")
    print(f"life interval : ({lo:g}, {hi:g})")
    print(f"families      : {', '.join(cls['families']) or '(none)'}")
    print(f"base side     : backward "
          f"{'complete' if cls['base_backward_complete'] else 'incomplete'}, "
          f"forward {'complete' if cls['base_forward_complete'] else 'incomplete'}")
    print(f"candidate side: backward "
          f"{'complete' if cls['cand_backward_complete'] else 'incomplete'}, "
          f"forward {'complete' if cls['cand_forward_complete'] else 'incomplete'}")
    print(f"bi-complete   : {'yes' if cls['bi_complete'] else 'no'}")
    print(f"numeric vs closed form : {dev:.3e}")
    for leg in legs:
        print(f"{leg['leg']:<14}: {leg['status']} at t = {leg['t_end']:g}, "
              f"{leg['accepted']} accepted, {leg['rejected']} rejected, "
              f"{leg['vetoed']} vetoed steps")
    if args.out:
        results = dict(cls)
        results.update({"C": case.C, "interval": [lo, hi],
                        "numeric_vs_closed": dev, "legs": legs})
        _write_json(args.out, "ode", vars(args), results)
    return EXIT_OK


def _criteria(only):
    """The criteria that ``--only`` names, all of them when it is empty;
    UsageError for an entry that names none."""
    numbered = {fn.__name__.rsplit("_", 1)[1]: fn
                for fn in acceptance.ALL_CRITERIA}
    wanted = [e.strip() for e in only.split(",")] if only else numbered
    for key in wanted:
        if key not in numbered:
            raise UsageError(f"--only: no criterion {key!r} "
                             f"(choose from 1-{len(numbered)})")
    return [fn for key, fn in numbered.items() if key in wanted]


def cmd_verify_all(args):
    records = []
    failed = 0
    for fn in _criteria(args.only):
        rec = fn()
        records.append(rec)
        mark = "PASS" if rec["passed"] else "FAIL"
        print(f"criterion {rec['criterion']:2d} {mark}  "
              f"worst {rec['worst']:.3e} vs tol {rec['tol']:g}  "
              f"({rec['name']})")
        sys.stdout.flush()
        failed += 0 if rec["passed"] else 1
    print(f"{len(records) - failed}/{len(records)} criteria passed")
    if args.out:
        _write_json(args.out, "verify-all", {"only": args.only}, records)
    return EXIT_OK if failed == 0 else EXIT_CHECK


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="numerical lab for sprays, curvature and projective "
                    "geometry of Finsler metrics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="Einstein / flag-curvature campaign")
    p.add_argument("--metric", default="klein")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--flags", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float,
                   help="expected Einstein constant (default: catalog value)")
    p.add_argument("--tol", type=float,
                   help="fail (exit 1) when the residual exceeds this")
    p.add_argument("--box", help="sampling cube LO,HI for all coordinates")
    _add_common(p)
    _add_chart(p)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("projective",
                       help="decide pointwise projective relatedness")
    p.add_argument("--base", default="euclidean")
    p.add_argument("--cand", default="funk-plus")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--tol", type=float, default=pj.DECISION_TOL)
    _add_common(p)
    _add_chart(p)
    p.set_defaults(fn=cmd_projective)

    p = sub.add_parser("geodesic", help="integrate one geodesic, write CSV")
    p.add_argument("--metric", default="klein")
    p.add_argument("--x0", help="initial point, comma separated")
    p.add_argument("--y0", help="initial direction, comma separated")
    p.add_argument("--tspan", default="-1,1",
                   help="T0,T1 with T0 <= 0 <= T1")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    _add_common(p)
    _add_chart(p)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("ode", help="closed forms of one comparison case")
    p.add_argument("--lambda", dest="lam", type=float, default=-1.0)
    p.add_argument("--lambdat", dest="lamt", type=float, default=-1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--tspan")
    _add_common(p)
    p.set_defaults(fn=cmd_ode)

    p = sub.add_parser("verify-all", help="run the acceptance campaigns")
    p.add_argument("--only", help="comma-separated criterion numbers")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    try:
        if args.config:  # its entries as flags before the explicit ones
            cut = argv.index(args.command) + 1
            args, _ = ap.parse_known_args(
                argv[:cut] + _config_flags(args.config) + argv[cut:])
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a config or report path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
