"""End-to-end acceptance campaigns, one function per criterion.

Each ``criterion_*`` function returns a record

    {"criterion": k, "name": ..., "passed": bool, "worst": float,
     "tol": float, "details": {...}}

so the test suite and the ``verify-all`` CLI subcommand share one
implementation. ``worst`` is :func:`errors.worst` of the criterion's
checks, NaN if one is; a record passes only when ``worst <= tol`` and
the criterion's extra condition holds. All sampling is deterministic.
"""

import math

import numpy as np

from . import comparison as cmp
from . import errors
from . import geodesic as gd
from . import geometry as geo
from . import jets as jr
from . import projective as pj
from . import sampling
from . import zoo
from .errors import FDOracleError, one_state

GRID_AB = ((0.3, 0.7, 1.0, 2.0, 5.0), (-2.0, -0.5, 0.0, 0.5, 2.0))
NINE_PAIRS = tuple((l, lt) for l in (-1, 0, 1) for lt in (-1, 0, 1))
STATES = 25  # sampled states per metric in criteria 3, 4 and 5
LINE_NODES = 40  # midpoint nodes in theta per sphere-chart line of criterion 7


def _record(k, name, worst, tol, details, passed=True):
    """Criterion k's record: it passes when ``worst <= tol`` (never at a NaN
    worst) and ``passed``, the criterion's extra condition, holds."""
    return {"criterion": k, "name": name,
            "passed": bool(worst <= tol and passed),
            "worst": float(worst), "tol": float(tol), "details": details}


def _ratios(k, name, devs, note, passed=True, **extra):
    """Criterion k's record of its largest deviation/tolerance ratio, for
    ``devs`` {detail key: (deviation, tolerance)}; ``extra`` details follow."""
    ratio = errors.worst(dev / tol for dev, tol in devs.values())
    details = {key: dev for key, (dev, _) in devs.items()}
    return _record(k, name, ratio, 1.0,
                   {**details, **extra, "note": f"worst is the {note}"}, passed)


def _states(metric):
    """The STATES sampled states of criteria 3, 4 and 5 as (B, n) stacks."""
    return sampling._stacked(sampling.state_pairs(metric, STATES))


def _ellipse():
    return zoo.ellipsoid_body((2.0, 1.0))


# ---------------------------------------------------------------------------


def criterion_1():
    """Constant flag curvature of the Einstein catalog: per metric, one
    ``einstein_campaign`` with flags, judged by each sample's extreme flag
    curvatures against the metric's Einstein constant."""
    metrics = [
        zoo.klein(), zoo.funk_ball(1), zoo.funk_ball(-1),
        zoo.scaled(zoo.funk_ball(1), 0.5), zoo.scaled(zoo.funk_ball(-1), 0.5),
        zoo.spherical(), zoo.hilbert_general(_ellipse()),
        zoo.paraboloid_metric(2),
    ]
    details = {}
    for m in metrics:
        rep = geo.einstein_campaign(m, count=50, flags=20)
        lam = rep["lambda"]
        details[m.name] = errors.worst(abs(r[key] - lam) for r in rep["rows"]
                                       for key in ("flag_max", "flag_min"))
    return _record(1, "constant flag curvature across the catalog",
                   errors.worst(details.values()), 1e-5, details)


def criterion_2():
    """Projective flatness: flatness residual and straight geodesic traces."""
    metrics = [zoo.klein(), zoo.funk_ball(1), zoo.funk_ball(-1),
               zoo.hilbert_ball(), zoo.spherical(),
               zoo.bryant(0.5), zoo.bryant(1.0)]
    euc = zoo.euclidean()
    details = {}
    for m in metrics:
        rap = pj.projective_campaign(euc, m, count=40)
        chord_gaps = []
        for x, y in sampling.state_pairs(m, 4):
            run = gd.integrate_geodesic(m, x, y, (-1.0, 1.0),
                                        rtol=1e-9, atol=1e-11)
            chord_gaps.append(gd.hausdorff_to_chord(run.xs, x, y))
        details[m.name] = {"flatness": rap["max_normalized_residual"],
                           "hausdorff": errors.worst(chord_gaps)}
    worst = errors.worst(v for d in details.values() for v in d.values())
    return _record(2, "straight-line geodesics on projectively flat charts",
                   worst, 1e-7, details)


def criterion_3():
    """Eikonal-type characterization of Funk metrics, ball and ellipse."""
    cases = [
        ("ball+", zoo.funk_ball(1), 0.5),
        ("ball-", zoo.funk_ball(-1), -0.5),
        ("ellipse+", zoo.funk_body_metric(_ellipse(), 1), 0.5),
        ("ellipse-", zoo.funk_body_metric(_ellipse(), -1), -0.5),
    ]
    details = {tag: float(pj.funk_condition_residual(m, mu, *_states(m)).max())
               for tag, m, mu in cases}
    worst = errors.worst(details.values())
    kl = zoo.klein()
    control = float(pj.funk_condition_residual(kl, 0.5, *_states(kl)).min())
    details["klein_control_min"] = control
    return _record(3, "Funk eikonal condition at mu = +-1/2",
                   worst, 1e-8, details, passed=control > 0.01)


def criterion_4():
    """Closed-form projective factors and their curvature scalars."""
    euc = zoo.euclidean()
    fp, fm, hb = zoo.funk_ball(1), zoo.funk_ball(-1), zoo.hilbert_ball()
    X, Y = _states(fp)
    vp, vm = fp(X, Y), fm(X, Y)
    fh = 0.5 * (vp + vm)
    rows = [
        ("P_plus", pj.projective_factor(euc, fp, X, Y)["P"], 0.5 * vp),
        ("P_minus", pj.projective_factor(euc, fm, X, Y)["P"], -0.5 * vm),
        ("P_hilbert", pj.projective_factor(euc, hb, X, Y)["P"],
         0.5 * (vp - vm)),
        ("Xi_plus", pj.xi_and_tau(euc, fp, X, Y)["Xi"], -0.25 * vp * vp),
        ("Xi_minus", pj.xi_and_tau(euc, fm, X, Y)["Xi"], -0.25 * vm * vm),
        ("Xi_hilbert", pj.xi_and_tau(euc, hb, X, Y)["Xi"], -fh * fh),
    ]
    details = {tag: float(np.max(np.abs(got - pred)
                                 / np.maximum(1.0, np.abs(pred))))
               for tag, got, pred in rows}
    return _record(4, "projective factor and transport scalars in closed form",
                   errors.worst(details.values()), 1e-7, details)


def criterion_5():
    """Curvature transport identity, matrix and traced forms."""
    euc = zoo.euclidean()
    details = {}
    for cand in (zoo.funk_ball(1), zoo.funk_ball(-1), zoo.klein()):
        chk = pj.curvature_transform_check(euc, cand, *_states(cand))
        details[cand.name] = {"matrix": float(chk["defect"].max()),
                              "ricci": float(chk["ricci_defect"].max())}
    worst = errors.worst(v for d in details.values() for v in d.values())
    return _record(5, "curvature transport under projective change",
                   worst, 1e-6, details)


def criterion_6():
    """Closed forms of the comparison ODE: residual, numerics, inversion."""
    a_grid, b_grid = GRID_AB
    odes, nums, arcs = [], [], []
    for lam, lt in NINE_PAIRS:
        for a in a_grid:
            for b in b_grid:
                case = cmp.make_case(lam, lt, a, b)
                t_lo, t_hi = cmp.maximal_interval(case)
                ts = np.linspace(max(t_lo, -3.0) * 0.8, min(t_hi, 3.0) * 0.8, 9)
                odes.append(cmp.ode_residual(case, ts))
                nums.append(cmp.numeric_vs_closed(case))
                if cmp.is_stationary(case):
                    continue
                tc = cmp.first_critical_time(case)
                t = 0.5 * min(tc, t_hi, 2.0)
                if np.isfinite(t) and t > 1e-12:
                    arcs.append(cmp.arc_param_roundtrip(case, t))
    return _ratios(6, "comparison ODE closed forms on the 9-pair grid",
                   {"ode_residual": (errors.worst(odes), 1e-10),
                    "numeric_vs_closed": (errors.worst(nums), 1e-8),
                    "arc_roundtrip": (errors.worst(arcs), 1e-7)},
                   "largest residual/tolerance ratio")


def criterion_7():
    """Quantized candidate lengths: pi windows, pi totals, pi lines; at t =
    tan(theta) a line's integrand is analytic and pi-periodic in theta."""
    wins, tots = [], []
    for a, b in ((0.3, -2.0), (0.7, 0.5), (1.0, 0.0), (2.0, 2.0), (5.0, -0.5)):
        case = cmp.make_case(1, 1, a, b)
        wins += [abs(cmp.candidate_length(case, t0, t0 + math.pi) - math.pi)
                 for t0 in (-2.0, -0.3, 0.0, 1.1, 4.0)]
        L = cmp.candidate_length(cmp.make_case(0, 1, a, b), -np.inf, np.inf)
        tots.append(abs(L - math.pi))
    sph = zoo.spherical()
    theta = (np.arange(LINE_NODES) + 0.5) * (math.pi / LINE_NODES) - math.pi / 2
    t, w = np.tan(theta)[:, None], math.pi / LINE_NODES / np.cos(theta) ** 2
    lines = [abs(w @ sph(x + t * y, np.tile(y, (LINE_NODES, 1))) - math.pi)
             for x, y in sampling.state_pairs(sph, 10)]
    return _ratios(7, "pi-quantized lengths of closed and line geodesics",
                   {"window_pi": (errors.worst(wins), 1e-9),
                    "total_pi": (errors.worst(tots), 1e-9),
                    "sphere_chart_lines": (float(errors.worst(lines)), 1e-8)},
                   "largest deviation/tolerance ratio", line_nodes=LINE_NODES)


def criterion_8():
    """The ray law along straight rays of the catalog's Einstein sources."""
    ell = _ellipse()
    jobs = [
        ("klein", None, 1e-10), ("funk-plus", None, 1e-10),
        ("funk-minus", None, 1e-10), ("hilbert", None, 1e-8),
        ("spherical", None, 1e-8),
        ("funk-plus", ell, 1e-8), ("funk-minus", ell, 1e-8),
        ("hilbert", ell, 1e-8), ("paraboloid", None, 1e-10),
    ]
    details = {}
    for source, body, tol in jobs:
        metric = zoo.EVOLUTION_SOURCES[source](2, body)
        devs = []
        for x, y in sampling.state_pairs(metric, 6):
            y = y / np.linalg.norm(y)
            devs.append(zoo.verify_evolution(source, x, y,
                                             body=body)["max_rel_dev"])
        tag = source + ("-ellipse" if body is not None else "")
        details[tag] = {"dev": errors.worst(devs), "tol": tol}
    jobs_pass = all(d["dev"] <= d["tol"] for d in details.values())
    ratio = errors.worst(d["dev"] / d["tol"] for d in details.values())
    details["note"] = "worst is the largest deviation/tolerance ratio"
    return _record(8, "ray evolution laws of the projectively flat catalog",
                   ratio, 1.0, details, passed=jobs_pass)


def criterion_9():
    """Completeness taxonomy of the (a, b) grids and the Funk borderline."""
    rows = cmp.grid_completeness(-1, -1)
    bi = sorted((r["a"], r["b"]) for r in rows if r["bi_complete"])
    ap = sorted((r["a"], r["b"]) for r in rows
                if "asymptote_plus" in r["families"])
    am = sorted((r["a"], r["b"]) for r in rows
                if "asymptote_minus" in r["families"])
    ok_grid = (bi == [(1.0, 0.0)]
               and ap == [(0.5, 1.5), (1.0, 0.0)]
               and am == [(0.5, -1.5), (1.0, 0.0)])

    rows0 = cmp.grid_completeness(0, 0)
    ok_zero = all(r["bi_complete"] == (abs(r["b"]) < 1e-12) for r in rows0)

    hb = zoo.hilbert_ball()
    fp, fm = zoo.funk_ball(1), zoo.funk_ball(-1)
    devs = []
    for x, y in sampling.state_pairs(hb, 5):
        run = gd.integrate_geodesic(hb, x, y, (-0.8, 1.6))
        for funk, sign in ((fp, 1), (fm, -1)):
            a0 = math.sqrt(2.0 / funk(x, y / hb(x, y)))
            b0 = sign * (1.0 - a0 * a0) / a0  # borderline-family slope
            case = cmp.make_case(-1, -1, a0, b0)
            fam = "asymptote_plus" if sign > 0 else "asymptote_minus"
            if fam not in cmp.families(case):
                devs.append(np.inf)
                continue
            f2_pred = cmp.f_squared(case, run.ts)
            f2_actual = 2.0 / funk(run.xs, run.vs)
            devs.append(float(np.max(np.abs(f2_actual - f2_pred)
                                     / np.abs(f2_pred))))
    worst = errors.worst(devs)
    return _record(9, "completeness taxonomy and the Funk borderline family",
                   worst, 1e-7,
                   {"grid_minus_minus": ok_grid, "grid_zero_zero": ok_zero,
                    "funk_family_dev": worst, "bi_complete_cells": bi},
                   passed=ok_grid and ok_zero)


def _zoo_for_jets():
    return [zoo.euclidean(), zoo.klein(), zoo.funk_ball(1), zoo.funk_ball(-1),
            zoo.spherical(), zoo.hilbert_ball(), zoo.bryant(0.5),
            zoo.bryant(1.0), zoo.paraboloid_metric(2)]


def _moderate_box(metric):
    """Sample box halved about its center; keeps FD stencils well scaled."""
    lo, hi = metric.domain.sample_box()
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid - 0.5 * half, mid + 0.5 * half


FD_SKIP_LIMIT = 0.01  # share of a metric's checks the FD oracle may refuse
FD_SAMPLES = 100  # sampled states per metric of criterion 10's derivatives
FD_CURVATURE_SAMPLES = 6  # states per metric of its curvature check


def criterion_10():
    """Jet derivatives against the finite-difference oracle; a check the
    oracle refuses is counted per metric in ``fd_skipped``, and the
    criterion fails when a metric's skips pass FD_SKIP_LIMIT of its checks."""
    details, skipped = {}, {}
    for m in _zoo_for_jets():
        idxs = jr.get_context(2 * m.n, 3).monomials[1:]  # degrees 1..3
        pairs = sampling.state_pairs(m, FD_SAMPLES, box=_moderate_box(m))
        X, Y = m.check_state(*sampling._stacked(pairs))
        jet = jr.jet_of(m.F, X, Y, 3)
        norms = [np.maximum(1e-9, np.abs(t).reshape(len(X), -1).max(axis=1))
                 for t in jr.derivative_tensors(jet)]
        devs, skips = [], 0
        for i, (x, y) in enumerate(pairs):
            for j in range(3):
                idx = idxs[(3 * i + j) % len(idxs)]
                jv = jr.extract_derivative(jet, idx)[i]
                try:
                    fv = jr.fd_oracle(m.F, x, y, idx)
                except FDOracleError:
                    skips += 1
                    continue
                # deviations are judged against the order-k tensor scale
                scale = max(abs(jv), abs(fv), 1e-3 * norms[sum(idx)][i], 1e-9)
                devs.append(abs(jv - fv) / scale)
        # a metric whose every check the oracle refused fails by its skips
        details[m.name] = errors.worst(devs) if devs else 0.0
        skipped[m.name] = skips
    few_skips = all(s <= FD_SKIP_LIMIT * 3 * FD_SAMPLES for s in skipped.values())

    devs_R = []
    for m in (zoo.klein(), zoo.funk_ball(1), zoo.spherical(),
              zoo.bryant(0.5), zoo.paraboloid_metric(2)):
        for x, y in sampling.state_pairs(m, FD_CURVATURE_SAMPLES):
            R_jet = geo.riemann_curvature(m, x, y)
            R_fd = fd_riemann(m, x, y)
            scale = max(1.0, float(np.max(np.abs(R_jet))))
            devs_R.append(float(np.max(np.abs(R_jet - R_fd))) / scale)
    return _ratios(10, "jet calculus against the finite-difference oracle",
                   {"derivative_dev": (errors.worst(details.values()), 1e-6),
                    "curvature_fd_dev": (errors.worst(devs_R), 1e-4)},
                   "largest deviation/tolerance ratio", passed=few_skips,
                   per_metric=details, fd_skipped=skipped)


def fd_riemann(metric, x, y):
    """Curvature assembled from finite differences of the spray,
    R = 2 G_x - y^j G_{x^j y} + 2 G^j G_{y^j y} - N N, each derivative one
    :func:`jets.fd_derivative` over the stacked variable (x, y)."""
    n, (x, y) = metric.n, metric.check_state(*one_state(x, y))
    z = np.concatenate([x, y])
    G = lambda Z: geo.spray_coefficients(metric, Z[:, :n], Z[:, n:])

    def dG(*slots):  # [i, ...]: derivative of G^i over the slots of z
        idx = np.zeros(2 * n, dtype=int)
        for s in slots:
            idx[s] += 1
        return jr.fd_derivative(G, z, idx)

    Gx = np.stack([dG(k) for k in range(n)], axis=1)
    N = np.stack([dG(n + k) for k in range(n)], axis=1)
    Gxy = np.array([[dG(j, n + k) for k in range(n)] for j in range(n)])
    Gyy = np.array([[dG(n + j, n + k) for k in range(n)] for j in range(n)])
    G0 = geo.spray_coefficients(metric, x, y)
    return (2.0 * Gx - np.einsum("j,jki->ik", y, Gxy)
            + 2.0 * np.einsum("j,jki->ik", G0, Gyy) - N @ N)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10)
