"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a fixed mix of operation kinds. ``make_pool`` draws the
inputs of one pass from ``--seed`` and interleaves the kinds, so any prefix
of a pass holds the kinds in the same proportions. ``run_op`` performs one
operation through the public ``finslerlab`` API and checks its output
against the tolerance of the acceptance criterion that covers it; a check
that fails raises :class:`ToleranceExceeded`.

Only the generated inputs reach the library; the seed itself never does.
"""

import hashlib
import json

import numpy as np

from finslerlab import comparison as cmp
from finslerlab import geodesic as gd
from finslerlab import geometry as geo
from finslerlab import projective as pj
from finslerlab import zoo

# acceptance-criterion tolerances (finslerlab.acceptance)
TOL_FLAG = 1e-5  # criterion 1: flag curvature and Einstein residual
TOL_FLAT = 1e-7  # criterion 2: flatness residual and Hausdorff distance
TOL_TRANSPORT = 1e-6  # criterion 5: curvature transport, Einstein fit
TOL_ODE_RESIDUAL = 1e-10  # criterion 6
TOL_NUMERIC = 1e-8  # criterion 6
TOL_ARC = 1e-7  # criterion 6

# states per campaign call, as the package's own callers make them
EINSTEIN_STATES = 40  # the ``curvature`` CLI command's default samples
EINSTEIN_FLAGS = 8  # and flags
PROJECTIVE_STATES = 40  # projective_campaign's default; criterion 2's samples
FIT_STATES = 25  # fit_einstein_constants's default; criterion 5's samples
GEODESIC_RTOL = 1e-9
GEODESIC_ATOL = 1e-11  # criterion 2's atol for rtol 1e-9
SAMPLE_GRID = 32

WORKLOADS = ("campaign", "geodesic", "comparison")

# seconds one pass takes on the reference host (2-core x86-64 VM,
# Python 3.11, numpy backend) at its faster speed; sets how many times a
# run repeats the pass
PASS_S = {"campaign": 9.0, "geodesic": 11.5, "comparison": 3.1}


class ToleranceExceeded(Exception):
    """An operation returned, but its check exceeded the criterion tolerance."""


def _check(value, tol, what):
    if not value <= tol:  # also catches NaN
        raise ToleranceExceeded(f"{what} = {value:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# metric catalog


def catalog(workload):
    """Every metric a workload uses, keyed by (name, n)."""
    return {key: zoo.make_metric(*key) for key in _metric_keys(workload)}


_EINSTEIN = ("klein", "funk-plus", "funk-minus", "spherical", "bryant",
             "paraboloid")
_ELLIPSE = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse")
_PAIRED = ("funk-plus", "funk-minus", "klein")

# geodesic kinds: (metric name, n, start) and their count in one pass,
# which holds the 100 operations p90 needs. "rim" starts head for the
# chart rim; a Funk ball leg that reaches it costs some 450 accepted
# steps, so those legs are kept rare.
_GEODESIC_KINDS = (
    (("klein", 2, "interior"), 12), (("klein", 3, "interior"), 12),
    (("hilbert-ball", 2, "interior"), 12),
    (("hilbert-ellipse", 2, "interior"), 12),
    (("spherical", 2, "interior"), 12), (("spherical", 3, "interior"), 12),
    (("bryant", 2, "interior"), 12), (("bryant", 3, "interior"), 12),
    (("funk-ellipse-plus", 2, "rim"), 1), (("funk-ellipse-minus", 2, "rim"), 1),
    (("funk-plus", 2, "rim"), 1), (("funk-minus", 2, "rim"), 1),
)

_CONSTANTS = (-1.0, 0.0, 1.0)


def _campaign_kinds():
    kinds = [("einstein", name, n) for n in (2, 3, 4) for name in _EINSTEIN]
    kinds += [("einstein", name, 2) for name in _ELLIPSE]
    for n in (2, 3):
        for name in _PAIRED:
            kinds.append(("projective", name, n))
            kinds.append(("fit", name, n))
    return [(kind, 4) for kind in kinds]


def _metric_keys(workload):
    if workload == "campaign":
        keys = {(name, n) for (_, name, n), _ in _campaign_kinds()}
        keys |= {("euclidean", n) for n in (2, 3)}
    elif workload == "geodesic":
        keys = {(name, n) for (name, n, _), _ in _GEODESIC_KINDS}
    else:
        keys = set()
    return sorted(keys)


# ---------------------------------------------------------------------------
# input generation

def kinds(workload):
    """(kind, count in one pass) for every operation kind of a workload."""
    if workload == "campaign":
        return _campaign_kinds()
    if workload == "geodesic":
        return list(_GEODESIC_KINDS)
    return [((lam, lt), 12) for lam in _CONSTANTS for lt in _CONSTANTS]


def pass_kinds(workload):
    """The kinds of one pass, interleaved so every prefix keeps the mix."""
    slots = []
    for rank, (kind, count) in enumerate(kinds(workload)):
        slots += [((j + 0.5) / count, rank, kind) for j in range(count)]
    return [kind for _, _, kind in sorted(slots, key=lambda s: s[:2])]


def _interior_point(rng, domain):
    lo, hi = (np.asarray(v, dtype=float) for v in domain.sample_box())
    while True:
        x = lo + rng.random(lo.size) * (hi - lo)
        if domain.contains(x):
            return x


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _sub_box(rng, domain, size):
    """A box inside ``domain.sample_box()`` centred on an interior point."""
    lo, hi = (np.asarray(v, dtype=float) for v in domain.sample_box())
    c = _interior_point(rng, domain)
    half = (0.25 + 0.25 * size) * 0.5 * (hi - lo)
    return np.maximum(lo, c - half).tolist(), np.minimum(hi, c + half).tolist()


# Each input drawer gets ``u`` in [0, 1), stratified over the repeats of a
# kind within a pass, for the parameter that sets the operation's cost.


def _campaign_input(rng, kind, metrics, u):
    call, name, n = kind
    box = _sub_box(rng, metrics[(name, n)].domain, u)
    return {"call": call, "metric": name, "n": n, "box": box}


def _geodesic_input(rng, kind, metrics, u):
    name, n, start = kind
    m = metrics[(name, n)]
    if start == "interior":
        x = _interior_point(rng, m.domain)
        y = _unit(rng, n)
        length = 0.2 + 0.3 * u
        back = rng.uniform(0.3, 0.7)
        span = (-back * length, (1.0 - back) * length)
    else:
        # a point 0.7-0.8 of the way to the rim along e, heading along e
        # with a slight sideways tilt: the Funk-plus backward leg and the
        # Funk-minus forward leg run out to the rim
        e = _unit(rng, n)
        if "ellipse" in name:
            semi = 0.5 * (m.domain.bbox_hi - m.domain.bbox_lo)
            reach = 1.0 / np.sqrt(np.sum((e / semi) ** 2))
        else:
            reach = 1.0
        x = (0.7 + 0.1 * u) * reach * e
        side = _unit(rng, n)
        side -= (side @ e) * e
        y = e + rng.uniform(0.04, 0.06) * side / np.linalg.norm(side)
        y = (1.0 if "minus" in name else -1.0) * y / np.linalg.norm(y)
        span = (-0.3, 0.3)
    return {"metric": name, "n": n, "start": start, "x": x.tolist(),
            "y": y.tolist(), "span": [float(span[0]), float(span[1])]}


def _comparison_input(rng, kind, metrics, u):
    lam, lt = kind
    # criterion 6's grid ranges: a in [0.3, 5], b in [-2, 2]
    return {"lam": lam, "lam_tilde": lt, "a": 0.3 + 4.7 * u,
            "b": float(rng.uniform(-2.0, 2.0))}


_INPUTS = {"campaign": _campaign_input, "geodesic": _geodesic_input,
           "comparison": _comparison_input}


def make_pool(workload, rng, metrics):
    """The inputs of one pass, drawn from the generator ``rng``."""
    draw = _INPUTS[workload]
    strata = {kind: list((rng.permutation(count) + rng.random(count)) / count)
              for kind, count in kinds(workload)}
    return [draw(rng, kind, metrics, float(strata[kind].pop()))
            for kind in pass_kinds(workload)]


def warmup_pool(workload, metrics):
    """One small input of every kind, drawn from a fixed seed.

    Each warm-up operation runs the same code path as the timed ones
    (the same jet contexts, tensor maps and integrator), on less work.
    """
    rng = np.random.default_rng(0)
    draw = _INPUTS[workload]
    pool = []
    for kind, _ in kinds(workload):
        spec = draw(rng, kind, metrics, 0.5)
        if workload == "campaign":
            spec["count"] = 2  # the Einstein fit needs two equations
        elif workload == "geodesic":
            spec["span"] = [-0.02, 0.02]
        pool.append(spec)
    return pool


def digest(pool):
    """Short SHA-256 of the generated inputs, to show two runs used the same."""
    blob = json.dumps(pool, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations


def _run_campaign(spec, metrics):
    m = metrics[(spec["metric"], spec["n"])]
    box = (np.array(spec["box"][0]), np.array(spec["box"][1]))
    count = spec.get("count")
    if spec["call"] == "einstein":
        rep = geo.einstein_campaign(m, count or EINSTEIN_STATES, box=box,
                                    flags=EINSTEIN_FLAGS)
        lam = m.einstein_constant
        _check(rep["max_einstein_residual"], TOL_FLAG, "einstein residual")
        _check(max(abs(rep["flag_min"] - lam), abs(rep["flag_max"] - lam)),
               TOL_FLAG, "flag curvature deviation")
        return
    base = metrics[("euclidean", spec["n"])]
    if spec["call"] == "projective":
        rep = pj.projective_campaign(base, m, count or PROJECTIVE_STATES,
                                     box=box)
        _check(rep["max_normalized_residual"], TOL_FLAT, "flatness residual")
        return
    rep = pj.fit_einstein_constants(base, m, count or FIT_STATES, box=box)
    _check(abs(rep["lambda_tilde"] - m.einstein_constant), TOL_TRANSPORT,
           "fitted lambda_tilde error")
    _check(abs(rep["lambda"] - base.einstein_constant), TOL_TRANSPORT,
           "fitted lambda error")
    _check(rep["max_residual"], TOL_TRANSPORT, "Einstein fit residual")


def _run_geodesic(spec, metrics):
    m = metrics[(spec["metric"], spec["n"])]
    x, y = np.array(spec["x"]), np.array(spec["y"])
    run = gd.integrate_geodesic(m, x, y, tuple(spec["span"]),
                                rtol=GEODESIC_RTOL, atol=GEODESIC_ATOL)
    back, fwd = run.legs
    grid = np.linspace(back.t_end, fwd.t_end, SAMPLE_GRID)
    pts, vels = run.sample(grid)
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vels))):
        raise ToleranceExceeded("dense output is not finite")
    # every catalog metric here is projectively flat: straight traces
    _check(gd.hausdorff_to_chord(run.xs, x, y), TOL_FLAT,
           "Hausdorff distance to chord")
    return run


def _run_comparison(spec, metrics):
    case = cmp.make_case(spec["lam"], spec["lam_tilde"], spec["a"], spec["b"])
    t_lo, t_hi = cmp.maximal_interval(case)
    cls = cmp.classify_completeness(case)
    if (cls["t_lo"], cls["t_hi"]) != (t_lo, t_hi):
        raise ToleranceExceeded("classification disagrees with maximal_interval")
    # criterion 6's residual window, numeric comparison and inversion time
    ts = np.linspace(max(t_lo, -3.0) * 0.8, min(t_hi, 3.0) * 0.8, 9)
    _check(cmp.ode_residual(case, ts), TOL_ODE_RESIDUAL, "ODE residual")
    _check(cmp.numeric_vs_closed(case), TOL_NUMERIC, "numeric vs closed form")
    if cmp.is_stationary(case):
        return
    t = 0.5 * min(cmp.first_critical_time(case), t_hi, 2.0)
    if np.isfinite(t) and t > 1e-12:
        _check(cmp.arc_param_roundtrip(case, t), TOL_ARC, "arc roundtrip")


_RUNNERS = {"campaign": _run_campaign, "geodesic": _run_geodesic,
            "comparison": _run_comparison}


def run_op(workload, spec, metrics):
    """Perform one checked operation; raises on failure."""
    return _RUNNERS[workload](spec, metrics)
