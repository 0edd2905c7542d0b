"""Sprays, connections and curvatures of a Finsler metric via jets.

One order-4 jet of the energy Q = F^2 at (x, y) carries every partial
derivative this module needs; the spray, the nonlinear connection and the
Berwald-form Riemann tensor are then assembled with dense linear algebra.
Index convention for the stacked chart variable z = (x, y): slots 0..n-1
are x, slots n..2n-1 are y.

    g_ij   = 1/2 Q_{y^i y^j}
    G^i    = 1/4 g^{il} (Q_{x^k y^l} y^k - Q_{x^l})
    N^i_k  = dG^i/dy^k
    R^i_k  = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k
             + 2 G^j d2G^i/dy^j dy^k - N^i_j N^j_k

Flag curvature of the plane span(y, v):

    K = g(R(v), v) / (g(y,y) g(v,v) - g(y,v)^2)
"""

import numpy as np

from . import jets as jr
from . import sampling
from .errors import DegenerateFlagError, DomainError, SingularMetricError

COND_LIMIT = 1e12
MIN_FLAG_ANGLE = 1e-6


def _metric_block(metric, tensors):
    n = metric.n
    D2 = tensors[2]
    g = 0.5 * D2[n:, n:]
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > COND_LIMIT:
        raise SingularMetricError(
            f"{metric.name}: fundamental tensor not strongly convex "
            f"(eigenvalues {eigs.tolist()})"
        )
    ginv = np.linalg.solve(g, np.eye(n))
    return g, ginv


def _assemble(metric, x, y, order):
    """Spray data at (x, y) to the requested derivative depth (2, 3 or 4)."""
    n = metric.n
    f = metric.value_jet(x, y, order)  # validates (x, y)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    tensors = jr.derivative_tensors(f * f, order)  # of the energy Q = F^2
    D1, D2 = tensors[1], tensors[2]
    g, ginv = _metric_block(metric, tensors)

    h = D2[:n, n:].T @ y - D1[:n]
    G = 0.25 * (ginv @ h)
    out = {"x": x, "y": y, "F": f.value, "g": g, "ginv": ginv, "G": G}
    if order == 2:
        return out

    D3 = tensors[3]
    dg = 0.5 * np.moveaxis(D3[n:, n:, :], 2, 0)
    dh = np.einsum("klm,k->ml", D3[:n, n:, :], y)
    dh[n:, :] += D2[:n, n:]
    dh -= D2[:n, :].T
    dginv = -np.einsum("ab,mbc,cd->mad", ginv, dg, ginv)
    dG = 0.25 * (np.einsum("mab,b->ma", dginv, h) + np.einsum("ab,mb->ma", ginv, dh))
    out["dG"] = dG  # [mu, i] = dG^i/dz^mu over the stacked chart variable
    out["N"] = dG[n:, :].T
    out["Gx"] = dG[:n, :].T
    if order == 3:
        return out

    D4 = tensors[4]
    d2g = 0.5 * np.moveaxis(D4[n:, n:, :, :], [2, 3], [0, 1])
    d2h = np.einsum("klmn,k->mnl", D4[:n, n:, :, :], y)
    d2h[:, n:, :] += np.transpose(D3[:n, n:, :], (2, 0, 1))
    d2h[n:, :, :] += np.transpose(D3[:n, n:, :], (0, 2, 1))
    d2h -= np.transpose(D3[:n, :, :], (1, 2, 0))
    d2ginv = -(
        np.einsum("nab,mbc,cd->mnad", dginv, dg, ginv)
        + np.einsum("ab,mnbc,cd->mnad", ginv, d2g, ginv)
        + np.einsum("ab,mbc,ncd->mnad", ginv, dg, dginv)
    )
    d2G = 0.25 * (
        np.einsum("mnab,b->mna", d2ginv, h)
        + np.einsum("mab,nb->mna", dginv, dh)
        + np.einsum("nab,mb->mna", dginv, dh)
        + np.einsum("ab,mnb->mna", ginv, d2h)
    )
    N = out["N"]
    out["d2G"] = d2G  # [mu, nu, i] = d2G^i/dz^mu dz^nu
    term_xy = np.einsum("jki,j->ik", d2G[:n, n:, :], y)
    term_yy = np.einsum("jki,j->ik", d2G[n:, n:, :], G)
    out["R"] = 2.0 * out["Gx"] - term_xy + 2.0 * term_yy - N @ N
    out["Gyy"] = np.transpose(d2G[n:, n:, :], (2, 0, 1))  # [i, j, k] = d2G^i/dy^j dy^k
    return out


# ---------------------------------------------------------------------------
# public operations


def fundamental_tensor(metric, x, y):
    """g_ij at (x, y); raises SingularMetricError when not strongly convex."""
    f = metric.value_jet(x, y, 2)
    g, _ = _metric_block(metric, jr.derivative_tensors(f * f, 2))
    return g


def spray_coefficients(metric, x, y):
    return _assemble(metric, x, y, 2)["G"]


def nonlinear_connection(metric, x, y):
    return _assemble(metric, x, y, 3)["N"]


def riemann_curvature(metric, x, y):
    """Mixed curvature tensor R^i_k at (x, y)."""
    return _assemble(metric, x, y, 4)["R"]


def curvature_data(metric, x, y):
    """(F, g, R) at (x, y), sharing one jet evaluation."""
    data = _assemble(metric, x, y, 4)
    return data["F"], data["g"], data["R"]


def flag_curvature(metric, x, y, v, data=None):
    """Flag curvature of span(y, v); rejects flags nearly parallel to y."""
    if data is None:
        data = curvature_data(metric, x, y)
    f_val, g, R = data
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    gyy = float(y @ g @ y)
    gvv = float(v @ g @ v)
    gyv = float(y @ g @ v)
    denom = gyy * gvv - gyv * gyv
    sin_sq = denom / (gyy * gvv)
    if sin_sq < MIN_FLAG_ANGLE**2:
        raise DegenerateFlagError(
            f"flag direction within {MIN_FLAG_ANGLE} of y (sin^2 = {sin_sq:.3e})"
        )
    Rv = R @ v
    return float(v @ g @ Rv) / denom


def flag_spread(metric, x, y, flags=20, offset=sampling.DIRECTION_OFFSET):
    """Flag curvatures across ``flags`` transverse directions at one (x, y)."""
    return _spread(metric, x, y, curvature_data(metric, x, y), flags, offset)


def _spread(metric, x, y, data, flags, offset=sampling.DIRECTION_OFFSET):
    """:func:`flag_spread` from the (F, g, R) of one assembly."""
    vals = []
    vs = sampling.directions(3 * flags + 8, metric.n, offset=offset)
    for v in vs:
        if len(vals) == flags:
            break
        try:
            vals.append(flag_curvature(metric, x, y, v, data=data))
        except DegenerateFlagError:
            continue
    if not vals:
        raise DegenerateFlagError(
            f"{metric.name}: no flag direction transverse to y (n = {metric.n})")
    return {"values": vals, "min": min(vals), "max": max(vals),
            "spread": max(vals) - min(vals)}


def ricci_curvature(metric, x, y):
    """Ricci scalar: trace of R^i_k."""
    return float(np.trace(riemann_curvature(metric, x, y)))


def _einstein_constant(metric, lam):
    if lam is None:
        lam = metric.einstein_constant
    if lam is None:
        raise DomainError(f"{metric.name}: no Einstein constant given or stored")
    return lam


def _residual(metric, data, lam):
    """|Ric - (n-1) lam F^2| / F^2 from one order-4 assembly."""
    f2 = data["F"] ** 2
    ric = float(np.trace(data["R"]))
    return abs(ric - (metric.n - 1) * lam * f2) / f2


def einstein_residual(metric, x, y, lam=None):
    """|Ric - (n-1) lam F^2| / F^2 at one state."""
    lam = _einstein_constant(metric, lam)
    return _residual(metric, _assemble(metric, x, y, 4), lam)


def einstein_campaign(metric, count=50, lam=None, box=None, flags=0):
    """Max Einstein residual (and optional flag spreads) over Halton samples.

    One order-4 assembly per sample serves its residual and its flags.
    """
    lam = _einstein_constant(metric, lam)
    pairs = sampling.state_pairs(metric, count, box=box)

    def one(pair):
        x, y = pair
        data = _assemble(metric, x, y, 4)
        rec = {"x": x.tolist(), "y": y.tolist(),
               "einstein_residual": _residual(metric, data, lam)}
        if flags:
            sp = _spread(metric, x, y, (data["F"], data["g"], data["R"]), flags)
            rec["flag_min"] = sp["min"]
            rec["flag_max"] = sp["max"]
        return rec

    rows = sampling.pmap(one, pairs)
    report = {
        "metric": metric.name,
        "lambda": lam,
        "samples": count,
        "max_einstein_residual": max(r["einstein_residual"] for r in rows),
        "rows": rows,
    }
    if flags:
        report["flag_min"] = min(r["flag_min"] for r in rows)
        report["flag_max"] = max(r["flag_max"] for r in rows)
        report["max_flag_spread"] = max(r["flag_max"] - r["flag_min"] for r in rows)
    return report


def check_minkowski(metric, budget=100, box=None):
    """Sampled strong-convexity audit of the fundamental tensor."""
    pairs = sampling.state_pairs(metric, budget, box=box)
    worst_cond = 0.0
    min_eig = np.inf
    failures = []
    for x, y in pairs:
        try:
            f = metric.value_jet(x, y, 2)
            f_val = f.value
            n = metric.n
            g = 0.5 * jr.derivative_tensors(f * f, 2)[2][n:, n:]
            eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
            cond = np.inf if eigs[0] <= 0 else eigs[-1] / eigs[0]
            worst_cond = max(worst_cond, cond)
            min_eig = min(min_eig, eigs[0])
            if f_val <= 0.0 or eigs[0] <= 0.0 or cond > COND_LIMIT:
                failures.append({"x": x.tolist(), "y": y.tolist(),
                                 "F": f_val, "min_eig": float(eigs[0]),
                                 "cond": float(cond)})
        except Exception as exc:  # noqa: BLE001 - audit must survive bad samples
            failures.append({"x": x.tolist(), "y": y.tolist(), "error": str(exc)})
    return {
        "metric": metric.name,
        "samples": budget,
        "passed": not failures,
        "worst_cond": float(worst_cond),
        "min_eig": float(min_eig),
        "failures": failures,
    }
