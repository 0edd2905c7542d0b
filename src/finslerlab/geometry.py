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

The chart derivatives of g^{-1} are stacked matmuls through
M_mu = g^{-1} dg/dz^mu, exact algebra that rounds better than contracting
three factors at once:

    d(g^{-1})/dz^mu         = -M_mu g^{-1}
    d2(g^{-1})/dz^mu dz^nu  = (M_mu M_nu + M_nu M_mu - g^{-1} d2g/dz^mu dz^nu) g^{-1}

The order-4 assembly keeps only the y-columns of the second spray
derivatives, d2G[mu, nu, i] = d2G^i/dz^mu dy^nu: the curvature reads no
other, and so no Q partial with more than two x-derivatives, and its
jets drop the monomials of x-degree 3 and above (see
:meth:`finslerlab.jets.JetContext.x_truncated`).

Flag curvature of the plane span(y, v):

    K = g(R(v), v) / (g(y,y) g(v,v) - g(y,v)^2)

Every assembly takes one state, (x, y) of shape (n,), or a batch, (B, n)
stacks, and then every entry of its result gains a leading axis B. Products
with a vector are stacked matmuls (see :func:`_vecmat`), so each row of a
batch equals the one-state result bit for bit.
"""

import numpy as np

from . import jets as jr
from . import sampling
from .errors import (DegenerateFlagError, DomainError, FinslerError,
                     SingularMetricError)

COND_LIMIT = 1e12
MIN_FLAG_ANGLE = 1e-6


def _vecmat(v, M):
    """v^T M over the last axes, for one state or a batch."""
    return (v[..., None, :] @ M)[..., 0, :]


def _matvec(M, v):
    """M v over the last axes, for one state or a batch."""
    return (M @ v[..., None])[..., 0]


def _dot(u, v):
    """u . v over the last axis, for one state or a batch."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _T(a):
    """Swap the last two axes."""
    return a.swapaxes(-1, -2)


def _core(a, *perm):
    """Permute the last len(perm) axes as np.transpose would a lone
    state's; leading batch axes stay (np.moveaxis costs 25x more)."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


def _metric_block(metric, tensors):
    n = metric.n
    D2 = tensors[2]
    g = 0.5 * D2[..., n:, n:]
    g = 0.5 * (g + _T(g))
    eigs = np.linalg.eigvalsh(g)
    lo, hi = eigs.T[0], eigs.T[-1]
    bad = (lo <= 0.0) | (hi > COND_LIMIT * lo)
    if bad if bad.ndim == 0 else bad.any():
        where = ""
        if eigs.ndim > 1:
            i = int(np.argmax(bad))
            eigs, where = eigs[i], f" at state {i}"
        raise SingularMetricError(
            f"{metric.name}: fundamental tensor not strongly convex{where} "
            f"(eigenvalues {eigs.tolist()})"
        )
    # inv runs LAPACK's gesv against the identity, as solve(g, eye(n)) does
    ginv = np.linalg.inv(g)
    return g, ginv


def _assemble(metric, x, y, order):
    """Spray data at (x, y) to the requested derivative depth (2, 3 or 4).

    ``x`` and ``y`` are one state, shape ``(n,)``, or a batch, ``(B, n)``;
    every entry then carries a leading batch axis. The public entries
    validate (x, y) with ``metric.check_state`` before they get here.
    """
    n = metric.n
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # no entry below reads a Q partial with more than two x-derivatives,
    # so the jets drop the monomials of x-degree 3 and above (their
    # tensor slots read NaN)
    f = jr.jet_of(metric.F, x, y, order, x_degree=2)
    tensors = jr.derivative_tensors(f * f, order)  # of the energy Q = F^2
    D1, D2 = tensors[1], tensors[2]
    g, ginv = _metric_block(metric, tensors)

    h = _vecmat(y, D2[..., :n, n:]) - D1[..., :n]
    G = 0.25 * _matvec(ginv, h)
    out = {"x": x, "y": y, "F": f.value, "g": g, "ginv": ginv, "G": G}
    if order == 2:
        return out

    D3 = tensors[3]
    dg = 0.5 * _core(D3[..., n:, n:, :], 2, 0, 1)
    dh = np.einsum("...klm,...k->...ml", D3[..., :n, n:, :], y)
    dh[..., n:, :] += D2[..., :n, n:]
    dh -= _T(D2[..., :n, :])
    gi = ginv[..., None, :, :]  # broadcasts over the chart slot mu
    M = gi @ dg  # [mu] = g^-1 dg/dz^mu
    dginv = -(M @ gi)
    dG = 0.25 * (np.einsum("...mab,...b->...ma", dginv, h)
                 + np.einsum("...ab,...mb->...ma", ginv, dh))
    out["dG"] = dG  # [mu, i] = dG^i/dz^mu over the stacked chart variable
    out["N"] = _T(dG[..., n:, :])
    out["Gx"] = _T(dG[..., :n, :])
    if order == 3:
        return out

    # only the y-columns of d2G (nu over y): its x-x block would read
    # D3[x, x, x] and D4[x, y, x, x], which the truncated jets drop
    D4 = tensors[4]
    d2g = 0.5 * _core(D4[..., n:, n:, :, n:], 2, 3, 0, 1)  # nu over y
    d2h = np.einsum("...klmn,...k->...mnl", D4[..., :n, n:, :, n:], y)
    d2h += _core(D3[..., :n, n:, :], 2, 0, 1)
    d2h[..., n:, :, :] += _T(D3[..., :n, n:, n:])
    d2h -= _core(D3[..., :n, :, n:], 1, 2, 0)
    MM = M[..., :, None, :, :] @ M[..., None, :, :, :]  # [mu, nu] = M_mu M_nu
    gi = gi[..., None, :, :]
    # only the half nu over y, which is all that d2G reads
    d2ginv = (MM[..., :, n:, :, :] + _core(MM[..., n:, :, :, :], 1, 0, 2, 3)
              - gi @ d2g) @ gi
    d2G = 0.25 * (
        np.einsum("...mnab,...b->...mna", d2ginv, h)
        + np.einsum("...mab,...nb->...mna", dginv, dh[..., n:, :])
        + np.einsum("...nab,...mb->...mna", dginv[..., n:, :, :], dh)
        + np.einsum("...ab,...mnb->...mna", ginv, d2h)
    )
    N = out["N"]
    out["d2G"] = d2G  # [mu, nu, i] = d2G^i/dz^mu dy^nu
    out["d2ginv"] = d2ginv  # [mu, nu] = d2(g^-1)/dz^mu dy^nu
    term_xy = np.einsum("...jki,...j->...ik", d2G[..., :n, :, :], y)
    term_yy = np.einsum("...jki,...j->...ik", d2G[..., n:, :, :], G)
    out["R"] = 2.0 * out["Gx"] - term_xy + 2.0 * term_yy - N @ N
    out["Gyy"] = _core(d2G[..., n:, :, :], 2, 0, 1)  # [i, j, k] = d2G^i/dy^j dy^k
    return out


# ---------------------------------------------------------------------------
# public operations


def fundamental_tensor(metric, x, y):
    """g_ij at (x, y); raises SingularMetricError when not strongly convex."""
    f = metric.value_jet(x, y, 2)
    g, _ = _metric_block(metric, jr.derivative_tensors(f * f, 2))
    return g


def spray_coefficients(metric, x, y):
    """G^i at (x, y); a point outside the domain raises DomainError before
    any jet is seeded (the geodesic flow's veto)."""
    x, y = metric.check_state(x, y)
    return _assemble(metric, x, y, 2)["G"]


def nonlinear_connection(metric, x, y):
    x, y = metric.check_state(x, y)
    return _assemble(metric, x, y, 3)["N"]


def riemann_curvature(metric, x, y):
    """Mixed curvature tensor R^i_k at (x, y)."""
    x, y = metric.check_state(x, y)
    return _assemble(metric, x, y, 4)["R"]


def curvature_data(metric, x, y):
    """(F, g, R) at (x, y), sharing one jet evaluation."""
    x, y = metric.check_state(x, y)
    data = _assemble(metric, x, y, 4)
    return data["F"], data["g"], data["R"]


def _flag_values(g, R, y, V):
    """Flag curvatures K and sin^2 of the angle to y for every direction
    (row) of ``V`` at one state or a batch, each of shape ``(..., m)``."""
    g, R = g[..., None, :, :], R[..., None, :, :]
    rows, cols = V[:, None, :], V[:, :, None]
    yg = y[..., None, None, :] @ g
    gyy = (yg @ y[..., None, :, None])[..., 0, 0]
    vg = rows @ g
    gvv = (vg @ cols)[..., 0, 0]
    gyv = (yg @ cols)[..., 0, 0]
    denom = gyy * gvv - gyv * gyv
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_sq = denom / (gyy * gvv)
        K = (vg @ (R @ cols))[..., 0, 0] / denom
    return K, sin_sq


def flag_curvature(metric, x, y, v):
    """Flag curvature of span(y, v); rejects flags nearly parallel to y."""
    _, g, R = curvature_data(metric, x, y)
    K, sin_sq = _flag_values(g, R, np.asarray(y, dtype=float),
                             np.asarray(v, dtype=float)[None, :])
    if not sin_sq[0] >= MIN_FLAG_ANGLE**2:  # a zero v makes it nan
        raise DegenerateFlagError(
            f"flag direction within {MIN_FLAG_ANGLE} of y (sin^2 = {sin_sq[0]:.3e})"
        )
    return float(K[0])


def _flag_directions(n, flags):
    """The candidate flag directions: sampling's cached read-only array,
    drawn once per (n, flags) and shared by every caller."""
    return sampling._directions(3 * flags + 8, n)


def flag_spread(metric, x, y, flags=20):
    """Flag curvatures across ``flags`` transverse directions at one (x, y)."""
    flags = sampling.check_count(flags, 1, "flags")
    x, y = metric.check_state(x, y)
    data = _assemble(metric, x, y, 4)
    K, sin_sq = _flag_values(data["g"], data["R"], data["y"],
                             _flag_directions(metric.n, flags))
    return _spread(metric, K, sin_sq, flags)


def _spread(metric, K, sin_sq, flags):
    """:func:`flag_spread` of one state from its :func:`_flag_values`: the
    first ``flags`` directions not within MIN_FLAG_ANGLE of y."""
    vals = K[sin_sq >= MIN_FLAG_ANGLE**2][:flags].tolist()
    if not vals:
        raise DegenerateFlagError(
            f"{metric.name}: no flag direction transverse to y (n = {metric.n})")
    return {"values": vals, "min": min(vals), "max": max(vals),
            "spread": max(vals) - min(vals)}


def _einstein_constant(metric, lam):
    if lam is None:
        lam = metric.einstein_constant
    if lam is None:
        raise DomainError(f"{metric.name}: no Einstein constant given or stored")
    return lam


def _residual(metric, data, lam):
    """|Ric - (n-1) lam F^2| / F^2 from one order-4 assembly, per state."""
    f2 = data["F"] * data["F"]
    ric = np.trace(data["R"], axis1=-2, axis2=-1)
    return abs(ric - (metric.n - 1) * lam * f2) / f2


def einstein_residual(metric, x, y, lam=None):
    """|Ric - (n-1) lam F^2| / F^2 at one state."""
    lam = _einstein_constant(metric, lam)
    x, y = metric.check_state(x, y)
    return _residual(metric, _assemble(metric, x, y, 4), lam)


# one order-4 derivative tensor of an Einstein-campaign batch, B (2n)^4
# floats, stays under this many bytes: all 40 states of a campaign at
# n <= 3, 16 at n = 4 (as fast per state as 40, with a smaller peak)
BATCH_BYTES = 512 * 1024


def einstein_campaign(metric, count=50, lam=None, box=None, flags=0):
    """Max Einstein residual (and optional flag spreads) over Halton samples.

    The samples are assembled at order 4 in batches (see BATCH_BYTES); one
    assembly serves every sample's residual and flags, and each row equals
    :func:`einstein_residual` and :func:`flag_spread` at its sample.
    """
    lam = _einstein_constant(metric, lam)
    count = sampling.check_count(count, 1)
    flags = sampling.check_count(flags, 0, "flags")
    X, Y = metric.check_state(
        *(np.array(v) for v in zip(*sampling.state_pairs(metric, count, box=box))))
    V = _flag_directions(metric.n, flags) if flags else None
    step = max(1, BATCH_BYTES // (8 * (2 * metric.n) ** 4))
    rows = []
    for lo in range(0, count, step):
        data = _assemble(metric, X[lo:lo + step], Y[lo:lo + step], 4)
        residuals = _residual(metric, data, lam).tolist()
        if flags:
            K, sin_sq = _flag_values(data["g"], data["R"], data["y"], V)
        for i, (x, y) in enumerate(zip(data["x"].tolist(), data["y"].tolist())):
            rec = {"x": x, "y": y,
                   "einstein_residual": residuals[i]}
            if flags:
                sp = _spread(metric, K[i], sin_sq[i], flags)
                rec["flag_min"] = sp["min"]
                rec["flag_max"] = sp["max"]
            rows.append(rec)
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
    """Sampled strong-convexity audit of the fundamental tensor; a sample
    that raises a ``FinslerError`` is a failure, recorded by class."""
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
        except FinslerError as exc:  # a bad sample; any other error is a bug
            failures.append({"x": x.tolist(), "y": y.tolist(),
                             "error": str(exc), "error_class": type(exc).__name__})
    return {
        "metric": metric.name,
        "samples": budget,
        "passed": not failures,
        "worst_cond": float(worst_cond),
        "min_eig": float(min_eig),
        "failures": failures,
    }
