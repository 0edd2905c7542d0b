"""Pointwise projective relations between a base spray and a candidate.

Two metrics are projectively related when their geodesics agree as point
sets, i.e. the sprays differ by a multiple of the tautological field,
G_cand = G + P y. Everything here works against a base connection:

    f_{;k}   = df/dx^k - N^m_k df/dy^m                (horizontal derivative)
    res_l    = d(f_{;k} y^k)/dy^l - 2 f_{;l}           (flatness test for f)
    P        = f_{;k} y^k / (2 f)                      (projective factor)
    Xi       = P^2 - P_{;k} y^k
    tau_k    = 3 (P_{;k} - P dP/dy^k) + dXi/dy^k
    R_cand   = R + Xi Id + y (x) tau                   (curvature transport)

The expanded flatness residual cancels the connection terms and only needs
the base spray:

    res_l = f_{x^k y^l} y^k - f_{x^l} - 2 G^m f_{y^m y^l}

Every function of (x, y) takes one state or ``(B, n)`` stacks, and gives
one entry per state, equal to the one-state result bit for bit.
"""

import numpy as np

from . import errors
from . import jets as jr
from . import sampling
from .errors import DomainError, NotProjectivelyRelatedError
from .geometry import (_T, _assemble, _dot, _matvec, _vecmat,
                       riemann_curvature)
from .metric import as_metric

DECISION_TOL = 1e-6
FACTOR_TOL = 1e-7  # spray deviation that refutes G_cand = G + P y


def rapcsak_residual(base, cand, x, y):
    """Projective-relatedness defect of the candidate against the base spray.

    Returns the raw residual covector and its norm divided by the candidate
    value; zero (to tolerance) exactly when the candidate's geodesics trace
    the base geodesics.
    """
    n = as_metric(base).n
    x, y = base.check_state(x, y)
    data = _assemble(base, x, y, 2)
    f_val, T1, T2 = jr.derivative_tensors(
        jr.jet_of(cand.F, *as_metric(cand).check_state(x, y), 2))
    res = (_vecmat(y, T2[..., :n, n:]) - T1[..., :n]
           - 2.0 * _matvec(T2[..., n:, n:], data["G"]))
    norm = np.sqrt(_dot(res, res))
    return {
        "residual": res,
        "norm": norm,
        "normalized": norm / f_val,
        "F_cand": f_val,
    }


def _stacked_pairs(base, cand, count, box):
    """The joint state pairs of a campaign as (B, n) stacks X, Y."""
    count = errors.count(count, 1, "count")
    return sampling._stacked(
        sampling.joint_state_pairs(base, cand, count, box=box))


def projective_campaign(base, cand, count=40, box=None):
    """Max normalized flatness residual over deterministic samples, all
    evaluated as one batch."""
    X, Y = _stacked_pairs(base, cand, count, box)
    rows = rapcsak_residual(base, cand, X, Y)["normalized"].tolist()
    return {
        "base": base.name,
        "cand": cand.name,
        "samples": count,
        "max_normalized_residual": errors.worst(rows),
        "values": rows,
    }


def projective_factor(base, cand, x, y):
    """Projective factor P at (x, y), with a spray-level consistency check.

    Verifies G_cand = G_base + P y, passing only when the deviation (relative
    to the spray scale) is <= FACTOR_TOL; else NotProjectivelyRelatedError.
    """
    x, y = as_metric(cand).check_state(*as_metric(base).check_state(x, y))
    base_data = _assemble(base, x, y, 2)
    cand_data = _assemble(cand, x, y, 2)
    n = base.n
    f_val, T1 = jr.derivative_tensors(jr.jet_of(cand.F, x, y, 1))
    u = _dot(T1[..., :n], y) - 2.0 * _dot(base_data["G"], T1[..., n:])
    P = u / (2.0 * f_val)
    G, Gc = base_data["G"], cand_data["G"]
    scale = np.maximum(1.0, np.maximum(np.abs(G).max(-1), np.abs(Gc).max(-1)))
    dev = np.abs(Gc - G - P[..., None] * y).max(-1) / scale
    hit = errors.first_bad(~(dev <= FACTOR_TOL), dev)
    if hit:
        raise NotProjectivelyRelatedError(
            f"{cand.name} vs {base.name}: spray deviation {hit[0]:.3e} not <= "
            f"{FACTOR_TOL:g}{hit[1]}"
        )
    return {"P": P, "deviation": dev, "G_base": G, "G_cand": Gc}


def xi_and_tau(base, cand, x, y):
    """Projective factor P with its curvature-transport scalars Xi and tau.

    P = u / (2 f) with u = f_{x^k} y^k - 2 G^m f_{y^m}. Its chart gradient
    and its (chart, y) second derivatives follow from the candidate's
    derivative tensors to order 3 and the base spray's G, dG and the
    y-columns of d2G by the product and quotient rules. ``R_base`` is the
    base curvature of the same assembly.
    """
    n = as_metric(base).n
    x, y = as_metric(cand).check_state(*base.check_state(x, y))
    data = _assemble(base, x, y, 4)
    G, dG, N, Gyy = data["G"], data["dG"], data["N"], data["Gyy"]
    # d2u reads T3 with at most two x-derivatives, as _assemble its D4
    f, T1, T2, T3 = jr.derivative_tensors(
        jr.jet_of(cand.F, x, y, 3, x_degree=2))
    fx, fy = T1[..., :n], T1[..., n:]

    u = _dot(fx, y) - 2.0 * _dot(G, fy)
    du = (_vecmat(y, T2[..., :n, :])
          - 2.0 * (_matvec(dG, fy) + _vecmat(G, T2[..., n:, :])))
    du[..., n:] += fx
    # d2u[mu, k] = d2u/dz^mu dy^k
    d2u = (np.einsum("...jmk,...j->...mk", T3[..., :n, :, n:], y)
           + _T(T2[..., :n, :])
           - 2.0 * (_matvec(data["d2G"], fy[..., None, :])
                    + dG @ T2[..., n:, n:]
                    + _T(dG[..., n:, :] @ T2[..., n:, :])
                    + np.einsum("...jmk,...j->...mk", T3[..., n:, :, n:], G)))
    d2u[..., n:, :] += T2[..., :n, n:]

    # quotient rule for P = u / w, w = 2 f
    P0 = u / (2.0 * f)
    p0, w = np.asarray(P0)[..., None], np.asarray(2.0 * f)[..., None]
    dw = 2.0 * T1
    dP = (du - p0 * dw) / w
    Py = dP[..., n:]
    d2P = (d2u - 2.0 * p0[..., None] * T2[..., :, n:]
           - dw[..., :, None] * Py[..., None, :]
           - dP[..., :, None] * dw[..., None, n:]) / w[..., None]

    P_cov = dP[..., :n] - _vecmat(Py, N)
    Xi = P0 * P0 - _dot(P_cov, y)
    # d(P_{;m})/dy^k, including the connection's own y-derivative
    dP_cov = (
        d2P[..., :n, :]
        - np.einsum("...jmk,...j->...mk", Gyy, Py)
        - np.einsum("...jm,...jk->...mk", N, d2P[..., n:, :])
    )
    dXi = 2.0 * p0 * Py - (_vecmat(y, dP_cov) + P_cov)
    tau = 3.0 * (P_cov - p0 * Py) + dXi
    return {"P": P0, "P_cov": P_cov, "Xi": Xi, "dXi_dy": dXi, "tau": tau,
            "R_base": data["R"]}


def curvature_transform_check(base, cand, x, y):
    """Compare the candidate curvature against the transported base curvature.

    Both sides are computed independently: the left from the candidate
    metric alone, the right from the base curvature plus (Xi, tau) of the
    projective factor. Also checks the traced (Ricci) form. Each defect is
    relative to the largest term of its identity, so a flat side (R of
    rounding size) does not inflate it.
    """
    n = as_metric(base).n
    R_cand = riemann_curvature(cand, x, y)
    info = xi_and_tau(base, cand, x, y)
    R_base, Xi, tau = info["R_base"], info["Xi"], info["tau"]
    y = np.asarray(y, dtype=float)
    terms = (R_cand, R_base, Xi[..., None, None] * np.eye(n),
             y[..., :, None] * tau[..., None, :])
    pred = R_base + terms[2] + terms[3]
    scale = np.max([np.abs(t).max(axis=(-2, -1)) for t in terms], axis=0)
    traces = [np.trace(t, axis1=-2, axis2=-1) for t in terms]
    ric_scale = np.max(np.abs(traces), axis=0)
    return {
        "defect": (np.abs(R_cand - pred).max(axis=(-2, -1))
                   / np.maximum(1e-300, scale)),
        "ricci_defect": (abs(traces[0] - (traces[1] + (n - 1) * Xi))
                         / np.maximum(1e-300, ric_scale)),
        "Xi": Xi,
        "tau": tau,
        "P": info["P"],
        "R_cand": R_cand,
        "R_pred": pred,
    }


def funk_condition_residual(cand, mu, x, y):
    """Defect of the eikonal-type condition f_{x^k} = mu * d(f^2)/dy^k.

    The condition reads the plain x-gradient of f. The residual is
    normalized by f^2, so a metric genuinely satisfying the condition at
    constant mu scores ~0 and violators score order one.
    """
    n, mu = as_metric(cand).n, errors.real(mu, "mu")
    f_val, T1 = jr.derivative_tensors(
        jr.jet_of(cand.F, *cand.check_state(x, y), 1))
    vec = T1[..., :n] - 2.0 * mu * f_val[..., None] * T1[..., n:]
    return np.sqrt(_dot(vec, vec)) / f_val**2


def fit_einstein_constants(base, cand, count=25, box=None):
    """Least-squares (lam, lam_tilde) from Xi = lam_tilde F_cand^2 - lam F^2.

    A diagnostic, not a decision procedure: the fit is meaningful only when
    the pair is projectively related and both metrics are Einstein. The
    samples' Xi come from one batched :func:`xi_and_tau`; a design of rank
    below 2 (too few, or too alike, samples) raises DomainError.
    """
    X, Y = _stacked_pairs(base, cand, count, box)
    rhs = xi_and_tau(base, cand, X, Y)["Xi"]
    f, ft = base(X, Y), cand(X, Y)
    A = np.stack([ft * ft, -(f * f)], axis=1)
    if np.linalg.matrix_rank(A) < 2:
        raise DomainError(
            f"{cand.name} vs {base.name}: {count} samples do not determine "
            f"two Einstein constants")
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = float(np.max(np.abs(A @ sol - rhs)))
    return {"lambda_tilde": float(sol[0]), "lambda": float(sol[1]),
            "max_residual": resid, "samples": count}
