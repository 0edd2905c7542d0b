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
"""

import numpy as np

from . import jets as jr
from . import sampling
from .errors import DomainError, NotProjectivelyRelatedError
from .geometry import _assemble, _dot, _matvec, _vecmat, riemann_curvature

DECISION_TOL = 1e-6
FACTOR_TOL = 1e-7  # spray deviation that refutes G_cand = G + P y


def covariant_derivative(base, f, x, y):
    """Horizontal derivative f_{;k} of a ring-generic scalar f(x, y)."""
    x, y = base.check_state(x, y)
    data = _assemble(base, x, y, 3)
    n = base.n
    T = jr.derivative_tensors(jr.jet_of(f, data["x"], data["y"], 1), 1)[1]
    return T[:n] - data["N"].T @ T[n:]


def rapcsak_residual(base, cand, x, y):
    """Projective-relatedness defect of the candidate against the base spray.

    Returns the raw residual covector and its norm divided by the candidate
    value; zero (to tolerance) exactly when the candidate's geodesics trace
    the base geodesics. ``(B, n)`` stacks of x and y give one entry per
    state.
    """
    n = base.n
    x, y = base.check_state(x, y)
    data = _assemble(base, x, y, 2)
    f_val, T1, T2 = jr.derivative_tensors(cand.value_jet(x, y, 2), 2)
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
    count = sampling.check_count(count, 1)
    pairs = sampling.joint_state_pairs(base, cand, count, box=box)
    return (np.array(v) for v in zip(*pairs))


def projective_campaign(base, cand, count=40, box=None):
    """Max normalized flatness residual over deterministic samples, all
    evaluated as one batch."""
    X, Y = _stacked_pairs(base, cand, count, box)
    rows = rapcsak_residual(base, cand, X, Y)["normalized"].tolist()
    return {
        "base": base.name,
        "cand": cand.name,
        "samples": count,
        "max_normalized_residual": max(rows),
        "values": rows,
    }


def projective_factor(base, cand, x, y):
    """Projective factor P at (x, y), with a spray-level consistency check.

    Verifies G_cand = G_base + P y; when the deviation (relative to the
    spray scale) exceeds FACTOR_TOL, raises NotProjectivelyRelatedError.
    """
    x, y = base.check_state(x, y)
    cand.check_state(x, y)
    base_data = _assemble(base, x, y, 2)
    cand_data = _assemble(cand, x, y, 2)
    n = base.n
    f_val, T1 = jr.derivative_tensors(jr.jet_of(cand.F, x, y, 1), 1)
    u = float(T1[:n] @ y) - 2.0 * float(base_data["G"] @ T1[n:])
    P = u / (2.0 * f_val)
    G, Gc = base_data["G"], cand_data["G"]
    scale = max(1.0, float(np.max(np.abs(G))), float(np.max(np.abs(Gc))))
    dev = float(np.max(np.abs(Gc - G - P * y))) / scale
    if dev > FACTOR_TOL:
        raise NotProjectivelyRelatedError(
            f"{cand.name} vs {base.name}: spray deviation {dev:.3e} > "
            f"{FACTOR_TOL:g}"
        )
    return {"P": P, "deviation": dev, "G_base": G, "G_cand": Gc}


def xi_and_tau(base, cand, x, y):
    """Projective factor P with its curvature-transport scalars Xi and tau.

    P is rebuilt as an order-2 jet in the full chart ring so that its
    horizontal derivative and the y-gradient of Xi come out exactly.
    ``(B, n)`` stacks of x and y give one entry per state.
    """
    n = base.n
    x, y = base.check_state(x, y)
    data = _assemble(base, x, y, 4)
    N, Gyy = data["N"], data["Gyy"]

    j3 = cand.value_jet(x, y, 3)
    ctx2 = jr.get_context(2 * n, 2)
    fx = [jr.jet_partial(j3, k) for k in range(n)]
    fy = [jr.jet_partial(j3, n + m) for m in range(n)]
    G_jets = [
        jr.jet_from_tensors(ctx2, data["G"][..., m],
                            [data["dG"][..., :, m], data["d2G"][..., :, :, m]])
        for m in range(n)
    ]

    def u(_, ys):  # f_{x^k} y^k - 2 G^m f_{y^m} over the chart ring
        acc = fx[0] * ys[0]
        for k in range(1, n):
            acc = acc + fx[k] * ys[k]
        for m in range(n):
            acc = acc - 2.0 * G_jets[m] * fy[m]
        return acc

    P_jet = jr.jet_of(u, x, y, 2) / (2.0 * jr.truncate(j3, 2))

    P0, dP, d2P = jr.derivative_tensors(P_jet, 2)
    Px, Py = dP[..., :n], dP[..., n:]
    P_cov = Px - _vecmat(Py, N)
    Xi = P0 * P0 - _dot(P_cov, y)
    # d(P_{;m})/dy^k, including the connection's own y-derivative
    dP_cov = (
        d2P[..., :n, n:]
        - np.einsum("...jmk,...j->...mk", Gyy, Py)
        - np.einsum("...jm,...jk->...mk", N, d2P[..., n:, n:])
    )
    p0 = np.asarray(P0)[..., None]
    dXi = 2.0 * p0 * Py - (_vecmat(y, dP_cov) + P_cov)
    tau = 3.0 * (P_cov - p0 * Py) + dXi
    return {"P": P0, "P_cov": P_cov, "Xi": Xi, "dXi_dy": dXi, "tau": tau}


def curvature_transform_check(base, cand, x, y):
    """Compare the candidate curvature against the transported base curvature.

    Both sides are computed independently: the left from the candidate
    metric alone, the right from the base curvature plus (Xi, tau) of the
    projective factor. Also checks the traced (Ricci) form.
    """
    n = base.n
    R_cand = riemann_curvature(cand, x, y)
    R_base = riemann_curvature(base, x, y)
    info = xi_and_tau(base, cand, x, y)
    y = np.asarray(y, dtype=float)
    pred = R_base + info["Xi"] * np.eye(n) + np.outer(y, info["tau"])
    scale = max(
        1e-300,
        float(np.max(np.abs(R_cand))),
        float(np.max(np.abs(pred))),
    )
    defect = float(np.max(np.abs(R_cand - pred))) / scale
    ric_cand = float(np.trace(R_cand))
    ric_pred = float(np.trace(R_base)) + (n - 1) * info["Xi"]
    ric_scale = max(1e-300, abs(ric_cand), abs(ric_pred))
    return {
        "defect": defect,
        "ricci_defect": abs(ric_cand - ric_pred) / ric_scale,
        "Xi": info["Xi"],
        "tau": info["tau"],
        "P": info["P"],
        "R_cand": R_cand,
        "R_pred": pred,
    }


def funk_condition_residual(cand, mu, x, y, base=None):
    """Defect of the eikonal-type condition f_{;k} = mu * d(f^2)/dy^k.

    With no base the horizontal derivative is the plain x-gradient. The
    residual is normalized by f^2, so a metric genuinely satisfying the
    condition at constant mu scores ~0 and violators score order one.
    """
    n = cand.n
    f_val, T1 = jr.derivative_tensors(cand.value_jet(x, y, 1), 1)
    if base is None:
        f_cov = T1[:n]
    else:
        x, y = base.check_state(x, y)
        f_cov = T1[:n] - _assemble(base, x, y, 3)["N"].T @ T1[n:]
    vec = f_cov - 2.0 * mu * f_val * T1[n:]
    return float(np.linalg.norm(vec)) / f_val**2


def einstein_transfer_residual(base, cand, lam, lam_tilde, x, y):
    """Defect of Xi = lam_tilde * F_cand^2 - lam * F_base^2 at one state."""
    info = xi_and_tau(base, cand, x, y)
    f = base(x, y)
    ft = cand(x, y)
    pred = lam_tilde * ft * ft - lam * f * f
    scale = max(1e-300, abs(lam_tilde) * ft * ft + abs(lam) * f * f, abs(info["Xi"]))
    return abs(info["Xi"] - pred) / scale


def fit_einstein_constants(base, cand, count=25, box=None):
    """Least-squares (lam, lam_tilde) from Xi = lam_tilde F_cand^2 - lam F^2.

    A diagnostic, not a decision procedure: the fit is meaningful only when
    the pair is projectively related and both metrics are Einstein. The
    samples' Xi come from one batched :func:`xi_and_tau`; a design of rank
    below 2 (too few, or too alike, samples) raises DomainError.
    """
    X, Y = _stacked_pairs(base, cand, count, box)
    rhs = xi_and_tau(base, cand, X, Y)["Xi"]
    A = np.empty((count, 2))
    for i, (x, y) in enumerate(zip(X, Y)):
        f = base(x, y)
        ft = cand(x, y)
        A[i] = (ft * ft, -(f * f))
    if np.linalg.matrix_rank(A) < 2:
        raise DomainError(
            f"{cand.name} vs {base.name}: {count} samples do not determine "
            f"two Einstein constants")
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = float(np.max(np.abs(A @ sol - rhs)))
    return {"lambda_tilde": float(sol[0]), "lambda": float(sol[1]),
            "max_residual": resid, "samples": count}
