"""Projective relatedness: residuals, factors, and the transport law."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import geometry as geo, jets as jr, projective as pj, zoo
from finslerlab.errors import DomainError, NotProjectivelyRelatedError
from finslerlab.metric import FinslerMetric, FullSpace, dot

X = np.array([0.31, -0.22])
Y = np.array([0.62, 0.81])


def _warped():
    # conformal stretch of the euclidean norm; bends geodesics
    return FinslerMetric(2, lambda x, y: jr.exp(x[0]) * jr.sqrt(dot(y, y)),
                         FullSpace(2), name="warped")


def test_flatness_residual_vanishes_on_the_catalog():
    euc = zoo.euclidean()
    for m in (zoo.klein(), zoo.funk_ball(1), zoo.funk_ball(-1),
              zoo.hilbert_ball(), zoo.spherical(), zoo.bryant(0.7)):
        r = pj.rapcsak_residual(euc, m, X, Y)
        assert r["normalized"] < 1e-13, m.name


def test_flatness_residual_detects_bent_geodesics():
    # frozen anchor: at x = 0, y = e2 the residual vector is exactly (-1, 0)
    r = pj.rapcsak_residual(zoo.euclidean(), _warped(), np.zeros(2),
                            np.array([0.0, 1.0]))
    assert np.allclose(r["residual"], [-1.0, 0.0], atol=1e-12)
    assert r["normalized"] == pytest.approx(1.0, abs=1e-12)


def test_campaign_decides_both_ways():
    euc = zoo.euclidean()
    good = pj.projective_campaign(euc, zoo.funk_ball(1), count=15)
    assert good["max_normalized_residual"] < 1e-13
    bad = pj.projective_campaign(euc, _warped(), count=15)
    assert bad["max_normalized_residual"] > 1e-2


def test_campaign_samples_the_joint_domain():
    rep = pj.projective_campaign(zoo.klein(), zoo.spherical(), count=15)
    assert rep["max_normalized_residual"] < 1e-13


def test_projective_factor_closed_forms():
    euc = zoo.euclidean()
    fp, fm, hb = zoo.funk_ball(1), zoo.funk_ball(-1), zoo.hilbert_ball()
    vp, vm = fp(X, Y), fm(X, Y)
    assert pj.projective_factor(euc, fp, X, Y)["P"] == pytest.approx(
        0.5 * vp, rel=1e-12)
    assert pj.projective_factor(euc, fm, X, Y)["P"] == pytest.approx(
        -0.5 * vm, rel=1e-12)
    assert pj.projective_factor(euc, hb, X, Y)["P"] == pytest.approx(
        0.5 * (vp - vm), rel=1e-12)


def test_projective_factor_rejects_unrelated_pairs():
    with pytest.raises(NotProjectivelyRelatedError):
        pj.projective_factor(zoo.euclidean(), _warped(), X, Y)


def test_xi_and_tau_funk_closed_forms():
    euc, fp = zoo.euclidean(), zoo.funk_ball(1)
    info = pj.xi_and_tau(euc, fp, X, Y)
    f = fp(X, Y)
    assert info["P"] == pytest.approx(0.5 * f, rel=1e-12)
    assert info["Xi"] == pytest.approx(-0.25 * f * f, rel=1e-11)
    jet = jr.jet_of(fp.F, X, Y, 1)
    fy = np.array([jr.extract_derivative(jet, [0, 0, 1, 0]),
                   jr.extract_derivative(jet, [0, 0, 0, 1])])
    assert np.allclose(info["tau"], 0.25 * f * fy, atol=1e-10)


def test_curvature_transform_flat_base():
    chk = pj.curvature_transform_check(zoo.euclidean(), zoo.funk_ball(1),
                                       X, Y)
    assert chk["defect"] < 1e-12
    assert chk["ricci_defect"] < 1e-12


def test_curvature_transform_curved_base():
    chk = pj.curvature_transform_check(zoo.klein(), zoo.spherical(), X, Y)
    assert chk["defect"] < 1e-12
    assert chk["ricci_defect"] < 1e-12
    # scalar identity: Xi = lamt F~^2 - lam F^2 for this einstein pair
    pred = zoo.spherical()(X, Y) ** 2 + zoo.klein()(X, Y) ** 2
    assert chk["Xi"] == pytest.approx(pred, rel=1e-12)


@pytest.mark.parametrize("base", [zoo.klein(), zoo.funk_ball(1), zoo.spherical()],
                         ids=lambda m: m.name)
def test_curvature_transform_flat_candidate(base):
    # R_cand and R_pred are both rounding noise here; |R_base| is order one
    chk = pj.curvature_transform_check(base, zoo.euclidean(), X, Y)
    assert np.max(np.abs(chk["R_pred"])) < 1e-14
    assert chk["defect"] < 1e-12
    assert chk["ricci_defect"] < 1e-12


FIXED_2D = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
            "hilbert-superellipse")


@lru_cache(maxsize=None)
def _metric(name, n):
    return zoo.make_metric(name, dim=n)


def _joint_states(base, cand, count, seed):
    """``count`` points inside both domains and both sample boxes (as
    :func:`sampling.joint_state_pairs` draws them) and unit directions."""
    rng = np.random.default_rng(seed)
    (lo_b, hi_b), (lo_c, hi_c) = base.domain.sample_box(), cand.domain.sample_box()
    lo, hi = np.maximum(lo_b, lo_c), np.minimum(hi_b, hi_c)
    xs = []
    while len(xs) < count:
        x = lo + rng.random(base.n) * (hi - lo)
        if base.domain.contains(x) and cand.domain.contains(x):
            xs.append(x)
    ys = rng.standard_normal((count, base.n))
    return np.array(xs), ys / np.linalg.norm(ys, axis=1, keepdims=True)


def _pairs(n):
    names = st.sampled_from([m for m in zoo.METRIC_NAMES
                             if n == 2 or m not in FIXED_2D])
    return st.tuples(names, names, st.just(n))


# every catalog metric is projectively flat and Einstein, so every pair of
# them is projectively related with Xi = lamt F~^2 - lam F^2
catalog_pairs = st.integers(2, 4).flatmap(_pairs)


@settings(max_examples=30, deadline=None)
@given(pair=catalog_pairs | st.sampled_from(
           [("klein", "euclidean", 3), ("spherical", "euclidean", 4),
            ("hilbert-ellipse", "euclidean", 2)]),
       count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batched_transport_scalars_satisfy_both_identities(pair, count, seed):
    base, cand = _metric(pair[0], pair[2]), _metric(pair[1], pair[2])
    X, Y = _joint_states(base, cand, count, seed)
    info = pj.xi_and_tau(base, cand, X, Y)
    Xi = info["Xi"]
    # R_cand = R + Xi Id + y (x) tau, relative to the largest term
    terms = (geo.riemann_curvature(cand, X, Y), info["R_base"],
             Xi[:, None, None] * np.eye(base.n), Y[:, :, None] * info["tau"][:, None, :])
    pred = terms[1] + terms[2] + terms[3]
    scale = np.max([np.max(np.abs(t), axis=(1, 2)) for t in terms], axis=0)
    assert np.all(np.max(np.abs(terms[0] - pred), axis=(1, 2)) <= 1e-10 * scale)
    # Xi = lamt F~^2 - lam F^2
    f2 = np.array([base(x, y) ** 2 for x, y in zip(X, Y)])
    ft2 = np.array([cand(x, y) ** 2 for x, y in zip(X, Y)])
    lam, lamt = base.einstein_constant, cand.einstein_constant
    xi_scale = np.maximum.reduce([abs(lamt) * ft2, abs(lam) * f2, np.abs(Xi)])
    assert np.all(np.abs(Xi - (lamt * ft2 - lam * f2)) <= 1e-10 * xi_scale)


def test_funk_condition_residual_decides():
    fp, fm, kl = zoo.funk_ball(1), zoo.funk_ball(-1), zoo.klein()
    assert pj.funk_condition_residual(fp, 0.5, X, Y) < 1e-13
    assert pj.funk_condition_residual(fm, -0.5, X, Y) < 1e-13
    assert pj.funk_condition_residual(fp, -0.5, X, Y) > 1e-2
    assert pj.funk_condition_residual(kl, 0.5, X, Y) > 1e-2


def test_einstein_transfer_residual():
    # klein -> spherical: Xi = lam_tilde F~^2 - lam F^2 with (lam, lam_tilde)
    # = (-1, 1), at one state
    kl, sp = zoo.klein(), zoo.spherical()
    xi = pj.xi_and_tau(kl, sp, X, Y)["Xi"]
    f, ft = kl(X, Y), sp(X, Y)
    assert xi == pytest.approx(ft * ft + f * f, rel=1e-12)


def test_fit_einstein_constants_recovers_the_pair():
    fit = pj.fit_einstein_constants(zoo.euclidean(), zoo.funk_ball(1),
                                    count=10)
    assert fit["lambda"] == pytest.approx(0.0, abs=1e-12)
    assert fit["lambda_tilde"] == pytest.approx(-0.25, abs=1e-12)
    assert fit["max_residual"] < 1e-12


def test_campaign_arguments_fail_with_domain_error():
    euc, fp = zoo.euclidean(), zoo.funk_ball(1)
    with pytest.raises(DomainError, match="count >= 1"):
        pj.projective_campaign(euc, fp, 0)
    with pytest.raises(DomainError, match="count >= 1"):
        pj.fit_einstein_constants(euc, fp, 0)
    # one equation cannot fix two constants: a min-norm solve would report
    # lambda_tilde = -0.164, lambda = 0.119 instead of -0.25 and 0
    with pytest.raises(DomainError, match="do not determine"):
        pj.fit_einstein_constants(euc, fp, 1)
