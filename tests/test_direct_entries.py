"""The spray's direct numpy entries: LAPACK's eigvalsh and inv gufuncs in
``geometry`` and bincount's C function in ``_kernels`` give what
``np.linalg.eigvalsh``, ``np.linalg.inv`` and ``np.bincount`` give, bit
for bit, on every catalog metric, for one state and for a batch."""

import numpy as np
import pytest

from finslerlab import _kernels, geometry as geo, sampling, zoo

FIXED_2D = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
            "hilbert-superellipse")
KEYS = [(name, n) for name in zoo.METRIC_NAMES
        for n in ((2,) if name in FIXED_2D else (2, 3, 4))]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name, n", KEYS, ids=[f"{k}-n{n}" for k, n in KEYS])
def test_direct_entries_equal_the_numpy_wrappers(name, n, monkeypatch):
    metric = zoo.make_metric(name, n)
    seen = {"eigvalsh": 0, "inv": 0, "bincount": 0}
    convexity, metric_block = geo._convexity, geo._metric_block
    bincount = _kernels._bincount

    def checked_convexity(D2, n):
        g, eigs, bad = convexity(D2, n)
        assert _same(eigs, np.linalg.eigvalsh(g))
        seen["eigvalsh"] += 1
        return g, eigs, bad

    def checked_metric_block(metric, tensors):
        g, ginv = metric_block(metric, tensors)
        assert _same(ginv, np.linalg.inv(g))
        seen["inv"] += 1
        return g, ginv

    def checked_bincount(mul_k, weights, size):
        out = bincount(mul_k, weights, size)
        assert _same(out, np.bincount(mul_k, weights=weights, minlength=size))
        seen["bincount"] += 1
        return out

    monkeypatch.setattr(geo, "_convexity", checked_convexity)
    monkeypatch.setattr(geo, "_metric_block", checked_metric_block)
    monkeypatch.setattr(_kernels, "_bincount", checked_bincount)
    X, Y = (np.array(v) for v in zip(*sampling.state_pairs(metric, 5)))
    for x, y in ((X[0], Y[0]), (X, Y)):  # one state, then a batch
        for order in (2, 4):
            geo._assemble(metric, x, y, order)
    assert seen["eigvalsh"] == seen["inv"] == 4 and seen["bincount"] > 0
