"""One-state ring programs: ``jets.jet_of`` records each F once per jet
context and replays its steps on later one-state calls. A replayed jet
equals F over live jets bit for bit, every base test raises where F's
would, a base-value read keeps F live, the module-level patch points see
every replayed call, and a discarded F frees its programs."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import _kernels, geometry as geo, jets as jr, zoo
from finslerlab.errors import DomainError, JetError
from finslerlab.metric import FinslerMetric, FullSpace, dot, norm_sq

ORDERS = (1, 2, 3, 4)
CAPS = (None, 2)
CONTEXTS = {jr.get_context(2 * n, order, x_degree=cap) for n in (2, 3, 4)
            for order in ORDERS for cap in CAPS}


def _recordable(name, n):
    if name.startswith("scaled-"):
        return zoo.scaled(zoo.make_metric(name[7:], n), 0.5)
    return zoo.make_metric(name, n)


# (name, n): each catalog F that reads no base value, and two scaled ones
RECORDABLE = [(name, n) for name in ("euclidean", "klein", "hilbert-ball",
                                     "spherical", "bryant", "paraboloid",
                                     "scaled-klein", "scaled-bryant")
              for n in (2, 3, 4)] + [("hilbert-ellipse", 2),
                                     ("scaled-hilbert-ellipse", 2)]
METRICS = {key: _recordable(*key) for key in RECORDABLE}


def _live(f, x, y, order, x_degree=None):
    """F over the plain jets that ``jet_of`` seeds, without its program."""
    zs = jr.seed_variables(x, y, order, x_degree=x_degree)
    n = len(zs) // 2
    return f(zs[:n], zs[n:])


def _outcome(call):
    """A jet's bytes, ``hi`` and ``vs``, or the class and message of the
    error it raised."""
    try:
        jet = call()
    except JetError as exc:
        return type(exc), str(exc)
    assert type(jet) is jr.Jet
    return jet.coeffs.tobytes(), jet.hi, jet.vs


def _programs(f):
    """F's programs by context: a replay, or None where F runs live."""
    return {ctx: ctx.programs[f] for ctx in CONTEXTS if f in ctx.programs}


def _state(metric, data):
    """A point of ``metric``'s sample box inside its domain and a direction."""
    lo, hi = metric.domain.sample_box()
    unit = st.floats(0.0, 1.0)
    x = lo + np.array(data.draw(st.lists(unit, min_size=metric.n,
                                         max_size=metric.n))) * (hi - lo)
    if not metric.domain.contains(x):
        x = 0.5 * (lo + hi)
    y = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=metric.n,
                                    max_size=metric.n)))
    return x, (y if np.abs(y).max() > 1e-3 else np.ones(metric.n))


@pytest.mark.parametrize("key", RECORDABLE, ids=[f"{k}-{n}" for k, n in RECORDABLE])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_replayed_jet_equals_f_over_live_jets_bit_for_bit(key, data):
    m = METRICS[key]
    x, y = _state(m, data)
    for order in ORDERS:
        for cap in CAPS:
            ctx = jr.get_context(2 * m.n, order, x_degree=cap)
            if ctx not in _programs(m.F):
                jr.jet_of(m.F, *_state(m, data), order, x_degree=cap)
            assert _programs(m.F)[ctx] is not None  # recorded, not live
            assert (_outcome(lambda: jr.jet_of(m.F, x, y, order, x_degree=cap))
                    == _outcome(lambda: _live(m.F, x, y, order, cap)))


@pytest.mark.parametrize("name, n", [("klein", 3), ("bryant", 2),
                                     ("hilbert-ellipse", 2)])
def test_one_state_sprays_and_curvature_equal_a_live_batch_of_one(name, n):
    m = zoo.make_metric(name, n)
    counted = []

    def F(x, y):
        counted.append(jr.is_jet(x[0]))
        return m.F(x, y)

    metric = FinslerMetric(n, F, m.domain, name)
    x, y = (np.array(v[:n]) for v in ([0.3, -0.2, 0.1], [0.6, 0.8, -0.2]))
    for call in (geo.spray_coefficients, geo.riemann_curvature):
        batch = call(metric, x[None], y[None])
        calls = len(counted)
        assert np.array_equal(batch[0], call(metric, x, y))  # records
        assert np.array_equal(batch[0], call(metric, x, y))  # replays
        assert len(counted) == calls + 1
        call(metric, x[None], y[None])
        assert len(counted) == calls + 2  # a batch runs F every time


def _where(x, y):
    return jr.where(True, norm_sq(y), 1.0)


def _base_value(x, y):
    yy = norm_sq(y)
    return yy * (2.0 if jr.base_value(yy) > 0.0 else 1.0)


def _value(x, y):
    yy = norm_sq(y)
    return yy * 1.0 if yy.value > 0.0 else yy


LIVE = {
    "funk-plus": lambda: zoo.funk_ball(1, 2),
    "funk-minus": lambda: zoo.funk_ball(-1, 3),
    "funk-ellipse-plus": lambda: zoo.make_metric("funk-ellipse-plus"),
    "funk-ellipse-minus": lambda: zoo.make_metric("funk-ellipse-minus"),
    "funk-body": lambda: zoo.funk_body_metric(zoo.ellipsoid_body((2.0, 1.0))),
    "hilbert-general": lambda: zoo.hilbert_general(zoo.ball_body(2)),
    "where": lambda: FinslerMetric(2, _where, FullSpace(2), "where"),
    "base-value": lambda: FinslerMetric(2, _base_value, FullSpace(2), "base"),
    "value": lambda: FinslerMetric(2, _value, FullSpace(2), "value"),
}


@pytest.mark.parametrize("name", LIVE)
def test_an_f_that_reads_a_base_value_runs_live_on_every_call(name):
    m = LIVE[name]()
    calls = []

    def F(x, y):
        calls.append(None)
        return m.F(x, y)

    x, y = (np.array([0.2, -0.1, 0.1][:m.n]), np.array([0.6, 0.8, 0.3][:m.n]))
    for k in range(4):
        got = jr.jet_of(F, x, y, 2)
        assert _outcome(lambda: got) == _outcome(lambda: _live(m.F, x, y, 2))
        assert len(calls) == k + 1
    assert list(_programs(F).values()) == [None]


def test_a_recordable_f_runs_once_per_context():
    m, calls = zoo.klein(2), []

    def F(x, y):
        calls.append(None)
        return m.F(x, y)

    states = [([0.1 * k, -0.2], [0.6, 0.8 - 0.1 * k]) for k in range(5)]
    for order in (2, 4):
        for cap in CAPS:
            for x, y in states:
                jr.jet_of(F, x, y, order, x_degree=cap)
    # order 2 is its own x_degree-2 context: three contexts in all
    assert len(calls) == len(_programs(F)) == 3


# F, a state it records at, a state where its base test fails, the error
FAULTS = {
    "zero-base-reciprocal": (
        lambda x, y: y[0] / (x[0] - x[1]), ([0.5, 2.0], [0.5, 0.5]),
        ([0.5, 0.5], [1.0, 1.0]), "division by a jet of zero base, got 0.0"),
    "non-positive-power-base": (
        lambda x, y: jr.sqrt(x[0] * y[1]), ([0.5, 2.0], [0.5, 0.5]),
        ([-0.5, 2.0], [1.0, 0.5]), "power(0.5) needs a positive base, got -0.25"),
    "taylor-term-past-the-float-range": (
        lambda x, y: jr.exp(x[1] * y[0] * y[0]), ([0.5, 2.0], [0.5, 0.5]),
        ([0.5, 2.0], [20.0, 1.0]),
        "Taylor terms at base value 800.0 leave the float range"),
}


@pytest.mark.parametrize("name", FAULTS)
def test_the_replay_raises_the_error_that_f_raises_at_the_same_state(name):
    f, good, bad, message = FAULTS[name]
    jr.jet_of(f, *good, 2)  # records
    assert _programs(f)[jr.get_context(4, 2)] is not None
    with pytest.raises(JetError) as live:
        _live(f, *bad, 2)
    with pytest.raises(JetError) as replay:
        jr.jet_of(f, *bad, 2)
    assert str(replay.value) == str(live.value) == message
    # and the program stays
    assert _outcome(lambda: jr.jet_of(f, *good, 2)) == _outcome(
        lambda: _live(f, *good, 2))


def test_an_error_inside_f_while_it_records_propagates_and_stores_nothing():
    m = zoo.make_metric("hilbert-ellipse")
    x, y = [0.1, 0.2, 0.3], [1.0, 0.0, 0.0]
    with pytest.raises(DomainError, match="expected 2 coordinates") as live:
        _live(m.F, x, y, 2)
    for _ in range(2):
        with pytest.raises(DomainError) as recording:
            jr.jet_of(m.F, x, y, 2)
        assert str(recording.value) == str(live.value)
    assert jr.get_context(6, 2) not in _programs(m.F)


def _counting(monkeypatch, owner, name, seen):
    original = getattr(owner, name)

    def counted(*args):
        seen[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_a_patched_kernel_compose_or_term_sees_every_replayed_call(monkeypatch):
    m = zoo.make_metric("bryant", 3)
    x, y = np.array([0.3, -0.2, 0.1]), np.array([0.6, 0.8, -0.2])
    jr.jet_of(m.F, x, y, 4, x_degree=2)  # records before the patches
    seen = dict.fromkeys(("multiply", "_compose", "_terms"), 0)
    _counting(monkeypatch, _kernels, "multiply", seen)
    _counting(monkeypatch, jr, "_compose", seen)
    _counting(monkeypatch, jr, "_terms", seen)
    live = _live(m.F, x, y, 4, 2)
    counts = dict(seen)
    replay = jr.jet_of(m.F, x, y, 4, x_degree=2)
    assert {k: v - counts[k] for k, v in seen.items()} == counts
    assert min(counts.values()) > 0
    assert replay.coeffs.tobytes() == live.coeffs.tobytes()
    # a spoiled kernel spoils the replay too
    monkeypatch.setattr(_kernels, "multiply", lambda *args: np.full(
        args[-1], math.nan))
    assert np.isnan(jr.jet_of(m.F, x, y, 4, x_degree=2).coeffs).all()


def test_a_discarded_metric_leaves_no_program_behind():
    m = zoo.klein(3)
    jr.jet_of(m.F, [0.1, 0.2, 0.3], [1.0, 0.0, 0.0], 2)
    (program,) = _programs(m.F).values()
    refs = weakref.ref(m.F), weakref.ref(program)
    del m, program
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_plain_constant_jet_and_integer_powers_are_replayed():
    def F(x, y):
        c = jr.constant(x[0].ctx, 2.0)
        return (c * y[0] ** 3 + y[1] ** -2 + 3.0 / x[0] - (1.0 - x[1]) / 4.0
                + (-dot(x, y)) * 0.5 + jr.log(jr.cosh(x[1])) + jr.sin(y[0])
                + jr.cos(x[0]) * jr.sinh(y[1]) + x[0] ** 2.5)

    for order in ORDERS:
        jr.jet_of(F, [0.5, 0.3], [0.7, -0.4], order)
        assert _programs(F)[jr.get_context(4, order)] is not None
        assert (_outcome(lambda: jr.jet_of(F, [0.4, 0.2], [0.6, -0.5], order))
                == _outcome(lambda: _live(F, [0.4, 0.2], [0.6, -0.5], order)))


def test_a_plain_jet_of_the_context_is_a_constant_of_the_program():
    other = jr.variables([0.1, 0.2, 0.3, 0.4], 2)  # no state of F's
    f = lambda x, y: y[0] + other[0] * y[1] + other[1]
    jr.jet_of(f, [0.5, 0.3], [0.7, -0.4], 2)
    assert _programs(f)[jr.get_context(4, 2)] is not None
    assert (_outcome(lambda: jr.jet_of(f, [0.4, 0.2], [0.6, -0.5], 2))
            == _outcome(lambda: _live(f, [0.4, 0.2], [0.6, -0.5], 2)))


def test_a_batch_shaped_scalar_or_a_recording_of_another_tape_sends_f_live():
    def batch(x, y):
        return y[0] * np.array([1.0, 2.0])

    def nested(x, y):  # the inner F reads the outer F's jet y[1]
        return y[0] * jr.jet_of(lambda u, v: u[0] * y[1], [0.5, 0.5],
                                [1.0, 1.0], 2)

    for f in (batch, nested):
        for x, y in (([0.5, 0.3], [0.7, -0.4]), ([0.4, 0.2], [0.6, -0.5])):
            assert (_outcome(lambda: jr.jet_of(f, x, y, 2))
                    == _outcome(lambda: _live(f, x, y, 2)))
        assert list(_programs(f).values()) == [None]
