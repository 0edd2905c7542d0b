"""The Halton sampler: a table drawn once, equal to the scalar loop bit for bit."""

import numpy as np
import pytest

from finslerlab import geometry as geo, projective as pj, sampling, zoo
from finslerlab.errors import DomainError, NumericError
from finslerlab.metric import UnitBall

# the campaign workload's metrics (perfbench/workloads.py)
EINSTEIN = [(name, n) for n in (2, 3, 4)
            for name in ("klein", "funk-plus", "funk-minus", "spherical",
                         "bryant", "paraboloid")]
EINSTEIN += [(name, 2) for name in ("funk-ellipse-plus", "funk-ellipse-minus",
                                    "hilbert-ellipse")]
PAIRED = [(name, n) for n in (2, 3) for name in ("funk-plus", "funk-minus",
                                                 "klein")]


def _key_id(key):
    return f"{key[0]}-{key[1]}"


def _points_oracle(domain, count, box, offset=sampling.HALTON_OFFSET):
    """The former one-point-at-a-time ``points_in_domain``; returns the
    points, or the exception with the number of candidates tested."""
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    pts, i, tried = [], offset, 0
    while len(pts) < count:
        u = np.array([sampling.radical_inverse(i, sampling._PRIMES[c])
                      for c in range(lo.size)])
        x = lo + u * (hi - lo)
        if domain.contains(x):
            pts.append(x)
        i += 1
        tried += 1
        if tried > 1000 * count + 1000:
            return NumericError, tried
    return np.array(pts)


def _directions_oracle(count, n, offset=sampling.DIRECTION_OFFSET):
    """The former one-direction-at-a-time ``directions``."""
    dirs, i = [], offset
    while len(dirs) < count:
        u = np.array([sampling.radical_inverse(i, sampling._PRIMES[c])
                      for c in range(n)])
        v = 2.0 * u - 1.0
        r = np.linalg.norm(v)
        if r >= sampling.MIN_RAW_DIRECTION:
            dirs.append(v / r)
        i += 1
    return np.array(dirs)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _sub_box(box):
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    return lo + 0.1 * (hi - lo), lo + 0.6 * (hi - lo)


@pytest.mark.parametrize("offset", [-5, 20, 1234])
def test_halton_table_equals_radical_inverse_across_a_growth(offset):
    dim = len(sampling._PRIMES)
    sampling._TABLES.pop((dim, offset), None)
    first = sampling._halton_rows(dim, offset, sampling._BLOCK + 1)
    table = sampling._halton_rows(dim, offset, len(first) + 1)
    assert len(table) > len(first)  # the second call grew the table
    assert not table.flags.writeable
    for k, row in enumerate(table):
        expected = [sampling.radical_inverse(offset + k, base)
                    for base in sampling._PRIMES]
        assert _same_bits(row, expected), k


@pytest.mark.parametrize("key", EINSTEIN, ids=_key_id)
@pytest.mark.parametrize("sub", [False, True])
def test_state_pairs_equal_the_scalar_loop(key, sub):
    m = zoo.make_metric(*key)
    box = m.domain.sample_box()
    if sub:
        box = _sub_box(box)
    pairs = sampling.state_pairs(m, 40, box=box if sub else None)
    xs, ys = (np.array(v) for v in zip(*pairs))
    assert _same_bits(xs, _points_oracle(m.domain, 40, box))
    assert _same_bits(ys, _directions_oracle(40, m.n))


@pytest.mark.parametrize("key", PAIRED, ids=_key_id)
@pytest.mark.parametrize("count", [25, 40])
@pytest.mark.parametrize("sub", [False, True])
def test_joint_state_pairs_equal_the_scalar_loop(key, count, sub):
    euc, cand = zoo.euclidean(key[1]), zoo.make_metric(*key)
    lo = np.maximum(*(euc.domain.sample_box()[0], cand.domain.sample_box()[0]))
    hi = np.minimum(*(euc.domain.sample_box()[1], cand.domain.sample_box()[1]))
    box = _sub_box((lo, hi)) if sub else (lo, hi)
    pairs = sampling.joint_state_pairs(euc, cand, count,
                                       box=box if sub else None)
    xs, ys = (np.array(v) for v in zip(*pairs))
    joint = sampling._JointDomain(euc.domain, cand.domain)
    assert _same_bits(xs, _points_oracle(joint, count, box))
    assert _same_bits(ys, _directions_oracle(count, key[1]))


class _Counting:
    """A domain that accepts only the candidates (1-based) in ``accept``."""

    def __init__(self, accept=()):
        self.accept, self.calls = set(accept), 0

    def contains(self, x):
        self.calls += 1
        return self.calls in self.accept


@pytest.mark.parametrize("count, accept", [
    (2, ()),  # nothing accepted: gives up after 3001 candidates
    (2, (5, 3000)),  # the last point is the last candidate allowed
    (2, (5, 3001)),  # one candidate too late: still refused
    (1, (1700, 1999)),
])
def test_rejection_limit_gives_up_at_the_same_candidate(count, accept):
    box = ([0.0, 0.0], [1.0, 1.0])
    old, new = _Counting(accept), _Counting(accept)
    expected = _points_oracle(old, count, box)
    if isinstance(expected, tuple):
        with pytest.raises(NumericError, match="rejection rate"):
            sampling.points_in_domain(new, count, box=box)
        assert new.calls == old.calls == expected[1]
    else:
        assert _same_bits(sampling.points_in_domain(new, count, box=box),
                          expected)
        assert new.calls == old.calls


def test_directions_are_writable_copies_of_one_draw():
    V = sampling.directions(12, 3)
    assert V.flags.writeable
    V[...] = 0.0
    W = sampling.directions(12, 3)
    assert W is not V
    assert _same_bits(W, _directions_oracle(12, 3))
    # the geometry's shared flag directions stay read-only
    assert not geo._flag_directions(3, 2).flags.writeable


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sampling.directions(3, 17), id="17-dim-directions"),
    pytest.param(lambda: sampling.points_in_domain(
        UnitBall(17), 3, box=(-0.1 * np.ones(17), 0.1 * np.ones(17))),
        id="17-dim-box"),  # there are 16 Halton bases
    pytest.param(lambda: sampling.points_in_domain(
        UnitBall(2), 3, box=([0.0, 0.0], [0.1, 0.1, 0.1])),
        id="corners-of-two-lengths"),
    pytest.param(lambda: sampling.points_in_domain(
        UnitBall(2), 3, box=([0, 0], [1, 1], [2, 2])), id="three-corners"),
    pytest.param(lambda: sampling.state_pairs(
        zoo.klein(2), 3, box=([0, 0], [1, 1], [2, 2])),
        id="state-pairs-three-corners"),
    pytest.param(lambda: sampling.state_pairs(
        zoo.klein(2), 3, box=([0, 0, 0], [0.1, 0.1, 0.1])),
        id="box-of-the-wrong-dimension"),
    pytest.param(lambda: sampling.joint_state_pairs(
        zoo.euclidean(2), zoo.klein(3), 3), id="metrics-of-two-dimensions"),
    pytest.param(lambda: sampling.points_in_domain(UnitBall(2), -1),
                 id="negative-count"),
    pytest.param(lambda: sampling.directions(2.5, 2), id="directions-2.5"),
    pytest.param(lambda: pj.projective_campaign(
        zoo.euclidean(), zoo.funk_ball(1), 2.5), id="projective-2.5"),
    pytest.param(lambda: pj.fit_einstein_constants(
        zoo.euclidean(), zoo.funk_ball(1), 2.5), id="fit-2.5"),
    pytest.param(lambda: geo.einstein_campaign(zoo.klein(), 2.5),
                 id="einstein-2.5"),
    pytest.param(lambda: geo.einstein_campaign(zoo.klein(), "3"),
                 id="einstein-string"),
])
def test_sampler_arguments_fail_with_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_an_integer_like_count_is_accepted():
    m = zoo.klein()
    rep = geo.einstein_campaign(m, np.int64(3))
    assert rep["samples"] == 3 and len(rep["rows"]) == 3
