"""Batched-jet benchmark: kernel, order-4 assembly, campaigns, batched criteria.

Times, on fixed inputs, the layers that a campaign pushes its states
through, and writes each row's median and interquartile range over its
reps to ``BENCH_batch.json`` under a label:

  kernel.<vars>v_o<order>.B<b>   ``_kernels.multiply`` of two random
                                 jets in <vars> variables at <order>,
                                 per state, for b = 1 (one state, shape
                                 ``(n_terms,)``) and stacks of b states;
                                 ``products`` is the table's entries and
                                 ``chunk_states`` how many states one
                                 kernel call takes
  assemble_o4.<metric>.n<n>.B<b>  ``geometry._assemble`` at order 4, per
                                 state, for b = 1 and the batch that
                                 ``einstein_campaign`` uses for 40 states;
                                 every (metric, n) of the ``campaign``
                                 workload's Einstein operations
  state_pairs.<metric>.n<n>      ``sampling.state_pairs`` of 40 states
                                 on the default sampling box, for the
                                 same (metric, n)
  einstein_campaign.<metric>.n<n>  ``einstein_campaign`` with 40 states
                                 and 8 flags (the ``curvature`` command's
                                 defaults) on the default sampling box;
                                 the row ``einstein_campaign.all`` is
                                 their sum, rep by rep
  check_state.<metric>.B<b>      ``FinslerMetric.check_state`` on one
                                 state (b = 1) and on a (40, 2) stack,
                                 for klein, funk-ellipse-plus and
                                 paraboloid at n = 2; the row times
                                 ``CHECK_CALLS`` calls and
                                 ``us_per_call`` is one
  check_minkowski.<metric>       ``geometry.check_minkowski`` at its
                                 default budget of 100 states, for the
                                 same three metrics at n = 2
  projective_campaign, fit_einstein_constants  euclidean -> funk-plus,
                                 n = 2, at their defaults (40, 25 states)
  xi_and_tau.n<n>                ``projective.xi_and_tau`` euclidean ->
                                 funk-plus on a batch of 25 joint states
                                 (the fit's default), per state, n = 2..4
  criterion_<k>                  ``acceptance.criterion_k()`` wall time
                                 and ``worst`` for the campaign criteria
                                 k = 1, 3, 4 and 5

The assembly, state-pair, campaign, ``check_minkowski``, projective and
``xi_and_tau`` rows carry ``products``: the table entries the kernel runs
per state (counted in an untimed call, so the parent's full tables show
as such).

Every row is timed by ``_bench.alternated``: each rep runs in a fresh
process, on the parent checkout and on this one in turn with
``--parent``; a per-call row's rep is the median of
``_bench.WORKER_REPS`` calls after a warm-up call. Run from the
repository root:

    python benchmarks/bench_batch.py --label change --parent ../parent
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import REPS, median_call  # noqa: E402

OUT = _bench.REPO / "BENCH_batch.json"
STATES, FLAGS = 40, 8  # the curvature command's defaults
FIT_STATES = 25  # fit_einstein_constants's default
KERNEL_TABLES = ((4, 2), (8, 2), (4, 4), (6, 4), (8, 4))
KERNEL_BATCHES = (1, 5, 16, 40)
# the campaign workload's Einstein operations (perfbench/workloads.py)
EINSTEIN = [(name, n) for n in (2, 3, 4)
            for name in ("klein", "funk-plus", "funk-minus", "spherical",
                         "bryant", "paraboloid")]
EINSTEIN += [(name, 2) for name in ("funk-ellipse-plus", "funk-ellipse-minus",
                                    "hilbert-ellipse")]
CAMPAIGNS = [f"einstein_campaign.{name}.n{n}" for name, n in EINSTEIN]
CHECK_METRICS = ("klein", "funk-ellipse-plus", "paraboloid")
CHECK_CALLS = 200


def metric(name, n):
    from finslerlab import zoo

    return zoo.make_metric(name, n)


def states(name, n):
    """The metric ``name`` in dimension ``n`` and STATES states of its
    default sampling box as (STATES, n) stacks."""
    from finslerlab import sampling

    m = metric(name, n)
    X, Y = (np.array(v) for v in zip(*sampling.state_pairs(m, STATES)))
    return m, X, Y


def campaign(name, n):
    """The call of row ``einstein_campaign.<name>.n<n>``."""
    from finslerlab import geometry as geo

    m = metric(name, n)
    return lambda: geo.einstein_campaign(m, STATES, flags=FLAGS)


def campaign_total(rows):
    """Add row ``einstein_campaign.all``: each rep's sum over the campaign
    rows."""
    reps_s = np.sum([rows[name]["reps_s"] for name in CAMPAIGNS], axis=0)
    rows["einstein_campaign.all"] = dict(_bench.summarize(reps_s),
                                         reps_s=reps_s.tolist())


def _kernel(n_vars, order, b):
    from finslerlab import _kernels, jets as jr

    ctx = jr.get_context(n_vars, order)
    tables = (ctx.mul_i, ctx.mul_j, ctx.mul_k, ctx.n_terms)
    rng = np.random.default_rng([n_vars, order, b])
    u, v = rng.standard_normal((2, b, ctx.n_terms) if b > 1 else (2, ctx.n_terms))
    products = int(ctx.mul_i.shape[0])
    return {"s": median_call(lambda: _kernels.multiply(u, v, *tables), b),
            "products": products,
            "chunk_states": max(1, _kernels.CHUNK_PRODUCTS // products)}


def _assemble(name, n, b):
    from finslerlab import geometry as geo

    m, X, Y = states(name, n)
    xs, ys = (X[0], Y[0]) if b == 1 else (X[:b], Y[:b])
    return lambda: geo._assemble(m, xs, ys, 4)


def _state_pairs(name, n):
    from finslerlab import sampling

    m = metric(name, n)
    return lambda: sampling.state_pairs(m, STATES)


def _check_state(name, b):
    m, X, Y = states(name, 2)
    xs, ys = (X[0], Y[0]) if b == 1 else (X, Y)
    return _bench.per_call(lambda: m.check_state(xs, ys), CHECK_CALLS)


def _check_minkowski(name):
    from finslerlab import geometry as geo

    m = metric(name, 2)
    return lambda: geo.check_minkowski(m)


def _projective(fn_name, n=2):
    """``projective.<fn_name>`` euclidean -> funk-plus in dimension ``n``,
    ``xi_and_tau`` on FIT_STATES joint states."""
    from finslerlab import projective as pj, sampling, zoo

    args = (zoo.euclidean(n), zoo.funk_ball(1, n))
    if fn_name == "xi_and_tau":
        args += tuple(np.array(v) for v in zip(*sampling.joint_state_pairs(
            *args, FIT_STATES)))
    fn = {"projective_campaign": pj.projective_campaign, "xi_and_tau":
          pj.xi_and_tau, "fit_einstein_constants": pj.fit_einstein_constants}[fn_name]
    return lambda: fn(*args)


def rows(tree):
    from finslerlab import geometry as geo

    table = {}
    for n_vars, order in KERNEL_TABLES:
        for b in KERNEL_BATCHES:
            table[f"kernel.{n_vars}v_o{order}.B{b}"] = (
                REPS, partial(_kernel, n_vars, order, b))
    for name, n in EINSTEIN:
        for b in (1, min(STATES, geo.BATCH_BYTES // (8 * (2 * n) ** 4))):
            table[f"assemble_o4.{name}.n{n}.B{b}"] = (
                REPS, partial(_bench.row, _assemble, name, n, b, per=b))
        table[f"state_pairs.{name}.n{n}"] = (
            REPS, partial(_bench.row, _state_pairs, name, n))
        table[f"einstein_campaign.{name}.n{n}"] = (
            REPS, partial(_bench.row, campaign, name, n))
    for name in CHECK_METRICS:
        for b in (1, STATES):
            table[f"check_state.{name}.B{b}"] = (
                REPS, partial(_check_state, name, b))
        table[f"check_minkowski.{name}"] = (
            REPS, partial(_bench.row, _check_minkowski, name))
    for fn_name in ("projective_campaign", "fit_einstein_constants"):
        table[fn_name] = (REPS, partial(_bench.row, _projective, fn_name))
    for n in (2, 3, 4):
        table[f"xi_and_tau.n{n}"] = (REPS, partial(
            _bench.row, _projective, "xi_and_tau", n, per=FIT_STATES))
    table.update(_bench.suite((1, 3, 4, 5)))
    return table


if __name__ == "__main__":
    _bench.run(__doc__, __file__, OUT, rows, campaign_total)
