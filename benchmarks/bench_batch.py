"""Batched-jet benchmark: kernel, order-4 assembly, campaigns, criteria, tier-1.

Times, on fixed inputs, the layers that a campaign pushes its states
through, and writes the median and interquartile range over the
repetitions to ``BENCH_batch.json`` under a label:

  kernel.<vars>v_o<order>.B<b>   ``_kernels.multiply`` of two random
                                 jets in <vars> variables at <order>,
                                 per state, for b = 1 (one state, shape
                                 ``(n_terms,)``) and stacks of b states;
                                 ``chunk_states`` is how many states one
                                 kernel call takes
  assemble_o4.<metric>.n<n>.B<b> ``geometry._assemble`` at order 4, per
                                 state, for b = 1 and the batch that
                                 ``einstein_campaign`` uses for 40 states;
                                 every (metric, n) of the ``campaign``
                                 workload's Einstein operations
  state_pairs.<metric>.n<n>      ``sampling.state_pairs`` of 40 states
                                 on the default sampling box, for the
                                 same (metric, n)
  einstein_campaign.<metric>.n<n>  ``einstein_campaign`` with 40 states
                                 and 8 flags (the ``curvature`` command's
                                 defaults) on the default sampling box
  einstein_campaign.all          the sum of those over all (metric, n)
  check_state.<metric>.B<b>      ``FinslerMetric.check_state`` on one
                                 state (b = 1) and on a (40, 2) stack,
                                 for klein, funk-ellipse-plus and
                                 paraboloid at n = 2; the row times
                                 ``CHECK_CALLS`` calls and
                                 ``us_per_call`` is one
  check_minkowski.<metric>       ``geometry.check_minkowski`` at its
                                 default budget of 100 states, for the
                                 same three metrics at n = 2
  projective_campaign, fit_einstein_constants   euclidean -> funk-plus,
                                 n = 2, at their defaults (40, 25 states)
  xi_and_tau.n<n>                ``projective.xi_and_tau`` euclidean ->
                                 funk-plus on a batch of 25 joint states
                                 (the fit's default), per state, n = 2..4
  criterion_<k>                  ``acceptance.criterion_k()`` wall time
                                 and ``worst`` for k = 1, 2 and the
                                 batched criteria 3, 4, 5 and 9
  tier1                          the tier-1 suite wall time

Batched rows need a tree whose ``_assemble`` takes ``(B, n)`` stacks;
on another tree only the one-state rows are written. The file records the
Python and numpy versions, numpy's BLAS and LAPACK libraries and the
kernel backend. Run from the repository
root:

    python benchmarks/bench_batch.py --label parent --tree ../parent
    python benchmarks/bench_batch.py --label change --parent ../parent

``--tree`` names the checkout whose ``src/`` (and, for the tier-1 row,
``tests/``) is measured; rows of other labels already in the output file
are kept. With ``--parent`` the ``einstein_campaign`` rows are timed on
the parent checkout and this one in turn, rep by rep in fresh processes
(``_bench.alternated``, through the worker of ``bench_jets.py``, which
times the same call), and replace their namesakes under ``parent``.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import summarize, timed  # noqa: E402

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


def per_state(samples, states):
    return {k: v / states if k.endswith("_s") else v
            for k, v in summarize(samples).items()}


def campaign_totals(parent_rows, rows):
    """Add the ``einstein_campaign.all`` rows of two ``_bench.alternated``
    runs: each rep's sum over the campaign rows, with ``paired`` on
    ``rows``."""
    totals = [np.sum([out[name]["reps_s"] for name in CAMPAIGNS], axis=0)
              for out in (parent_rows, rows)]
    parent_rows["einstein_campaign.all"] = summarize(totals[0])
    rows["einstein_campaign.all"] = dict(summarize(totals[1]),
                                         paired=_bench.paired(*totals))


def main(argv=None):
    label, tree, parent, _ = _bench.arguments(__doc__, argv, paired=True)

    from finslerlab import _kernels, geometry as geo, jets as jr
    from finslerlab import projective as pj, sampling, zoo

    batched = hasattr(geo, "BATCH_BYTES")
    rng = np.random.default_rng(0)
    rows = {}

    for n_vars, order in KERNEL_TABLES:
        ctx = jr.get_context(n_vars, order)
        tables = (ctx.mul_i, ctx.mul_j, ctx.mul_k, ctx.n_terms)
        for b in KERNEL_BATCHES if batched else (1,):
            shape = (ctx.n_terms,) if b == 1 else (b, ctx.n_terms)
            u, v = rng.standard_normal(shape), rng.standard_normal(shape)
            row = per_state(timed(lambda: _kernels.multiply(u, v, *tables)),
                            b)
            row["products"] = int(ctx.mul_i.shape[0])
            row["chunk_states"] = max(1, _kernels.CHUNK_PRODUCTS
                                      // ctx.mul_i.shape[0]) if batched else 1
            rows[f"kernel.{n_vars}v_o{order}.B{b}"] = row

    campaign_total = []
    for name, n in EINSTEIN:
        m = zoo.make_metric(name, n)
        X, Y = (np.array(v) for v in zip(*sampling.state_pairs(m, STATES)))
        sizes = [1]
        if batched:
            sizes.append(min(STATES, geo.BATCH_BYTES // (8 * (2 * n) ** 4)))
        for b in sizes:
            xs, ys = (X[0], Y[0]) if b == 1 else (X[:b], Y[:b])
            rows[f"assemble_o4.{name}.n{n}.B{b}"] = per_state(
                timed(lambda: geo._assemble(m, xs, ys, 4)), b)
        rows[f"state_pairs.{name}.n{n}"] = summarize(
            timed(lambda: sampling.state_pairs(m, STATES)))
        if not parent:
            times = timed(lambda: geo.einstein_campaign(m, STATES, flags=FLAGS))
            rows[f"einstein_campaign.{name}.n{n}"] = summarize(times)
            campaign_total.append(times)
    if parent:
        runs = _bench.alternated(Path(__file__).parent / "bench_jets.py",
                                 {"parent": parent, label: tree}, CAMPAIGNS)
        rows.update(runs[label])
        campaign_totals(runs["parent"], rows)
    else:
        rows["einstein_campaign.all"] = summarize(np.sum(campaign_total, axis=0))

    for name in CHECK_METRICS:
        m = zoo.make_metric(name, 2)
        X, Y = (np.array(v) for v in zip(*sampling.state_pairs(m, STATES)))
        for b in (1, STATES):
            xs, ys = (X[0], Y[0]) if b == 1 else (X, Y)
            rows[f"check_state.{name}.B{b}"] = _bench.per_call(
                lambda: m.check_state(xs, ys), CHECK_CALLS)
        rows[f"check_minkowski.{name}"] = summarize(
            timed(lambda: geo.check_minkowski(m)))

    euc, fp = zoo.euclidean(2), zoo.funk_ball(1, 2)
    rows["projective_campaign"] = summarize(
        timed(lambda: pj.projective_campaign(euc, fp)))
    rows["fit_einstein_constants"] = summarize(
        timed(lambda: pj.fit_einstein_constants(euc, fp)))
    for n in (2, 3, 4):
        euc_n, fp_n = zoo.euclidean(n), zoo.funk_ball(1, n)
        X, Y = (np.array(v) for v in zip(*sampling.joint_state_pairs(
            euc_n, fp_n, FIT_STATES)))
        rows[f"xi_and_tau.n{n}"] = per_state(
            timed(lambda: pj.xi_and_tau(euc_n, fp_n, X, Y)), FIT_STATES)

    rows.update(_bench.criteria((1, 2, 3, 4, 5, 9)))
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(summarize(times), **info)
    if parent:
        _bench.write(OUT, "parent", runs["parent"], parent, width=40,
                     merge=True)
    _bench.write(OUT, label, rows, tree, width=40)


if __name__ == "__main__":
    main()
