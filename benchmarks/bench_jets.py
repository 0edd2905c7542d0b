"""Jet-product benchmark: span-aware products, _compose, assembly, campaigns.

Times, on fixed inputs, the jet products that the degree and variable
spans of their factors cut down, and the layers above them, and writes
the median and interquartile range over the repetitions to
``BENCH_jets.json`` under a label:

  product.<kind>.<vars>v_o<order>.B<b>   one jet product, per state, for
                                 kind ``var_var`` (two seeded variables),
                                 ``deg2_deg2`` (the sum of squares of the
                                 first half of the variables times that of
                                 the second half) and ``full_full`` (square
                                 roots of 1 plus those, of full degree span)
  compose.<vars>v_o<order>.B<b>  ``jets.sqrt`` of the first sum of squares:
                                 one ``_compose`` of ``order`` Horner steps
  assemble_o<order>.<metric>.n<n>.B<b>   ``geometry._assemble`` at order
                                 2 and 4, per state, on klein and
                                 funk-plus at n = 2, 3, 4 (4, 6 and 8
                                 variables)
  einstein_campaign.<metric>.n<n>  ``einstein_campaign`` with 40 states
                                 and 8 flags on the default sampling box,
                                 over every (metric, n) of the ``campaign``
                                 workload's Einstein operations
  einstein_campaign.all          the sum of those, rep by rep
  criterion_1, criterion_2, criterion_10
                                 ``acceptance.criterion_k()`` wall time
  verify_all, tier1              ``finslerlab verify-all`` and the tier-1
                                 suite in a subprocess

Products, compose and assembly rows run at orders 2 and 4 in 4, 6 and 8
variables, for b = 1 (one state) and stacks of b = 40 states. Each of
them carries ``products``: the table entries the kernel runs per state
(counted in an untimed call, so the parent's full tables show as such).
Run from the repository root:

    python benchmarks/bench_jets.py --label parent --tree ../parent
    python benchmarks/bench_jets.py --label change --parent ../parent

With ``--parent`` the product, compose and Einstein-campaign rows are
timed by ``_bench.alternated``: each rep of a row runs in a fresh process
on the parent checkout and on this one in turn, the row's value being the
median of ``WORKER_REPS`` calls after a warm-up call. Those rows replace
their namesakes under the ``parent`` label, and the change's carry
``paired``, the median per-rep ratio to the parent and the reps it won.
"""

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import summarize, timed  # noqa: E402
from bench_batch import (CAMPAIGNS, EINSTEIN, FLAGS, STATES,  # noqa: E402
                         campaign_totals, per_state)

OUT = _bench.REPO / "BENCH_jets.json"
ORDERS = (2, 4)
VARS = (4, 6, 8)
BATCHES = (1, 40)
ASSEMBLE_METRICS = ("klein", "funk-plus")
WORKER_REPS = 3  # timed calls in one process of an alternated row


def counting_products(kernels, call):
    """Table entries ``call()`` runs through ``kernels.multiply``."""
    multiply, count = kernels.multiply, [0]

    def counted(a, b, mul_i, mul_j, mul_k, n_terms):
        count[0] += mul_i.shape[0]
        return multiply(a, b, mul_i, mul_j, mul_k, n_terms)

    kernels.multiply = counted
    try:
        call()
    finally:
        kernels.multiply = multiply
    return count[0]


def _squares(zs):
    total = zs[0] * zs[0]
    for z in zs[1:]:
        total = total + z * z
    return total


def _product(kind, order, n_vars, b):
    """The call of a product row (or, for kind ``compose``, of a compose
    row) on its fixed inputs."""
    from finslerlab import jets as jr

    rng = np.random.default_rng([order, n_vars, b])
    zs = jr.variables(rng.uniform(0.2, 0.8, (n_vars,) if b == 1
                                  else (b, n_vars)), order)
    p, q = _squares(zs[:n_vars // 2]), _squares(zs[n_vars // 2:])
    if kind == "compose":
        return lambda: jr.sqrt(p)
    u, v = {"var_var": (zs[0], zs[1]), "deg2_deg2": (p, q),
            "full_full": (jr.sqrt(1.0 + p), jr.sqrt(1.0 + q))}[kind]
    return lambda: u * v


def _assemble(order, name, n, b):
    from finslerlab import geometry as geo, sampling, zoo

    m = zoo.make_metric(name, n)
    X, Y = (np.array(v) for v in zip(*sampling.state_pairs(m, max(BATCHES))))
    xs, ys = (X[0], Y[0]) if b == 1 else (X[:b], Y[:b])
    return lambda: geo._assemble(m, xs, ys, order)


def _campaign(name, n):
    from finslerlab import geometry as geo, zoo

    m = zoo.make_metric(name, n)
    return lambda: geo.einstein_campaign(m, STATES, flags=FLAGS)


def cases():
    """Row name -> (states per call, builder of the row's call), in row
    order, for every per-call row."""
    rows = {}
    for order in ORDERS:
        for n_vars in VARS:
            for b in BATCHES:
                tag = f"{n_vars}v_o{order}.B{b}"
                for kind in ("var_var", "deg2_deg2", "full_full"):
                    rows[f"product.{kind}.{tag}"] = (
                        b, partial(_product, kind, order, n_vars, b))
                rows[f"compose.{tag}"] = (
                    b, partial(_product, "compose", order, n_vars, b))
    for order in ORDERS:
        for name in ASSEMBLE_METRICS:
            for n in (2, 3, 4):
                for b in BATCHES:
                    rows[f"assemble_o{order}.{name}.n{n}.B{b}"] = (
                        b, partial(_assemble, order, name, n, b))
    for name, n in EINSTEIN:
        rows[f"einstein_campaign.{name}.n{n}"] = (1, partial(_campaign, name, n))
    return rows


def alternates(name):
    """Whether ``--parent`` times the row ``name`` by ``_bench.alternated``."""
    return name.startswith(("product.", "compose.", "einstein_campaign."))


def main(argv=None):
    label, tree, parent, worker = _bench.arguments(__doc__, argv, paired=True)

    from finslerlab import _kernels

    if worker:
        states, build = cases()[worker]
        call = build()
        print(json.dumps({"s": float(np.median(timed(call, WORKER_REPS))) / states,
                          "products": counting_products(_kernels, call)}))
        return
    rows, times = {}, {}
    for name, (states, build) in cases().items():
        if parent and alternates(name):
            continue
        call = build()
        times[name] = timed(call)
        rows[name] = dict(per_state(times[name], states),
                          products=counting_products(_kernels, call))
    if parent:
        runs = _bench.alternated(__file__, {"parent": parent, label: tree},
                                 [name for name in cases() if alternates(name)])
        rows.update(runs[label])
        campaign_totals(runs["parent"], rows)
    else:
        rows["einstein_campaign.all"] = summarize(
            np.sum([times[name] for name in CAMPAIGNS], axis=0))

    rows.update(_bench.criteria((1, 2, 10)))
    times, info = _bench.verify_all(tree)
    rows["verify_all"] = dict(summarize(times), **info)
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(summarize(times), **info)
    if parent:
        _bench.write(OUT, "parent", runs["parent"], parent, width=40,
                     merge=True)
    _bench.write(OUT, label, rows, tree, width=40)


if __name__ == "__main__":
    main()
