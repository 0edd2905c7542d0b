"""Jet-product benchmark: degree-aware products, _compose, assembly, campaigns.

Times, on fixed inputs, the jet products that the degree spans of their
factors cut down, and the layers above them, and writes the median and
interquartile range over the repetitions to ``BENCH_jets.json`` under a
label:

  product.<kind>.<vars>v_o<order>.B<b>   one jet product, per state, for
                                 kind ``var_var`` (two seeded variables),
                                 ``deg2_deg2`` (two sums of squares of
                                 variables) and ``full_full`` (two square
                                 roots of those, of full degree span)
  compose.<vars>v_o<order>.B<b>  ``jets.sqrt`` of a sum of squares: one
                                 ``_compose`` of ``order`` Horner steps
  assemble_o<order>.<metric>.n<n>.B<b>   ``geometry._assemble`` at order
                                 2 and 4, per state, on klein and
                                 funk-plus at n = 2, 3, 4 (4, 6 and 8
                                 variables)
  einstein_campaign.<metric>.n<n>  ``einstein_campaign`` with 40 states
                                 and 8 flags on the default sampling box,
                                 over every (metric, n) of the ``campaign``
                                 workload's Einstein operations
  einstein_campaign.all          the sum of those
  criterion_1, criterion_2, criterion_10
                                 ``acceptance.criterion_k()`` wall time
  verify_all, tier1              ``finslerlab verify-all`` and the tier-1
                                 suite in a subprocess

Products, compose and assembly rows run at orders 2 and 4 in 4, 6 and 8
variables, for b = 1 (one state) and stacks of b = 40 states. Each of
them carries ``products``: the table entries the kernel runs per state
(counted in an untimed call, so the parent's full tables show as such).
Run from the repository root:

    python benchmarks/bench_jets.py --label change
    python benchmarks/bench_jets.py --label parent --tree ../parent
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from _bench import summarize, timed  # noqa: E402
from bench_batch import EINSTEIN, FLAGS, STATES, per_state  # noqa: E402

OUT = _bench.REPO / "BENCH_jets.json"
ORDERS = (2, 4)
VARS = (4, 6, 8)
BATCHES = (1, 40)
ASSEMBLE_METRICS = ("klein", "funk-plus")


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


def main(argv=None):
    label, tree = _bench.arguments(__doc__, argv)

    from finslerlab import _kernels, geometry as geo, jets as jr
    from finslerlab import sampling, zoo

    rng = np.random.default_rng(0)
    rows = {}

    def row(name, call, states):
        rows[name] = dict(per_state(timed(call), states),
                          products=counting_products(_kernels, call))

    for order in ORDERS:
        for n_vars in VARS:
            for b in BATCHES:
                shape = (n_vars,) if b == 1 else (b, n_vars)
                zs = jr.variables(rng.uniform(0.2, 0.8, shape), order)
                half = n_vars // 2
                p = zs[0] * zs[0]
                for z in zs[1:half]:
                    p = p + z * z
                q = zs[half] * zs[half]
                for z in zs[half + 1:]:
                    q = q + z * z
                fp, fq = jr.sqrt(1.0 + p), jr.sqrt(1.0 + q)
                tag = f"{n_vars}v_o{order}.B{b}"
                row(f"product.var_var.{tag}", lambda: zs[0] * zs[1], b)
                row(f"product.deg2_deg2.{tag}", lambda: p * q, b)
                row(f"product.full_full.{tag}", lambda: fp * fq, b)
                row(f"compose.{tag}", lambda: jr.sqrt(p), b)

    for order in ORDERS:
        for name in ASSEMBLE_METRICS:
            for n in (2, 3, 4):
                m = zoo.make_metric(name, n)
                X, Y = (np.array(v) for v in
                        zip(*sampling.state_pairs(m, max(BATCHES))))
                for b in BATCHES:
                    xs, ys = (X[0], Y[0]) if b == 1 else (X[:b], Y[:b])
                    row(f"assemble_o{order}.{name}.n{n}.B{b}",
                        lambda: geo._assemble(m, xs, ys, order), b)

    campaign_total = []
    for name, n in EINSTEIN:
        m = zoo.make_metric(name, n)
        times = timed(lambda: geo.einstein_campaign(m, STATES, flags=FLAGS))
        rows[f"einstein_campaign.{name}.n{n}"] = summarize(times)
        campaign_total.append(times)
    rows["einstein_campaign.all"] = summarize(np.sum(campaign_total, axis=0))

    rows.update(_bench.criteria((1, 2, 10)))
    times, info = _bench.verify_all(tree)
    rows["verify_all"] = dict(summarize(times), **info)
    times, info = _bench.tier1(tree)
    rows["tier1"] = dict(summarize(times), **info)
    _bench.write(OUT, label, rows, tree, width=40)


if __name__ == "__main__":
    main()
