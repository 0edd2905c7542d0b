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
                                 workload's Einstein operations; the row
                                 ``einstein_campaign.all`` is their sum,
                                 rep by rep
  criterion_1, criterion_2, criterion_10
                                 ``acceptance.criterion_k()`` wall time
  verify_all, tier1              ``finslerlab verify-all`` and the tier-1
                                 suite in a subprocess

Products, compose and assembly rows run at orders 2 and 4 in 4, 6 and 8
variables, for b = 1 (one state) and stacks of b = 40 states. Each of
them carries ``products``: the table entries the kernel runs per state
(counted in an untimed call, so the parent's full tables show as such).

Every row is timed by ``_bench.alternated``: each rep runs in a fresh
process, on the parent checkout and on this one in turn with
``--parent``; a per-call row's rep is the median of
``_bench.WORKER_REPS`` calls after a warm-up call. Run from the
repository root:

    python benchmarks/bench_jets.py --label change --parent ../parent
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench  # noqa: E402
from bench_batch import EINSTEIN, campaign, campaign_total  # noqa: E402

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


def _row(build, *args, per=1):
    """Worker of a row: ``s`` per ``per`` states of the call
    ``build(*args)`` returns, and the table entries ``products`` that one
    call runs."""
    from finslerlab import _kernels

    call = build(*args)
    return {"s": _bench.median_call(call, per),
            "products": counting_products(_kernels, call)}


def rows(tree):
    table = {}
    for order in ORDERS:
        for n_vars in VARS:
            for b in BATCHES:
                tag = f"{n_vars}v_o{order}.B{b}"
                for kind in ("var_var", "deg2_deg2", "full_full", "compose"):
                    name = (f"product.{kind}.{tag}" if kind != "compose"
                            else f"compose.{tag}")
                    table[name] = (_bench.REPS, partial(
                        _row, _product, kind, order, n_vars, b, per=b))
    for order in ORDERS:
        for name in ASSEMBLE_METRICS:
            for n in (2, 3, 4):
                for b in BATCHES:
                    table[f"assemble_o{order}.{name}.n{n}.B{b}"] = (
                        _bench.REPS, partial(_row, _assemble, order, name, n,
                                             b, per=b))
    for name, n in EINSTEIN:
        table[f"einstein_campaign.{name}.n{n}"] = (
            _bench.REPS, partial(_row, campaign, name, n))
    table.update(_bench.suite(tree, (1, 2, 10)))
    return table


if __name__ == "__main__":
    _bench.run(__doc__, __file__, OUT, rows, campaign_total)
