"""Jet-product benchmark: span-aware products, _compose, order-2 assembly, criterion 10.

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
  assemble_o2.<metric>.n<n>.B<b>  ``geometry._assemble`` at order 2, per
                                 state, on klein and funk-plus at n = 2,
                                 3, 4 (4, 6 and 8 variables)
  criterion_10                   ``acceptance.criterion_10()`` wall time
                                 and ``worst``

Products and compose rows run at orders 2 and 4 in 4, 6 and 8 variables.
Every row but the criterion runs for b = 1 (one state) and for stacks of
b = 40 states, and carries ``products``: the table entries the kernel
runs per state (counted in an untimed call, so the parent's full tables
show as such). The order-4 assembly and the campaigns are
``bench_batch``'s rows.

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

OUT = _bench.REPO / "BENCH_jets.json"
ORDERS = (2, 4)
VARS = (4, 6, 8)
BATCHES = (1, 40)
ASSEMBLE_METRICS = ("klein", "funk-plus")


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


def _assemble(name, n, b):
    from finslerlab import geometry as geo, sampling, zoo

    m = zoo.make_metric(name, n)
    X, Y = (np.array(v) for v in zip(*sampling.state_pairs(m, max(BATCHES))))
    xs, ys = (X[0], Y[0]) if b == 1 else (X[:b], Y[:b])
    return lambda: geo._assemble(m, xs, ys, 2)


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
                        _bench.row, _product, kind, order, n_vars, b, per=b))
    for name in ASSEMBLE_METRICS:
        for n in (2, 3, 4):
            for b in BATCHES:
                table[f"assemble_o2.{name}.n{n}.B{b}"] = (_bench.REPS, partial(
                    _bench.row, _assemble, name, n, b, per=b))
    table.update(_bench.suite((10,)))
    return table


if __name__ == "__main__":
    _bench.run(__doc__, __file__, OUT, rows)
