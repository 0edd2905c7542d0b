"""Checks of the benchmark itself: inputs, counts, self times and exit codes.

Run from the root of the repository:

    python -m pytest perfbench -q

The traced passes here use the first few operations of a pass only, so
the whole file runs in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from moves import moves  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PREFIX = {"campaign": 12, "geodesic": 6, "comparison": 18}


def _pool(workload, seed):
    metrics = wl.catalog(workload)
    return metrics, wl.make_pool(workload, np.random.default_rng(seed), metrics)


def _traced(workload, seed):
    """The traced run on a prefix of a pass, its timed loops one pass each."""
    metrics, pool = _pool(workload, seed)
    ops = [s for s in pool if s.get("start") != "rim"][:PREFIX[workload]]
    loop, layer, _, other_failed = run.traced_run(workload, ops, metrics, (),
                                                  0.0)
    assert other_failed == 0
    return layer, loop


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for workload in wl.WORKLOADS:
        _, a = _pool(workload, 7)
        _, b = _pool(workload, 7)
        _, c = _pool(workload, 8)
        assert wl.digest(a) == wl.digest(b)
        assert wl.digest(a) != wl.digest(c)
        kinds = [kind for kind, count in wl.kinds(workload)
                 for _ in range(count)]
        assert len(a) == len(kinds)


def test_every_declared_metric_is_produced_and_mapped():
    layer, _ = _traced("comparison", 1)
    assert set(layer) == set(PER_LAYER)
    for name in PER_LAYER:
        assert moves(name)
    assert [m["name"] for m in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_and_self_times_add_up(workload):
    first, loop = _traced(workload, 3)
    second, _ = _traced(workload, 3)
    assert loop.failed == 0, loop.errors
    assert loop.attempted == PREFIX[workload]  # the timed loops count apart
    for name, unit in PER_LAYER.items():
        if unit == "count" and name in first:
            assert first[name] == second[name], name
    layers = sum(first[f"layer.{m}.self_s"] for m in tracing.MODULES)
    assert layers + first["trace.loop_s"] == pytest.approx(
        first["trace.wall_s"], rel=1e-9)
    assert 0.0 <= first["trace.loop_s"] < first["trace.wall_s"]


def test_layers_idle_where_a_workload_does_not_reach_them():
    campaign, _ = _traced("campaign", 5)
    assert campaign["ode.integrate.calls"] == campaign["ode.rhs.calls"] == 0
    assert campaign["geometry.assemble.calls.o4"] > 0
    assert campaign["geometry.assemble_per_state"] > 0
    geodesic, _ = _traced("geodesic", 5)
    assert geodesic["geometry.assemble.calls.o4"] == 0
    assert geodesic["geometry.assemble.calls.o2"] == geodesic["jets.seed.calls.o2"]
    comparison, _ = _traced("comparison", 5)
    assert comparison["layer.geometry.self_s"] == 0.0
    assert comparison["geometry.assemble.calls.o2"] == 0
    assert comparison["metric.F.jet_calls"] == comparison["metric.F.float_calls"] == 0


def test_wrappers_are_removed_after_a_traced_pass():
    from finslerlab import _kernels, geometry, ode, projective

    before = (_kernels.multiply, geometry._assemble, projective._assemble,
              ode.integrate)
    _traced("campaign", 2)
    assert before == (_kernels.multiply, geometry._assemble,
                      projective._assemble, ode.integrate)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
