"""The ``benchmarks/bench_*.py`` scripts build their row tables against the
library as it stands, read only names that its modules have, list in
their docstrings every row they time, and time a row in a worker process,
so that renaming a library entry that a row calls fails here and not in
the next benchmark run. Each row name belongs to one script, and no
script imports another.

A docstring lists a row in a line indented by two spaces: its first
column (up to two spaces or the line's end) holds row names separated by
commas, in which ``<...>`` stands for one part of a name."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SCRIPTS = sorted(path.stem for path in BENCHMARKS.glob("bench_*.py"))


def _script(name):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


def _listed(doc):
    """The row patterns of a docstring, each as a compiled regex."""
    patterns = []
    for line in doc.splitlines():
        column = re.match(r"  (\S.*?)(?: {2,}|$)", line)
        if column:
            patterns += [p.strip() for p in column.group(1).split(",")]
    return {p: re.compile("".join(
        r"[\w-]+" if part.startswith("<") else re.escape(part)
        for part in re.split(r"(<\w+>)", p))) for p in patterns}


def _library_names(path):
    """(module, name) of each attribute the script at ``path`` reads off a
    module it imports by ``from finslerlab import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    alias = {a.asname or a.name: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "finslerlab"
             for a in node.names}
    return {(alias[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in alias}


def test_there_are_four_scripts():
    assert SCRIPTS == ["bench_batch", "bench_geodesic", "bench_jets",
                       "bench_ode"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_row_is_listed_and_every_listing_names_a_row(name):
    script = _script(name)
    table = script.rows(BENCHMARKS.parent)
    assert table and all(isinstance(reps, int) and reps > 0 and callable(worker)
                         for reps, worker in table.values())
    listed = _listed(script.__doc__)
    unlisted = [row for row in table
                if not any(rx.fullmatch(row) for rx in listed.values())]
    unused = [p for p, rx in listed.items()
              if not any(rx.fullmatch(row) for row in table)]
    assert unlisted == [] and unused == []


@pytest.mark.parametrize("name", ["_bench", *SCRIPTS])
def test_every_library_name_a_script_reads_exists(name):
    names = _library_names(BENCHMARKS / f"{name}.py")
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(importlib.import_module(f"finslerlab.{module}"),
                              attr)]
    assert names and missing == []


def test_no_row_name_is_timed_by_two_scripts():
    owners = {}
    for name in SCRIPTS:
        for row in _script(name).rows(BENCHMARKS.parent):
            owners.setdefault(row, []).append(name)
    assert {row: names for row, names in owners.items() if len(names) > 1} == {}
    assert owners["verify_all"] == owners["tier1"] == ["bench_ode"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_no_script_imports_another(name):
    tree = ast.parse((BENCHMARKS / f"{name}.py").read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert {m for m in imported if m.split(".")[0].startswith("bench_")} == set()


def test_a_worker_times_its_row_in_a_fresh_process():
    row = "product.var_var.4v_o2.B1"
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "bench_jets.py"), "--label",
         "test", "--worker", row],
        capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"s", "products"}
    assert out["s"] > 0.0
    assert isinstance(out["products"], int) and out["products"] > 0


def test_rim_rows_are_named_without_drawing_perfbench_s_pool():
    # rows(tree) runs in every worker process; only a rim row's own worker
    # should import perfbench's workloads and draw its seed-7 pool
    script = _script("bench_geodesic")
    saved, path = sys.modules.pop("workloads", None), list(sys.path)
    try:
        table = script.rows(BENCHMARKS.parent)
        assert "workloads" not in sys.modules
        assert [row for row in table if row.startswith("rim_")] == [
            f"rim_{name}" for name in script.RIM_METRICS]
        assert tuple(script.rim_starts(BENCHMARKS.parent)) == script.RIM_METRICS
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)
        if saved is not None:
            sys.modules["workloads"] = saved


def test_an_assembly_row_s_worker_counts_its_products():
    # the shared worker counts the kernel's table entries beside the time
    row = "assemble_o4.klein.n2.B1"
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "bench_batch.py"), "--label",
         "test", "--worker", row],
        capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"s", "products"}
    assert out["s"] > 0.0
    assert isinstance(out["products"], int) and out["products"] > 0
