"""The one runner of the ``bench_*.py`` scripts, and the workers they share.

A script is a table of rows, its docstring and one call of :func:`run`.
The table maps each row name to ``(reps, worker)``. A worker times its row
in the current process and returns ``{"s": seconds, ...fields}``. Each row
name belongs to one script, so one quantity has one committed figure, and
no script imports another.

One rule times every row: :func:`alternated` runs each rep of a row in a
fresh process per checkout and flips the checkouts' order every rep. The
two timings of a pair lie seconds apart, so a spell of the host's slower
speed (they last minutes) falls on both alike.

:func:`run` parses ``--label`` (the label the rows are stored under),
``--tree`` (the checkout measured, default this repository), ``--parent``
(a checkout to time against, stored under ``parent``) and ``--worker``
(the one row a fresh process times). It writes each label's rows whole
into a ``BENCH_<topic>.json`` file at the repository root, keeping the
other labels there, and appends the label, the checkout's commit, a
SHA-256 of its package sources and the rows' medians to the file's
``history``, so each figure names the code it measured.

A row holds the median and IQR of its reps' ``s``, the list ``reps_s``
and the first rep's other fields. A row with ``calls`` adds
``us_per_call``. With ``--parent`` the change's rows add ``paired``: the
median per-rep ratio to the parent and the reps it won.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
REPS = 7  # fresh processes per checkout of a per-call row
SUITE_REPS = 3  # the same of a criterion, a fresh-process or tier-1 row
WORKER_REPS = 3  # timed calls in one worker, after a warm-up call


def run(doc, script, out, rows, derive=None, argv=None):
    """Time the rows of ``rows(tree)`` on the checkouts by
    :func:`alternated` and write them to ``out``; with ``--worker``, print
    the one row's worker result as JSON instead. ``derive``, if given, adds
    the rows and fields that are computed from a label's reps."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--tree", type=Path, default=REPO)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--worker")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    table = rows(tree)
    if args.worker:
        print(json.dumps(table[args.worker][1]()))
        return
    trees = {args.label: tree}
    if args.parent:
        trees = {"parent": args.parent.resolve(), **trees}
    runs = alternated(script, trees,
                      {name: reps for name, (reps, _) in table.items()})
    for label_rows in runs.values():
        for row in label_rows.values():
            if "calls" in row:
                row["us_per_call"] = row["median_s"] / row["calls"] * 1e6
        if derive:
            derive(label_rows)
    if args.parent:
        parent, change = runs.values()
        for name, row in change.items():
            row["paired"] = paired(parent[name]["reps_s"], row["reps_s"])
    for label, path in trees.items():
        write(out, label, runs[label], path)


def alternated(script, trees, reps):
    """Time each row of ``reps`` (row -> its reps) of ``script`` on the
    checkouts ``trees`` (label -> path) in turn, rep by rep, each time in a
    fresh process.

    For each row and rep one process per checkout runs ``script --worker
    <row>`` against that checkout's ``src``; its last line of output is a
    JSON object whose ``s`` is the rep's timing. The checkouts' order flips
    every rep. Returns the rows per label: the median and IQR of the reps'
    ``s``, the list ``reps_s`` itself and the first rep's other fields.
    """
    labels = list(trees)
    runs = {label: {row: [] for row in reps} for label in labels}
    for row, n in reps.items():
        for rep in range(n):
            for label in labels if rep % 2 == 0 else labels[::-1]:
                proc = subprocess.run(
                    [sys.executable, str(script), "--label", label,
                     "--tree", str(trees[label]), "--worker", row],
                    capture_output=True, text=True, check=True)
                runs[label][row].append(json.loads(proc.stdout.splitlines()[-1]))
    out = {label: {} for label in labels}
    for label in labels:
        for row, objs in runs[label].items():
            s = [o.pop("s") for o in objs]
            out[label][row] = dict(summarize(s), reps_s=s, **objs[0])
    return out


def paired(parent, change):
    """The per-rep ratios change / parent of two timing lists taken in
    alternation: their median, and in how many pairs the change was
    faster."""
    ratios = np.asarray(change) / np.asarray(parent)
    return {"ratio_median": float(np.median(ratios)),
            "wins": int(np.count_nonzero(ratios < 1.0)), "pairs": len(ratios)}


def summarize(samples):
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q3 - q1),
            "reps": len(samples)}


def median_call(call, per=1):
    """Seconds of one ``call()``: the median of WORKER_REPS timed calls
    after a warm-up call (jet tables, contexts), divided by ``per`` (the
    states of a per-state row)."""
    call()
    times = []
    for _ in range(WORKER_REPS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / per


def per_call(fn, calls):
    """Worker fields of a row that times ``calls`` back-to-back calls of
    ``fn`` as one loop."""
    return {"s": median_call(lambda: [fn() for _ in range(calls)]),
            "calls": calls}


def row(build, *args, per=1):
    """Worker of a row: ``s`` per ``per`` states of the call
    ``build(*args)`` returns, and the table entries ``products`` that one
    call runs through ``_kernels.multiply`` (counted in an untimed call,
    so a parent's full tables show as such)."""
    from finslerlab import _kernels

    call = build(*args)
    s = median_call(call, per)
    multiply, count = _kernels.multiply, [0]

    def counted(a, b, mul_i, mul_j, mul_k, n_terms):
        count[0] += mul_i.shape[0]
        return multiply(a, b, mul_i, mul_j, mul_k, n_terms)

    _kernels.multiply = counted
    try:
        call()
    finally:
        _kernels.multiply = multiply
    return {"s": s, "products": count[0]}


def criterion(k):
    """Worker of row ``criterion_<k>``: one ``acceptance.criterion_k()``
    after a warm-up call that pays its one-time imports, with its
    ``worst``."""
    from finslerlab import acceptance

    fn = acceptance.ALL_CRITERIA[k - 1]
    fn()
    t0 = time.perf_counter()
    worst = fn()["worst"]
    return {"s": time.perf_counter() - t0, "worst": worst}


def suite(ks):
    """Rows ``criterion_<k>`` for each of ``ks``, SUITE_REPS reps each."""
    return {f"criterion_{k}": (SUITE_REPS, partial(criterion, k)) for k in ks}


def _linalg_libraries():
    """numpy's BLAS and LAPACK builds: the matmul timings and their rounding
    depend on them."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
            for lib in ("blas", "lapack") if lib in deps}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_linalg_libraries(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def commit(tree):
    """The short commit of the checkout ``tree``, marked ``-dirty`` when its
    tracked files differ from it; None outside a git checkout."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        return None
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def source_sha256(tree):
    """SHA-256 over the name and bytes of each ``src/finslerlab/*.py`` of the
    checkout ``tree``, in name order."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "finslerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write(out, label, rows, tree):
    """Store ``rows`` and the environment under ``label`` in ``out``, append
    the label, ``tree``'s commit and source hash and the rows' medians to
    its ``history``, and print one line per row."""
    data = json.loads(out.read_text()) if out.exists() else {}
    data[label] = {"env": environment(), "rows": rows}
    data.setdefault("history", []).append({
        "label": label, "commit": commit(tree),
        "source_sha256": source_sha256(tree),
        "median_s": {name: row["median_s"] for name, row in rows.items()}})
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    width = max(map(len, rows))
    for name, row in rows.items():
        print(f"{label:>8} {name:>{width}}: {row['median_s'] * 1e3:10.3f} ms "
              f"(IQR {row['iqr_s'] * 1e3:.3f}, n={row['reps']})")
