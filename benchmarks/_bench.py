"""Timing and environment helpers shared by the ``bench_*.py`` scripts.

Each script measures one checkout (``--tree``, default this repository)
and stores its rows under ``--label`` in a ``BENCH_<topic>.json`` file at
the repository root, keeping the rows of other labels already there. Every
write also appends the label, the checkout's commit, a SHA-256 of its
package sources and the rows' medians to the file's ``history`` list, so
the figures of earlier labels stay, and each names the code it measured
even where the checkout is no git repository.

Two checkouts measured in two runs compare two spells of the host's speed
as much as two trees. A script that takes ``--parent`` therefore times
some of its rows on both checkouts by :func:`alternated`, rep by rep in
fresh processes, and stores them under both labels.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
REPS = 7  # per-call rows
SUITE_REPS = 3  # criterion, verify-all and tier-1 rows


def arguments(doc, argv=None, paired=False):
    """Parse ``--label`` and ``--tree`` and put the tree's ``src`` first
    on ``sys.path``; returns (label, tree). With ``paired``, also parse
    ``--parent``, a checkout to time against by :func:`alternated`, and
    ``--worker``, the one row a process of :func:`alternated` times, and
    return (label, tree, parent, worker)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--tree", type=Path, default=REPO)
    if paired:
        ap.add_argument("--parent", type=Path)
        ap.add_argument("--worker")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    if not paired:
        return args.label, tree
    return args.label, tree, args.parent and args.parent.resolve(), args.worker


def summarize(samples):
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q3 - q1),
            "reps": len(samples)}


def timed(fn, reps=REPS):
    fn()  # warm-up: jet tables, contexts
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def per_call(fn, calls):
    """Row of ``calls`` back-to-back calls of ``fn``: the loop's median and
    IQR, and its median divided by ``calls`` in microseconds."""
    row = summarize(timed(lambda: [fn() for _ in range(calls)]))
    return dict(row, calls=calls, us_per_call=row["median_s"] / calls * 1e6)


def alternated(script, trees, rows, reps=REPS):
    """Time ``rows`` of ``script`` on the checkouts ``trees`` (label ->
    path) in turn, rep by rep, each time in a fresh process.

    For each row and rep one process per checkout runs ``script --worker
    <row>`` against that checkout's ``src``; its last line of output is a
    JSON object whose ``s`` is the rep's timing. The checkouts' order flips
    every rep, so the two timings of a pair lie seconds apart and a spell
    of the host's slower speed (they last up to minutes) falls on both
    alike. Returns the rows per label: the median and IQR of the reps'
    ``s``, the list ``reps_s`` itself and the first rep's other fields;
    of two or more labels, the last label's rows add ``paired`` against
    the first label's.
    """
    labels = list(trees)
    runs = {label: {row: [] for row in rows} for label in labels}
    for row in rows:
        for rep in range(reps):
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
    if len(labels) == 1:  # one checkout: nothing to pair against
        return out
    for row in rows:
        out[labels[-1]][row]["paired"] = paired(out[labels[0]][row]["reps_s"],
                                                out[labels[-1]][row]["reps_s"])
    return out


def paired(parent, change):
    """The per-rep ratios change / parent of two timing lists taken in
    alternation: their median, and in how many pairs the change was
    faster."""
    ratios = np.asarray(change) / np.asarray(parent)
    return {"ratio_median": float(np.median(ratios)),
            "wins": int(np.count_nonzero(ratios < 1.0)), "pairs": len(ratios)}


def criteria(ks, reps=SUITE_REPS):
    """Rows ``criterion_<k>``: wall time and ``worst`` of each criterion,
    timed after a warm-up call that pays its one-time imports."""
    from finslerlab import acceptance

    rows = {}
    for k in ks:
        fn, worst = getattr(acceptance, f"criterion_{k}"), []
        times = timed(lambda: worst.append(fn()["worst"]), reps)
        rows[f"criterion_{k}"] = dict(summarize(times), worst=worst[-1])
    return rows


def _command(tree, argv, reps):
    """Wall times of a subprocess run in ``tree`` against its ``src``, and
    the last line of its output with its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, text=True)
        out.append(time.perf_counter() - t0)
        tail = proc.stdout.strip().splitlines()[-1:]
    return out, {"summary": tail[0] if tail else "", "exit": proc.returncode}


def fresh_import(tree, module, reps=SUITE_REPS):
    """Wall times of ``python -c "import <module>"`` in fresh processes
    against ``tree``'s ``src``, and the median of their peak resident
    memory in MB, as each process reads it before it exits."""
    code = (f"import resource, {module}; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times, rss_kb = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                              capture_output=True, text=True, check=True)
        times.append(time.perf_counter() - t0)
        rss_kb.append(int(proc.stdout.split()[-1]))
    return times, {"peak_rss_mb": float(np.median(rss_kb)) / 1024.0}


def tier1(tree, reps=SUITE_REPS):
    """The tier-1 suite (``python -m pytest -q``) in ``tree``."""
    return _command(tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], reps)


def verify_all(tree, reps=SUITE_REPS):
    """``finslerlab verify-all``, all ten criteria in one process."""
    return _command(tree, ["-m", "finslerlab.cli", "verify-all"], reps)


def _linalg_libraries():
    """numpy's BLAS and LAPACK builds: the matmul timings and their rounding
    depend on them."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
            for lib in ("blas", "lapack") if lib in deps}


def environment():
    from finslerlab import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_linalg_libraries(),
        "backend": _kernels.active_backend(),
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


def write(out, label, rows, tree=REPO, width=16, merge=False):
    """Store ``rows`` and the environment under ``label`` in ``out``, append
    the label, ``tree``'s commit and source hash and the rows' medians to
    its ``history``, and print one line per row. With ``merge`` the rows
    replace only their namesakes among the label's rows."""
    data = json.loads(out.read_text()) if out.exists() else {}
    kept = data.get(label, {}).get("rows", {}) if merge else {}
    data[label] = {"env": environment(), "rows": {**kept, **rows}}
    data.setdefault("history", []).append({
        "label": label, "commit": commit(tree),
        "source_sha256": source_sha256(tree),
        "median_s": {name: row["median_s"] for name, row in rows.items()}})
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, row in rows.items():
        print(f"{label:>8} {name:>{width}}: {row['median_s'] * 1e3:10.3f} ms "
              f"(IQR {row['iqr_s'] * 1e3:.3f}, n={row['reps']})")
