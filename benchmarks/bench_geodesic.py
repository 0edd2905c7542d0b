"""Geodesic-layer benchmark: chord check, DP5 stepper, criteria 2 and 6, tier-1.

Times, on fixed inputs, the layers that a geodesic run and the comparison
ODE pass through, and writes the median and interquartile range over the
repetitions to ``BENCH_geodesic.json`` under a label:

  hausdorff_415     ``geodesic.hausdorff_to_chord`` on criterion 2's
                    415-node funk-minus trace (second state pair)
  ode_comparison    ``comparison.numeric_integrate`` over t in [0, 8]: one
                    ``ode.integrate`` of the 2-d comparison ODE, case
                    (lam, lamt, a, b) = (1, 1, 0.7, 0.5)
  geodesic          one ``integrate_geodesic`` of that funk-minus trace
  criterion_2       ``acceptance.criterion_2()`` wall time
  criterion_6       ``acceptance.criterion_6()`` wall time
  tier1             the tier-1 suite (``python -m pytest -q``) wall time

Each row also carries counts that say what the timed call did (nodes,
accepted and rejected steps), and the file records the Python and numpy
versions, the kernel backend and the thread settings. Run from the
repository root:

    python benchmarks/bench_geodesic.py --label change
    python benchmarks/bench_geodesic.py --label parent --tree ../parent

``--tree`` names the checkout whose ``src/`` (and, for the tier-1 row,
``tests/``) is measured; rows of other labels already in the output file
are kept.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_geodesic.json"
REPS = 7  # per-call rows
SUITE_REPS = 3  # criterion and tier-1 rows


def summarize(samples):
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q3 - q1),
            "reps": len(samples)}


def timed(fn, reps):
    fn()  # warm-up: jet tables, contexts
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def tier1(tree, reps):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True)
        out.append(time.perf_counter() - t0)
        tail = proc.stdout.strip().splitlines()[-1:]
    return out, {"summary": tail[0] if tail else "", "exit": proc.returncode}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--tree", type=Path, default=REPO)
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))

    from finslerlab import _kernels, acceptance, comparison as cmp
    from finslerlab import geodesic as gd, sampling, zoo

    rows = {}
    m = zoo.funk_ball(-1)
    x, y = sampling.state_pairs(m, 4)[1]  # criterion 2's second pair
    integrate = lambda: gd.integrate_geodesic(m, x, y, (-1.0, 1.0),
                                              rtol=1e-9, atol=1e-11)
    run = integrate()
    rows["hausdorff_415"] = dict(
        summarize(timed(lambda: gd.hausdorff_to_chord(run.xs, x, y), REPS)),
        nodes=len(run.xs), value=gd.hausdorff_to_chord(run.xs, x, y))

    case = cmp.make_case(1, 1, 0.7, 0.5)
    ode_run = lambda: cmp.numeric_integrate(case, t_span=(0.0, 8.0))[1][0]
    res = ode_run()
    rows["ode_comparison"] = dict(
        summarize(timed(ode_run, REPS)),
        steps_accepted=res.n_accepted, steps_rejected=res.n_rejected)

    back, fwd = run.legs
    rows["geodesic"] = dict(
        summarize(timed(integrate, REPS)), nodes=len(run.xs),
        steps_accepted=back.n_accepted + fwd.n_accepted,
        steps_rejected=back.n_rejected + fwd.n_rejected)

    for k in (2, 6):
        fn = getattr(acceptance, f"criterion_{k}")
        times, worst = [], None
        for _ in range(SUITE_REPS):
            t0 = time.perf_counter()
            worst = fn()["worst"]
            times.append(time.perf_counter() - t0)
        rows[f"criterion_{k}"] = dict(summarize(times), worst=worst)

    times, info = tier1(tree, SUITE_REPS)
    rows["tier1"] = dict(summarize(times), **info)

    entry = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": _kernels.active_backend(),
            "have_numba": bool(_kernels.HAVE_NUMBA),
            "FINSLER_LAB_THREADS": os.environ.get("FINSLER_LAB_THREADS"),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "rows": rows,
    }
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data[args.label] = entry
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, row in rows.items():
        print(f"{args.label:>8} {name:>16}: {row['median_s'] * 1e3:10.2f} ms "
              f"(IQR {row['iqr_s'] * 1e3:.2f}, n={row['reps']})")


if __name__ == "__main__":
    main()
