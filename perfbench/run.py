"""Benchmark of finslerlab: three seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

One process, one client: each operation starts when the previous one has
returned. ``--trace 0`` measures the end-to-end metrics with tracing off,
with every operation timing scaled by speed probes taken around it to the
reference host's faster speed (see "host speed" below);
``--trace 1`` runs the same inputs once more with spans around every
public call into each module and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the inputs. Results and spans are also stored under
``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "finslerlab" / "__init__.py").is_file():
    # never measure some other installed copy of the package
    sys.exit(f"finslerlab sources not found under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from finslerlab import _kernels  # noqa: E402
from moves import moves  # noqa: E402

SETUP_PROBES = 3  # set-up is measured this many times per run
SPEED_LOOPS = 25  # rounds of one host-speed probe, about 0.5 ms
SPEED_REF_S = 3.5e-4  # one probe on the reference host at its faster speed
MIN_REPEATS = 2  # timings of every operation per untraced run
THREADS = 2
ERROR_CLASSES = ("ToleranceExceeded", "DomainError", "NumericError",
                 "JetError", "FinslerError", "ValueError", "ZeroDivisionError",
                 "IndexError")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # set up, report, exit
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# host speed
#
# The reference host, a shared 2-core VM, runs a process at speeds up to
# 2x apart. The process's CPU time grows with its wall time, so this is
# not stolen time; the speed changes within a fraction of a second and
# slow spells last up to minutes, so a whole run can fall in one and no
# statistic of the program's own timings removes it.
#
# So every timing is taken between two speed probes and scaled to the
# reference host's faster speed by the mean of the two:
# ``scaled = measured * SPEED_REF_S / probe``. A probe runs the kind of
# work the package does (small numpy arrays driven from Python: einsum,
# stack, a dict, concatenate) and calls nothing of the package, so a
# change to the package moves the timings and not the probes. Of the
# probes tried (a pure-Python integer loop, a 4 MB random gather, list
# and dict churn) this one tracked the program's slow spells best, and
# probes next to the timing tracked them better than medians over probes
# further away. Each probe is the least of two runs of its work, so one
# interrupted run does not set it. The unscaled figures go to ``info``.

_PROBE_A = np.arange(24.0).reshape(4, 6)


def speed_probe():
    """Seconds a fixed piece of numpy-and-Python work takes now."""
    t0 = time.perf_counter()
    a = _PROBE_A
    for _ in range(SPEED_LOOPS):
        b = np.einsum("ij,kj->ik", a, a)
        c = np.stack([b, b.T]).sum(axis=0)
        d = {i: float(c[i % 4, (3 * i) % 4]) for i in range(8)}
        a = _PROBE_A * (1.0 + 1e-3 * d[3] / (1.0 + abs(d[5])))
        a = np.concatenate([a[:, 3:], a[:, :3]], axis=1)
    return time.perf_counter() - t0


def speed():
    """The speed probe: the least of two runs of the probe work."""
    return min(speed_probe(), speed_probe())


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed):
    """Catalog metrics, first-use jet tables, one warm-up op per kind, inputs."""
    metrics = wl.catalog(workload)
    for spec in wl.warmup_pool(workload, metrics):
        wl.run_op(workload, spec, metrics)
    ops = wl.make_pool(workload, np.random.default_rng(seed), metrics)
    return metrics, ops


def measure_setup(args):
    """Median wall time of fresh processes from start until ready.

    Unscaled: set-up (imports, file reads, first calls) does not follow
    the speed probes, and scaling it by them doubled its spread.
    """
    env = dict(os.environ)
    env.pop("FINSLER_LAB_THREADS", None)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs operations back to back and counts failures by class."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.errors = Counter()
        self.attempted = 0
        self.failed = 0

    def attempt(self, spec, metrics):
        self.attempted += 1
        try:
            wl.run_op(self.workload, spec, metrics)
            return True
        except Exception as exc:  # a failed operation is counted; the run goes on
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            return False

    def timed(self, metrics, count):
        """Run the pass ``count`` times, with a speed probe before every op.

        Returns one (ops completed, latency of every op, the latencies
        scaled to the reference speed) record per repeat.
        """
        repeats = []
        for _ in range(count):
            lat, probes = [], []
            done = 0
            for spec in self.ops:
                probes.append(speed())
                s = time.perf_counter()
                done += self.attempt(spec, metrics)
                lat.append(time.perf_counter() - s)
            probes.append(speed())
            scaled = [2.0 * t * SPEED_REF_S / (probes[i] + probes[i + 1])
                      for i, t in enumerate(lat)]
            repeats.append((done, lat, scaled))
        return repeats


def repeats_for(workload, seconds, least):
    """Repeats of the pass that take ``seconds`` on the reference host.

    The count depends on ``seconds`` only, not on how fast this run
    happens to go, so a slow spell cannot cut a run's repeats short.
    """
    return max(least, round(seconds / wl.PASS_S[workload]))


def untraced_run(args, ops, metrics):
    setup_s, probes = measure_setup(args)
    loop = Loop(args.workload, ops)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    repeats = loop.timed(
        metrics, repeats_for(args.workload, args.seconds, MIN_REPEATS))
    elapsed = time.perf_counter() - t0
    done = min(r[0] for r in repeats)

    def figures(best):
        q = statistics.quantiles(best, n=10, method="inclusive")
        return {"ops_per_s": done / sum(best),
                "op_ms_p50": 1e3 * statistics.median(best),
                "op_ms_p90": 1e3 * q[8]}

    # Each operation's latency is the least of its scaled timings, one per
    # repeat of the pass, which drops the odd timing a pause or an
    # interrupt lengthens.
    values = figures([min(t) for t in zip(*(r[2] for r in repeats))])
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    unscaled = figures([min(t) for t in zip(*(r[1] for r in repeats))])
    info = {"samples": len(repeats[0][1]), "repeats": len(repeats),
            "elapsed_s": elapsed, "cpu_s": time.process_time() - cpu0,
            "unscaled": unscaled, "setup_probe_s": probes,
            "errors": dict(loop.errors)}
    return loop, values, info


# ---------------------------------------------------------------------------
# the traced run


def traced_pass(workload, ops, metrics, loop, counts=()):
    """Run ``ops`` once with every wrapper installed; returns (tracer, wall)."""
    tr = tracing.Tracer()
    tr.counts.update(counts)
    saved = tracing.install(tr)
    try:
        traced_metrics = tracing.traced_metrics(tr, metrics)
        t0 = time.perf_counter()
        for i, spec in enumerate(ops):
            tr.current_op = i
            tr.current_kind = spec.get("call", "")
            loop.attempt(spec, traced_metrics)
        wall = time.perf_counter() - t0
    finally:
        tracing.uninstall(saved)
    return tr, wall


def _attempt_rate(ops, repeats, scaled=False):
    """Operations attempted per second over every repeat of the pass,
    from the measured or the scaled latencies."""
    return len(ops) * len(repeats) / sum(sum(r[2 if scaled else 1])
                                         for r in repeats)


def traced_run(workload, ops, metrics, counts, seconds):
    """Per-layer metrics of exactly one pass, then the thread knob.

    The traced pass has its own :class:`Loop`, so its failure counts, and
    so every count reported, repeat for a seed. The untraced timed loops
    that follow count their failures apart, in the returned info and
    count, so that a failure of the threaded run is not charged to the
    traced pass.
    """
    loop = Loop(workload, ops)
    tr, wall = traced_pass(workload, ops, metrics, loop, counts)
    layer = per_layer(tr, ops, wall, loop)

    # untraced, serial; then with the thread knob where pmap runs at all
    count = repeats_for(workload, seconds / 3.0, 1)
    serial = Loop(workload, ops)
    serial_runs = serial.timed(metrics, count)
    serial_rate = _attempt_rate(ops, serial_runs)
    threaded = Loop(workload, ops)
    if tr.counts["sampling.pmap.calls"]:
        os.environ["FINSLER_LAB_THREADS"] = str(THREADS)
        try:
            thr_runs = threaded.timed(metrics, count)
        finally:
            os.environ.pop("FINSLER_LAB_THREADS")
        # the two loops run seconds apart: compare them at one speed
        speedup = (_attempt_rate(ops, thr_runs, scaled=True)
                   / _attempt_rate(ops, serial_runs, scaled=True))
    else:
        speedup = 1.0  # no pmap call: the knob reaches no code here

    RESULTS.mkdir(exist_ok=True)
    tr.write(RESULTS / f"spans-{workload}.csv.gz")
    layer["sampling.pmap.speedup_t2"] = speedup
    layer["trace.overhead_frac"] = serial_rate / (len(ops) / wall) - 1.0
    info = {"traced_ops": len(ops), "spans": len(tr.start),
            "errors": dict(loop.errors),
            "serial_errors": dict(serial.errors),
            "threaded_errors": dict(threaded.errors)}
    return loop, layer, info, serial.failed + threaded.failed


def per_layer(tr, ops, wall, loop):
    """Per-layer metrics of a traced pass, with the run's failure counts."""
    c, calls, total, own = tr.counts, tr.calls, tr.total_s, tr.self_s
    rhs = [n for n in calls if n.endswith(".rhs")]
    guard = [n for n in calls if n.endswith(".guard")]
    steps = c["ode.steps_accepted"] + c["ode.steps_rejected"]
    einstein_states = wl.EINSTEIN_STATES * sum(
        s.get("call") == "einstein" for s in ops)
    out = {
        "kernels.multiply.calls": calls["kernels.multiply"],
        "kernels.multiply.self_s": own["kernels.multiply"],
        "kernels.multiply.products": c["kernels.multiply.products"],
        "kernels.multiply.bytes": c["kernels.multiply.bytes"],
        "jets.compose.calls": calls["jets.compose"],
        "jets.compose.self_s": own["jets.compose"],
        "jets.seed.calls.o1": c["jets.seed.calls.o1"],
        "jets.seed.calls.o2": c["jets.seed.calls.o2"],
        "jets.seed.calls.o3": c["jets.seed.calls.o3"],
        "jets.seed.calls.o4": c["jets.seed.calls.o4"],
        "jets.derivative_tensors.self_s": own["jets.derivative_tensors"],
        "jets.get_context.builds": c["jets.get_context.builds"],
        "metric.F.jet_calls": calls["metric.F.jet"],
        "metric.F.jet_s": own["metric.F.jet"],
        "metric.F.float_calls": calls["metric.F.float"],
        "metric.F.float_s": own["metric.F.float"],
        "zoo.chord_root.calls": calls["zoo.chord_root"],
        "zoo.chord_root.self_s": own["zoo.chord_root"],
        "geometry.assemble.calls.o2": calls["geometry.assemble.o2"],
        "geometry.assemble.calls.o4": calls["geometry.assemble.o4"],
        "geometry.assemble.self_s.o2": own["geometry.assemble.o2"],
        "geometry.assemble.self_s.o4": own["geometry.assemble.o4"],
        "geometry.assemble_per_state": (
            c["geometry.assemble.einstein.o4"] / einstein_states
            if einstein_states else 0.0),
        "projective.xi_and_tau.calls": calls["projective.xi_and_tau"],
        "projective.xi_and_tau.self_s": own["projective.xi_and_tau"],
        "projective.rapcsak_residual.self_s": own["projective.rapcsak_residual"],
        "ode.integrate.calls": calls["ode.integrate"],
        "ode.steps_accepted": c["ode.steps_accepted"],
        "ode.steps_rejected": c["ode.steps_rejected"],
        "ode.domain_vetoes": c["ode.domain_vetoes"],
        "ode.guard.calls": sum(calls[n] for n in guard),
        "ode.accept_ratio": c["ode.steps_accepted"] / steps if steps else 0.0,
        "ode.rhs.calls": sum(calls[n] for n in rhs),
        "ode.rhs_s": sum((total[n] for n in rhs), 0.0),
        "ode.self_s": own["ode.integrate"],
        "geodesic.hausdorff_to_chord.self_s": own["geodesic.hausdorff_to_chord"],
        "geodesic.sample.self_s": own["geodesic.sample"],
        "comparison.numeric_vs_closed.self_s": own["comparison.numeric_vs_closed"],
        "comparison.classify.self_s": own["comparison.classify_completeness"],
        "comparison.arc_param_roundtrip.self_s":
            own["comparison.arc_param_roundtrip"],
        "comparison.ode_residual.self_s": own["comparison.ode_residual"],
        "sampling.state_pairs.self_s": own["sampling.state_pairs"],
        "sampling.pmap.calls": c["sampling.pmap.calls"],
        "geodesic.nodes": c["geodesic.nodes"],
        "geodesic.status.t_limit": c["geodesic.status.t_limit"],
        "geodesic.status.boundary": c["geodesic.status.boundary"],
        "geodesic.status.blow_up": c["geodesic.status.blow_up"],
    }
    for mod in tracing.MODULES:
        out[f"layer.{mod}.self_s"] = sum(
            v for k, v in own.items() if k.split(".", 1)[0] == mod)
    out["trace.wall_s"] = wall
    out["trace.loop_s"] = wall - tr.root_s()
    for name in ERROR_CLASSES:
        out[f"errors.{name}"] = loop.errors.get(name, 0)
    out["errors.other"] = sum(v for k, v in loop.errors.items()
                              if k not in ERROR_CLASSES)
    out["fail_frac"] = loop.failed / loop.attempted
    return out


# ---------------------------------------------------------------------------


def environment(args, ops, threads_env):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.active_backend(),
        "have_numba": _kernels.HAVE_NUMBA,
        "FINSLER_LAB_BACKEND": os.environ.get("FINSLER_LAB_BACKEND"),
        "FINSLER_LAB_THREADS": threads_env,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": wl.digest(ops),
        "ops_per_pass": len(ops),
    }


def main(argv=None):
    args = parse_args(argv)
    # the workloads run single-threaded; the knob is recorded, then unset
    threads_env = os.environ.pop("FINSLER_LAB_THREADS", None)

    counts = Counter()
    if args.trace:
        tracing.count_context_builds(counts)
    metrics, ops = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    other_failed = 0  # failures of the timed loops of the traced run
    if args.trace:
        loop, values, info, other_failed = traced_run(
            args.workload, ops, metrics, counts, args.seconds)
    else:
        loop, values, info = untraced_run(args, ops, metrics)
    section = "per_layer" if args.trace else "end_to_end"
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in _declared(section)}
    record = {"environment": environment(args, ops, threads_env),
              "info": info, "metrics": out}
    if args.trace:
        record["moves"] = {name: moves(name) for name in out}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({"environment": record["environment"], "info": info},
                     default=float))
    correct = loop.failed == 0 and other_failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": out}, default=float))
    return 0


def _declared(section):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


if __name__ == "__main__":
    sys.exit(main())
