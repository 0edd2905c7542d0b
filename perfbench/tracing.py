"""Spans and counters around the public calls into each finslerlab module.

``install(tracer)`` replaces, for the duration of a traced pass, each
function at the name its callers look it up by (for example both
``geometry._assemble`` and ``projective._assemble``) with a wrapper that
records one span per call; ``uninstall`` puts the originals back. The
metric's ``F`` is reached by ``traced_metrics`` through
``dataclasses.replace``, and the ODE right-hand side and guard by
wrapping the arguments passed to ``ode.integrate``. Nothing under
``src/`` is modified.

A span holds its name, start, end, parent span and operation id. Spans
stay in memory until :meth:`Tracer.write` stores them. The self time of a
span is its duration minus the time its child spans cover, so the self
times of all spans add up to the time the root spans cover.
"""

import csv
import dataclasses
import gzip
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from finslerlab import _kernels
from finslerlab import comparison as cmp
from finslerlab import geodesic as gd
from finslerlab import geometry as geo
from finslerlab import jets as jr
from finslerlab import ode
from finslerlab import projective as pj
from finslerlab import sampling
from finslerlab import zoo
from finslerlab.errors import DomainError

# package modules, innermost first; a span name starts with its module
MODULES = ("kernels", "jets", "metric", "zoo", "geometry", "projective",
           "sampling", "ode", "geodesic", "comparison")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.current_kind = ""
        self.counts = Counter()
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._open = []  # [span index, time covered by children]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs inside the span to update counters."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1][0] if self._open else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            frame = [idx, 0.0]
            self._open.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if self._open:
                    self._open[-1][1] += dur

        return traced

    def root_s(self):
        """Time covered by spans without a parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def write(self, path):
        """Store every span as gzipped CSV."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "op"])
            t0 = self.start[0] if self.start else 0.0
            for i, (nid, s, e, p, op) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.op)):
                out.writerow([i, self.names[nid], f"{s - t0:.9f}",
                              f"{e - t0:.9f}", p, op])


# ---------------------------------------------------------------------------
# installation


def _patch(table, owner, attr, wrapper):
    table.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tr):
    """Wrap the package's call sites; returns the list to pass to uninstall."""
    saved = []
    c = tr.counts

    def multiply_done(args, kwargs, out):
        a, b, mi, mj, mk, _ = args
        c["kernels.multiply.products"] += mi.shape[0]
        c["kernels.multiply.bytes"] += (a.nbytes + b.nbytes + mi.nbytes
                                        + mj.nbytes + mk.nbytes + out.nbytes)

    _patch(saved, _kernels, "multiply",
           tr.span("kernels.multiply", _kernels.multiply, multiply_done))
    _patch(saved, jr, "_compose", tr.span("jets.compose", jr._compose))

    def seeded(args, kwargs, out):
        c[f"jets.seed.calls.o{args[2]}"] += 1

    _patch(saved, jr, "seed_variables",
           tr.span("jets.seed", jr.seed_variables, seeded))
    _patch(saved, jr, "derivative_tensors",
           tr.span("jets.derivative_tensors", jr.derivative_tensors))
    _patch(saved, zoo, "_chord_scalar_root",
           tr.span("zoo.chord_root", zoo._chord_scalar_root))

    assemble = geo._assemble
    by_order = {k: tr.span(f"geometry.assemble.o{k}", assemble)
                for k in (2, 3, 4)}

    def traced_assemble(metric, x, y, order):
        if order == 4 and tr.current_kind == "einstein":
            c["geometry.assemble.einstein.o4"] += 1
        return by_order[order](metric, x, y, order)

    _patch(saved, geo, "_assemble", traced_assemble)
    _patch(saved, pj, "_assemble", traced_assemble)
    _patch(saved, gd, "spray_coefficients",
           tr.span("geometry.spray_coefficients", gd.spray_coefficients))
    _patch(saved, geo, "einstein_campaign",
           tr.span("geometry.einstein_campaign", geo.einstein_campaign))

    for attr in ("projective_campaign", "fit_einstein_constants",
                 "rapcsak_residual", "xi_and_tau"):
        _patch(saved, pj, attr, tr.span(f"projective.{attr}", getattr(pj, attr)))
    for attr in ("state_pairs", "joint_state_pairs"):
        _patch(saved, sampling, attr,
               tr.span(f"sampling.{attr}", getattr(sampling, attr)))
    pmap = sampling.pmap

    def counted_pmap(fn, items):
        # counted only: a span would charge the mapped work to sampling
        c["sampling.pmap.calls"] += 1
        return pmap(fn, items)

    _patch(saved, sampling, "pmap", counted_pmap)

    _patch(saved, ode, "integrate", _traced_integrate(tr, ode.integrate))

    def traced_geodesic(args, kwargs, run):
        c["geodesic.nodes"] += len(run.ts)
        c[f"geodesic.status.{run.status_backward}"] += 1
        c[f"geodesic.status.{run.status_forward}"] += 1

    _patch(saved, gd, "integrate_geodesic",
           tr.span("geodesic.integrate_geodesic", gd.integrate_geodesic,
                   traced_geodesic))
    _patch(saved, gd, "hausdorff_to_chord",
           tr.span("geodesic.hausdorff_to_chord", gd.hausdorff_to_chord))
    _patch(saved, gd.GeodesicResult, "sample",
           tr.span("geodesic.sample", gd.GeodesicResult.sample))

    for attr in ("make_case", "maximal_interval", "classify_completeness",
                 "ode_residual", "numeric_vs_closed", "arc_param_roundtrip",
                 "is_stationary", "first_critical_time"):
        _patch(saved, cmp, attr, tr.span(f"comparison.{attr}", getattr(cmp, attr)))
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _caller_module(fn):
    """Layer a callback belongs to: the finslerlab module defining it."""
    return fn.__module__.rsplit(".", 1)[-1]


def _traced_integrate(tr, integrate):
    c = tr.counts

    def wrap_rhs(rhs):
        inner = tr.span(f"{_caller_module(rhs)}.rhs", rhs)

        def traced_rhs(t, u):
            try:
                du = inner(t, u)
            except DomainError:
                c["ode.domain_vetoes"] += 1
                raise
            if not np.all(np.isfinite(du)):
                c["ode.domain_vetoes"] += 1  # ode turns this into a veto too
            return du

        return traced_rhs

    def wrap_guard(guard):
        return tr.span(f"{_caller_module(guard)}.guard", guard)

    def integrated(args, kwargs, res):
        c["ode.steps_accepted"] += res.n_accepted
        c["ode.steps_rejected"] += res.n_rejected

    span = tr.span("ode.integrate", integrate, integrated)

    def traced_integrate(rhs, *args, guard=None, **kwargs):
        if guard is not None:
            guard = wrap_guard(guard)
        return span(wrap_rhs(rhs), *args, guard=guard, **kwargs)

    return traced_integrate


def traced_metrics(tr, metrics):
    """Copies of the catalog whose ``F`` records a span per evaluation."""
    out = {}
    for key, m in metrics.items():
        on_jets = tr.span("metric.F.jet", m.F)
        on_floats = tr.span("metric.F.float", m.F)

        def F(x, y, on_jets=on_jets, on_floats=on_floats):
            if jr.is_jet(x[0]) or jr.is_jet(y[0]):
                return on_jets(x, y)
            return on_floats(x, y)

        out[key] = dataclasses.replace(m, F=F)
    return out


def count_context_builds(counts):
    """Count jet-context builds from now on (these happen during set-up)."""
    build = jr.JetContext

    def counted(n_vars, order):
        counts["jets.get_context.builds"] += 1
        return build(n_vars, order)

    jr.JetContext = counted
