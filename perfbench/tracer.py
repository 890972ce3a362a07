"""Spans around etlab's public calls, recorded from outside the program.

``Tracer.install`` replaces each function listed in ``FUNCTIONS`` in every
etlab module namespace that binds it (several modules import names such as
``height_T`` or ``kernel_T`` directly), and each method in ``METHODS`` on its
class.  ``uninstall`` restores the originals, so untraced passes run the
unmodified program.  Spans are kept in memory as (name, start, end, parent,
item) and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from collections import defaultdict

import numpy as np

# layer -> public functions that get a span
FUNCTIONS = {
    "kernels": ("integrate_piece", "pv_sqrt_composite", "integrate_sqrt_endpoints"),
    "measures": ("height_T", "discrepancy_empirical", "discrepancy_mixed",
                 "h_tilde", "d_tilde"),
    "extremal": ("phi", "l_of_r", "make_admissible", "periodize", "rho_type1"),
    "polynomials": ("check_et", "discrepancy_poly", "height_poly", "max_log_modulus"),
    "discretize": ("discretize_measure", "moment_match_cell", "rationalize",
                   "sharpness_pipeline"),
    "sediment": ("minimize_energy",),
}
# (layer, class, method, span name)
METHODS = (
    ("measures", "EmpiricalMeasure", "potential", "measures.EmpiricalMeasure.potential"),
    ("measures", "MixedMeasureT", "potential", "measures.MixedMeasureT.potential"),
    ("measures", "PeriodizedDensity", "evaluate", "measures.PeriodizedDensity.evaluate"),
    ("polynomials", "PolynomialSpec", "log_abs_on_circle", "polynomials.log_abs_on_circle"),
    ("polynomials", "PolynomialSpec", "with_computed_roots", "polynomials.with_computed_roots"),
)
LAYERS = tuple(FUNCTIONS)

# Per-layer metrics reported by a traced run: (name, unit).
METRICS = (
    ("polynomials.max_log_modulus.self_s", "s"),
    ("polynomials.log_abs_on_circle.calls", "count"),
    ("polynomials.log_abs_on_circle.pairs", "count"),
    ("polynomials.log_abs_on_circle.self_s", "s"),
    ("polynomials.check_et.self_s", "s"),
    ("polynomials.discrepancy_poly.self_s", "s"),
    ("polynomials.with_computed_roots.self_s", "s"),
    ("measures.height_T.empirical.self_s", "s"),
    ("measures.EmpiricalMeasure.potential.calls", "count"),
    ("measures.EmpiricalMeasure.potential.pairs", "count"),
    ("measures.EmpiricalMeasure.potential.self_s", "s"),
    ("measures.discrepancy_empirical.self_s", "s"),
    ("measures.height_T.mixed.self_s", "s"),
    ("measures.MixedMeasureT.potential.calls", "count"),
    ("measures.MixedMeasureT.potential.self_s", "s"),
    ("measures.PeriodizedDensity.evaluate.points", "count"),
    ("measures.PeriodizedDensity.evaluate.self_s", "s"),
    ("measures.discrepancy_mixed.self_s", "s"),
    ("measures.h_tilde.self_s", "s"),
    ("kernels.integrate_piece.calls", "count"),
    ("kernels.integrate_piece.self_s", "s"),
    ("kernels.pv_sqrt_composite.calls", "count"),
    ("kernels.pv_sqrt_composite.self_s", "s"),
    ("kernels.integrate_sqrt_endpoints.calls", "count"),
    ("kernels.kernel_T.evals", "count"),
    ("discretize.discretize_measure.self_s", "s"),
    ("discretize.moment_match_cell.calls", "count"),
    ("discretize.rationalize.self_s", "s"),
    ("discretize.rationalize.kept_frac", "ratio"),
    ("discretize.sharpness_pipeline.self_s", "s"),
    ("extremal.phi.calls", "count"),
    ("extremal.phi.self_s", "s"),
    ("extremal.l_of_r.self_s", "s"),
    ("extremal.periodize.self_s", "s"),
    ("extremal.rho_type1.self_s", "s"),
    ("sediment.minimize_energy.self_s", "s"),
    ("sediment.minimize_energy.iterations", "count"),
    ("sediment.step_us", "us"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.overhead_s", "s"),
    ("trace.uncovered_frac", "ratio"),
)


class Tracer:
    """Span recorder for one traced pass over a workload's items."""

    def __init__(self, etlab) -> None:
        self._etlab = etlab
        self._modules = [etlab] + [getattr(etlab, layer) for layer in LAYERS]
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._last_error: dict[str, BaseException] = {}
        self.item = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, names in FUNCTIONS.items():
            for fname in names:
                orig = getattr(getattr(self._etlab, layer), fname)
                self._rebind(orig, self._wrap(orig, layer, f"{layer}.{fname}"))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(getattr(self._etlab, layer), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, layer, span))
        kernel_t = self._etlab.kernels.kernel_T
        self._rebind(kernel_t, self._count_evals(kernel_t))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def _rebind(self, orig, wrapper) -> None:
        for mod in self._modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _count_evals(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def kernel_t(x):
            counts["kernels.kernel_T.evals"] += np.size(x)
            return orig(x)

        return kernel_t

    def _wrap(self, orig, layer: str, span: str):
        tracer = self
        counts = self.counts
        spans = self.spans
        stack = self._stack
        height_ids = (self._name_id("measures.height_T.empirical"),
                      self._name_id("measures.height_T.mixed"))
        name_id = self._name_id(span)
        empirical_cls = self._etlab.measures.EmpiricalMeasure

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            nid = name_id
            if span == "measures.height_T":
                nid = height_ids[0 if isinstance(args[0], empirical_cls) else 1]
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                if tracer._last_error.get(layer) is not exc:
                    tracer._last_error[layer] = exc
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.item)
            tracer._count(span, args, kwargs, out)
            return out

        return wrapper

    def _count(self, span: str, args, kwargs, out) -> None:
        c = self.counts
        c[span + ".calls"] += 1
        if span == "measures.EmpiricalMeasure.potential":
            c[span + ".pairs"] += np.size(args[1]) * args[0].n_atoms
        elif span == "polynomials.log_abs_on_circle":
            c[span + ".pairs"] += np.size(args[1]) * args[0].degree
        elif span == "measures.PeriodizedDensity.evaluate":
            c[span + ".points"] += np.size(args[1])
        elif span == "discretize.rationalize":
            c["discretize.rationalize.atoms_in"] += args[0].n_atoms
            c["discretize.rationalize.atoms_kept"] += out.n_atoms
        elif span == "sediment.minimize_energy":
            trace = kwargs.get("trace")
            if trace:
                c["sediment.minimize_energy.iterations"] += trace[-1][0]

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (nid, t0, t1, _, _), c in zip(self.spans, child):
            out[self.names[nid]] += (t1 - t0) - c
        return out

    def covered(self) -> float:
        """Time inside outermost spans, summed over the pass."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Every METRICS entry except the trace.* ones, for this pass."""
        selfs = self.self_times()
        c = self.counts
        out = {}
        for name, _unit in METRICS:
            if name.startswith("trace."):
                continue
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[: -len(".self_s")], 0.0)
            elif name == "discretize.rationalize.kept_frac":
                atoms_in = c["discretize.rationalize.atoms_in"]
                out[name] = c["discretize.rationalize.atoms_kept"] / atoms_in if atoms_in else 0.0
            elif name == "sediment.step_us":
                iters = c["sediment.minimize_energy.iterations"]
                out[name] = 1e6 * selfs.get("sediment.minimize_energy", 0.0) / iters if iters else 0.0
            else:
                out[name] = c[name]
        return out

    def write(self, fh, pass_no: int) -> None:
        for nid, t0, t1, parent, item in self.spans:
            fh.write(f"{pass_no},{item},{self.names[nid]},{t0:.9f},{t1:.9f},{parent}\n")


def summarize(tracers: list[Tracer], traced_walls: list[float],
              untraced_walls: list[float]) -> tuple[dict, bool]:
    """Per-pass medians of the times, exact per-pass counts, the tracing
    overhead (traced minus untraced pass time) and the share of item time no
    span covers; the flag says whether every count repeated across passes."""
    per_pass = [t.layer_metrics() for t in tracers]
    units = dict(METRICS)
    out = {}
    repeat = True
    for name in per_pass[0]:
        vals = [p[name] for p in per_pass]
        if units[name] == "count":
            repeat &= all(v == vals[0] for v in vals)
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    traced = statistics.median(traced_walls)
    out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    uncovered = sum(w - t.covered() for t, w in zip(tracers, traced_walls))
    out["trace.uncovered_frac"] = uncovered / sum(traced_walls)
    return out, repeat


def write_spans(path, tracers: list[Tracer]) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("pass,item,name,start,end,parent\n")
        for k, t in enumerate(tracers):
            t.write(fh, k)
