"""Spans around oscillab's public functions, recorded from outside the library.

A ``Tracer`` replaces each instrumented function at every place it is looked
up (``criteria.rho`` as well as ``geometry.rho``, ``nevanlinna.preimages`` as
called from ``_counting_batch``, methods on their class) with a wrapper that
records a span: name, start, end and the index of the enclosing span.  Spans
stay in memory and are written out by ``dump``.  Counts that need a call's
arguments or result (kernel evaluations, grid rounds, cap hits...) are
accumulated by per-site hooks at the same boundary.

A layer's self time is its spans' durations minus the time covered by their
child spans.  Everything here runs only in traced runs; untraced runs never
import the instrumentation.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: bytes of temporaries the Poisson sweeps materialize per kernel evaluation:
#: zeta - a (complex, 16), |zeta - a|^2 (8 + 8), the kernel (8), f - f(a)
#: (16), its squared modulus (8 + 8) and the weighted product (8)
SWEEP_BYTES_PER_EVAL = 80

PROFILE_KINDS = ("L", "VMOA-iii", "S1", "A-double", "A-prime", "A-hyp-double",
                 "A-hyp-center", "W1", "W2", "S2")


def _calls_s(prefix: str) -> list[tuple[str, str]]:
    return [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]


#: every per-layer metric a traced run reports, with its unit
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    [("geometry.rho.calls", "count"), ("geometry.rho.elements", "count"), ("geometry.rho.s", "s"),
     ("geometry.poisson_kernel.calls", "count"), ("geometry.poisson_kernel.elements", "count"),
     ("geometry.poisson_kernel.s", "s")]
    + _calls_s("geometry.tau_capped") + _calls_s("geometry.arc_of")
    + _calls_s("symbols.certificate") + [("symbols.certificate.repeat_ratio", "ratio")]
    + _calls_s("symbols.boundary_values")
    + [("symbols.boundary_values.samples", "count"), ("symbols.boundary_values.repeat_ratio", "ratio")]
    + _calls_s("symbols.roots_of_unity")
    + _calls_s("symbols.eval") + [("symbols.eval.points", "count")]
    + _calls_s("symbols.taylor")
    + _calls_s("hardy.poisson_gamma_sweep")
    + [("hardy.poisson_gamma_sweep.points", "count"),
       ("hardy.poisson_gamma_sweep.kernel_evals", "count"),
       ("hardy.poisson_gamma_sweep.bytes_computed", "B")]
    + _calls_s("hardy.garsia_gamma") + [("hardy.garsia_gamma.grid_rounds", "count")]
    + _calls_s("hardy.bmoa_seminorm")
    + [("hardy.grid_n.max", "count"), ("hardy.grid_n.at_cap", "count")]
    + _calls_s("criteria.l_values")
    + [("criteria.l_values.points", "count"), ("criteria.l_values.kernel_evals", "count")]
    + _calls_s("criteria.l_statistic") + [("criteria.l_statistic.grid_rounds", "count")]
    + _calls_s("criteria.arc_mean")
    + _calls_s("criteria.arc_double_average") + [("criteria.arc_double_average.evaluations", "count")]
    + _calls_s("criteria.arc_center_average") + [("criteria.arc_center_average.evaluations", "count")]
    + _calls_s("criteria.w1_statistic") + _calls_s("criteria.w2_statistic")
    + _calls_s("criteria.composite_norm_routes")
    + [("criteria.verdict.s", "s")]
    + [(f"criteria.profile.{kind}.s", "s") for kind in PROFILE_KINDS]
    + [("criteria.tau_cap_hits", "count"), ("criteria.levels.unresolved", "count")]
    + _calls_s("nevanlinna.to_rational") + [("nevanlinna.to_rational.degree_max", "count")]
    + _calls_s("nevanlinna.s1_statistic") + [("nevanlinna.s1_statistic.flagged", "count")]
    + _calls_s("nevanlinna.preimages") + [("nevanlinna.preimages_per_s1", "ratio")]
    + _calls_s("dyadic.density_core") + _calls_s("dyadic.wik_decomposition")
    + [("dyadic.verify.s", "s"), ("dyadic.intersect_measure.calls", "count"),
       ("dyadic.stopping_arcs", "count")]
    + _calls_s("leibov.select_subsequence") + _calls_s("leibov.combination_seminorm")
    + _calls_s("leibov.circle_sup_gamma") + [("leibov.gamma_combination.calls", "count")]
    + [("gallery.compute_profiles.s", "s"), ("gallery.tasks", "count"),
       ("gallery.verdicts.s", "s"), ("gallery.worker_busy_frac", "ratio")]
    + _calls_s("sweep.run_sweep") + [("sweep.config.s", "s")]
    + _calls_s("sweep.write") + [("sweep.write.bytes", "B")]
    + [("cli.main.s", "s")]
)


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """A wrapper of ``fn`` recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``before(args, kwargs)`` returns a token handed to
        ``after(tracer, span, args, kwargs, result, token)``.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            token = before(args, kwargs) if before is not None else None
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(time.perf_counter())
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.end[idx] = time.perf_counter()
            if after is not None:
                after(tracer, idx, args, kwargs, result, token)
            return result

        return traced

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] += value

    def maximum(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts[metric], value)

    def repeat(self, prefix: str, key) -> None:
        """Count a request whose key was already requested in this trace."""
        if key in self._seen[prefix]:
            self.counts[f"{prefix}.repeats"] += 1
        else:
            self._seen[prefix].add(key)

    def has_children(self, idx: int) -> bool:
        return len(self.name) > idx + 1

    def children_named(self, idx: int, name: str) -> int:
        nid = self._ids.get(name)
        return sum(1 for j in range(idx + 1, len(self.name))
                   if self.parent[j] == idx and self.name[j] == nid)

    # -- patching ------------------------------------------------------------------

    def patch_function(self, module, attr: str, name, before=None, after=None) -> None:
        """Wrap ``module.attr`` at every oscillab module that refers to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, before, after)
        for mod in [m for key, m in sys.modules.items()
                    if key == "oscillab" or key.startswith("oscillab.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name, before=None, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, before, after))
        else:
            wrapped = self.wrap(raw, name, before, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric: span calls and self times, then the counts."""
        n = len(self.name)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.name, dtype=np.int32)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        values: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            sel = names == nid
            values[f"{label}.calls"] = int(np.count_nonzero(sel))
            values[f"{label}.s"] = float(np.sum(dur[sel] - child[sel]))
        values.update(self.counts)
        for prefix in ("symbols.certificate", "symbols.boundary_values"):
            calls = values.get(f"{prefix}.calls", 0)
            values[f"{prefix}.repeat_ratio"] = (
                values.get(f"{prefix}.repeats", 0) / calls if calls else 0.0)
        s1_calls = values.get("nevanlinna.s1_statistic.calls", 0)
        values["nevanlinna.preimages_per_s1"] = (
            values.get("nevanlinna.preimages.calls", 0) / s1_calls if s1_calls else 0.0)
        capacity = values.get("gallery.capacity_s", 0.0)
        values["gallery.worker_busy_frac"] = (
            values.get("gallery.busy_cpu_s", 0.0) / capacity if capacity else 0.0)
        verdict_id = self._ids.get("criteria.verdict")
        run_id = self._ids.get("gallery.run_gallery")
        if verdict_id is not None and run_id is not None:
            sel = (names == verdict_id) & (parent >= 0)
            sel[sel] = names[parent[sel]] == run_id
            values["gallery.verdicts.s"] = float(np.sum(dur[sel]))
        return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}

    def dump(self, path: str) -> None:
        n = len(self.name)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 start=np.frombuffer(self.start, dtype=float)[:n],
                 end=np.frombuffer(self.end, dtype=float)[:n])


# ---------------------------------------------------------------------------
# the instrumented boundaries
# ---------------------------------------------------------------------------

def _result_size(metric):
    def after(t, idx, args, kwargs, result, token):
        t.add(metric, np.size(result))
    return after


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _grid_rounds(metric):
    def after(t, idx, args, kwargs, result, token):
        t.add(metric, t.children_named(idx, "geometry.poisson_kernel"))
    return after


def instrument(tracer: Tracer) -> None:
    """Install spans and counters on every boundary listed in PER_LAYER."""
    from oscillab import (cli, criteria, dyadic, gallery, geometry, hardy, leibov,
                          nevanlinna, sweep, symbols)

    pf, pm = tracer.patch_function, tracer.patch_method
    grid_size_for = hardy.grid_size_for

    def kernel_evals(points, base_n) -> int:
        return sum(grid_size_for(a, base_n) for a in np.asarray(points, dtype=complex))

    # geometry
    pf(geometry, "rho", "geometry.rho", after=_result_size("geometry.rho.elements"))
    pf(geometry, "poisson_kernel", "geometry.poisson_kernel",
       after=_result_size("geometry.poisson_kernel.elements"))
    pf(geometry, "tau_capped", "geometry.tau_capped")
    pf(geometry, "arc_of", "geometry.arc_of")

    # symbols
    pf(symbols, "certificate", "symbols.certificate",
       after=lambda t, i, a, k, r, _: t.repeat("symbols.certificate", a[0]))

    def boundary_after(t, idx, args, kwargs, result, token):
        t.add("symbols.boundary_values.samples", len(result))
        t.repeat("symbols.boundary_values", (args[0], len(result)))

    pf(symbols, "raw_boundary_values", "symbols.boundary_values", after=boundary_after)

    def roots_after(t, idx, args, kwargs, result, token):
        t.maximum("hardy.grid_n.max", len(result))
        if len(result) >= hardy.MAX_GRID:
            t.add("hardy.grid_n.at_cap", 1)

    pf(symbols, "roots_of_unity", "symbols.roots_of_unity", after=roots_after)
    pm(symbols.Symbol, "eval", "symbols.eval",
       after=lambda t, i, a, k, r, _: t.add("symbols.eval.points", np.size(r)))
    pf(symbols, "taylor", "symbols.taylor")

    # hardy
    sweep_fn = hardy.poisson_gamma_sweep

    def sweep_after(t, idx, args, kwargs, result, token):
        points = _argument(sweep_fn, args, kwargs, "points")
        evals = kernel_evals(points, _argument(sweep_fn, args, kwargs, "base_n"))
        t.add("hardy.poisson_gamma_sweep.points", len(result))
        t.add("hardy.poisson_gamma_sweep.kernel_evals", evals)
        t.add("hardy.poisson_gamma_sweep.bytes_computed", evals * SWEEP_BYTES_PER_EVAL)

    pf(hardy, "poisson_gamma_sweep", "hardy.poisson_gamma_sweep", after=sweep_after)
    pf(hardy, "garsia_gamma", "hardy.garsia_gamma",
       after=_grid_rounds("hardy.garsia_gamma.grid_rounds"))
    pf(hardy, "bmoa_seminorm", "hardy.bmoa_seminorm")

    # criteria
    def l_values_after(t, idx, args, kwargs, result, token):
        if t.has_children(idx):     # a cached sweep returns without work
            sweep_obj = args[0]
            t.add("criteria.l_values.points", len(result))
            t.add("criteria.l_values.kernel_evals",
                  kernel_evals(sweep_obj.grid, sweep_obj.settings.base_n))

    pm(criteria.CriterionSweep, "l_values", "criteria.l_values", after=l_values_after)
    pf(criteria, "l_statistic", "criteria.l_statistic",
       after=_grid_rounds("criteria.l_statistic.grid_rounds"))
    pf(criteria, "arc_mean", "criteria.arc_mean")
    for fn in ("arc_double_average", "arc_center_average"):
        pf(criteria, fn, f"criteria.{fn}",
           after=lambda t, i, a, k, r, _, fn=fn: t.add(f"criteria.{fn}.evaluations", r.evaluations))
    for fn in ("w1_statistic", "w2_statistic", "composite_norm_routes", "verdict"):
        pf(criteria, fn, f"criteria.{fn}")

    def profile_after(t, idx, args, kwargs, result, token):
        for prof in result if isinstance(result, list) else [result]:
            t.add("criteria.tau_cap_hits", sum(prof.metadata.get("tau_cap_hits", [])))
            t.add("criteria.levels.unresolved",
                  sum(1 for lev in prof.metadata.get("levels", [])
                      if lev["status"] == "unresolved"))

    pm(criteria.CriterionSweep, "profile",
       lambda args, kwargs: f"criteria.profile.{args[1] if len(args) > 1 else kwargs['kind']}",
       after=profile_after)

    # nevanlinna
    pf(nevanlinna, "to_rational", "nevanlinna.to_rational",
       after=lambda t, i, a, k, r, _: t.maximum("nevanlinna.to_rational.degree_max", r.degree))
    pf(nevanlinna, "s1_statistic", "nevanlinna.s1_statistic",
       after=lambda t, i, a, k, r, _: t.add("nevanlinna.s1_statistic.flagged", int(r.flagged)))
    pf(nevanlinna, "preimages", "nevanlinna.preimages")

    # dyadic
    pf(dyadic, "density_core", "dyadic.density_core",
       after=lambda t, i, a, k, r, _: t.add("dyadic.stopping_arcs", len(r.stopping)))
    pf(dyadic, "wik_decomposition", "dyadic.wik_decomposition",
       after=lambda t, i, a, k, r, _: t.add("dyadic.stopping_arcs", len(r.arcs)))
    pf(dyadic, "verify_wik", "dyadic.verify")
    pf(dyadic, "verify_density_bound", "dyadic.verify")
    pf(dyadic, "intersect_measure", "dyadic.intersect_measure")

    # leibov
    for fn in ("select_subsequence", "combination_seminorm", "circle_sup_gamma",
               "gamma_combination"):
        pf(leibov, fn, f"leibov.{fn}")

    # gallery
    compute_fn = gallery.compute_gallery_profiles

    def cpu(who) -> float:
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    def compute_before(args, kwargs):
        return time.perf_counter(), cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)

    def compute_after(t, idx, args, kwargs, result, token):
        wall0, own0, children0 = token
        wall = time.perf_counter() - wall0
        workers = gallery.resolve_workers(_argument(compute_fn, args, kwargs, "workers"))
        if workers > 1:
            busy = cpu(resource.RUSAGE_CHILDREN) - children0
        else:
            busy = cpu(resource.RUSAGE_SELF) - own0
        t.add("gallery.busy_cpu_s", busy)
        t.add("gallery.capacity_s", workers * wall)
        t.add("gallery.tasks", len(gallery.GALLERY)
              * len(_argument(compute_fn, args, kwargs, "kinds")))

    pf(gallery, "compute_gallery_profiles", "gallery.compute_profiles",
       before=compute_before, after=compute_after)
    pf(gallery, "run_gallery", "gallery.run_gallery")

    # sweep and cli
    pf(sweep, "run_sweep", "sweep.run_sweep")
    pm(sweep.SweepConfig, "from_json", "sweep.config")
    for fn in ("write_profiles_csv", "write_json"):
        pf(sweep, fn, "sweep.write",
           after=lambda t, i, a, k, r, _: t.add("sweep.write.bytes", os.path.getsize(a[1])))
    pf(cli, "main", "cli.main")
