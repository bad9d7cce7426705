"""Span tracer wrapped around public skeinlab functions from outside the package.

`Tracer.install()` replaces each target in place: a method on its class, a
module-level function in every loaded `skeinlab` module that holds a
reference to it.  A span target records one span per call (name, start,
end, parent span, job id) and accumulates calls and self time, the span's
duration minus the time its direct child spans cover.  A count target only
counts calls; it is used where a span per call would cost more than the
work it measures.  While `job` is None (the oracle check after each job)
the wrappers call straight through and account nothing, so the figures
are the jobs' own work.  A target that no longer exists is reported in
`missing` and its metrics are left out, so the benchmark runs unchanged
against a refactored engine.

There is no queue or lock in the engine, so no layer waits: wait time is
0 by construction and is not measured.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute, kind, metric suffixes)
TARGETS = (
    ("scalars.mul", "skeinlab.scalars", "ScalarSeries.__mul__", "count", ("calls",)),
    ("ribbon_backend.compose", "skeinlab.ribbon_backend", "Morphism.compose", "span", ("calls", "s")),
    ("ribbon_backend.tensor", "skeinlab.ribbon_backend", "Morphism.tensor", "span", ("calls", "s")),
    ("ribbon_backend.inverse", "skeinlab.ribbon_backend", "Morphism.inverse", "span", ("calls", "s")),
    ("ribbon_backend.flat_apply", "skeinlab.ribbon_backend", "BackendSpec.flat_apply", "span", ("calls", "s")),
    ("ribbon_backend.coherence", "skeinlab.ribbon_backend", "BackendSpec.coherence", "span", ("calls", "s")),
    ("ribbon_backend.hom_basis", "skeinlab.ribbon_backend", "BackendSpec.invariant_hom_basis", "span", ("calls", "s")),
    ("ribbon_backend.cg_decompose", "skeinlab.ribbon_backend", "BackendSpec.cg_decompose", "span", ("calls", "s")),
    ("tangle.rt_evaluate", "skeinlab.tangle", "rt_evaluate", "span", ("calls", "s")),
    ("tangle.apply_move", "skeinlab.tangle", "apply_move", "span", ("s",)),
    ("skein_algebra.mu", "skeinlab.skein_algebra", "mu", "span", ("calls", "s")),
    ("skein_algebra.canonical", "skeinlab.skein_algebra", "SkeinElement.canonical", "span", ("s",)),
    ("skein_algebra.random_element", "skeinlab.skein_algebra", "random_element", "span", ("s",)),
    ("skein_algebra.lift_element", "skeinlab.skein_algebra", "lift_element", "span", ("s",)),
    ("skein_algebra.holonomy_evaluate", "skeinlab.skein_algebra", "holonomy_evaluate", "span", ("s",)),
    ("poisson.sigma_algebraic", "skeinlab.poisson", "sigma_algebraic", "span", ("s",)),
    ("poisson.sigma_goldman", "skeinlab.poisson", "sigma_goldman", "span", ("s",)),
    ("poisson.fock_rosly_sigma", "skeinlab.poisson", "fock_rosly_sigma", "span", ("s",)),
    ("polynomials.mul", "skeinlab.polynomials", "SL2Poly.__mul__", "count", ("calls",)),
)

# metrics computed from arguments or results rather than from spans
OBSERVED = {
    "ribbon_backend.flat_apply": ("ribbon_backend.flat_apply_max_dim", "ribbon_backend.flat_apply_nnz"),
    "ribbon_backend.hom_basis": ("ribbon_backend.hom_basis_distinct",),
}

# imported before installing, so that a rebinding reaches each `from ... import`
ENGINE_MODULES = ("skeinlab", "skeinlab.suites", "skeinlab.cli")


def metric_names():
    """Every per-layer metric the tracer can report, in report order."""
    names = []
    for prefix, _, _, _, suffixes in TARGETS:
        names.extend(f"{prefix}_{s}" for s in suffixes)
        names.extend(OBSERVED.get(prefix, ()))
    return names


def _resolve(module_name, attribute):
    """(owner, name, original) for a target, or None if it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Spans and counters for one traced batch; install, run, uninstall."""

    def __init__(self):
        # index of the running job; None stops accounting
        self.job = None
        self.present = []
        self.missing = []
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.flat_apply_max_dim = 0
        self.flat_apply_nnz = 0
        self.hom_keys = set()
        # spans, column-wise: target index, start, end, parent span, job id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack = []
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _counter(self, idx, fn):
        tracer = self
        calls = self.calls

        def counted(*args, **kwargs):
            if tracer.job is not None:
                calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, idx, fn, observe):
        tracer = self
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs = self.span_parent, self.span_job
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[span] = start
                ends[span] = end
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return spanned

    def _observe_flat_apply(self, args, m):
        self.flat_apply_max_dim = max(self.flat_apply_max_dim, m.source.dim, m.target.dim)
        self.flat_apply_nnz += len(m.entries)

    def _observe_hom_basis(self, args, basis):
        backend, source, target = args
        self.hom_keys.add((backend.name, backend.mode, source, target))

    # -- installation -------------------------------------------------------

    def install(self):
        for name in ENGINE_MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        modules = [m for n, m in sys.modules.items() if n == "skeinlab" or n.startswith("skeinlab.")]
        observers = {
            "ribbon_backend.flat_apply": self._observe_flat_apply,
            "ribbon_backend.hom_basis": self._observe_hom_basis,
        }
        for idx, (prefix, module_name, attribute, kind, _) in enumerate(TARGETS):
            found = _resolve(module_name, attribute)
            if found is None:
                self.missing.append(prefix)
                continue
            owner, name, original = found
            if kind == "count":
                wrapper = self._counter(idx, original)
            else:
                wrapper = self._span(idx, original, observers.get(prefix))
            self.present.append(prefix)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                self._restore.append((owner, name, original))
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self):
        """{metric name: value} for every present target."""
        out = {}
        for idx, (prefix, _, _, _, suffixes) in enumerate(TARGETS):
            if prefix not in self.present:
                continue
            for s in suffixes:
                out[f"{prefix}_{s}"] = self.calls[idx] if s == "calls" else self.self_s[idx]
        if "ribbon_backend.flat_apply" in self.present:
            out["ribbon_backend.flat_apply_max_dim"] = self.flat_apply_max_dim
            out["ribbon_backend.flat_apply_nnz"] = self.flat_apply_nnz
        if "ribbon_backend.hom_basis" in self.present:
            out["ribbon_backend.hom_basis_distinct"] = len(self.hom_keys)
        return out

    def write_spans(self, path):
        """Write the spans as JSON columns, times in seconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        data = {
            "names": [t[0] for t in TARGETS],
            "name": self.span_name.tolist(),
            "start": [round(t - t0, 7) for t in self.span_start],
            "end": [round(t - t0, 7) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
