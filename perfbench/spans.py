"""Layer spans recorded by rebinding module attributes.

The benchmark traces nullctrl from the outside: each public function of
a layer is replaced, in every module that holds a reference to it, by a
wrapper that records a span (name, op id, parent span, start, end,
exception type, work count).  Spans stay in memory until the run ends.
Nothing is recorded while no op is active, so output checks made
between ops leave no trace.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _expm_matrices(args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["A"])
    return int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1


def _gramian_work(args, kwargs, out):
    return {"nodes": len(out.nodes), "dim": out.dim}


def _substeps(args, kwargs, out):
    return len(out) - 1


def _kept_windows(args, kwargs, out):
    return len(out.controls)


# (module, attribute, span name, work counter applied to (args, kwargs, result))
LAYER_FUNCTIONS = (
    ("scipy.linalg", "expm", "expm", _expm_matrices),
    ("nullctrl.spectral", "mass_matrix", "spectral.mass_matrix", None),
    ("nullctrl.kalman", "kalman_certificate", "kalman.kalman_certificate", None),
    ("nullctrl.kalman", "rank_at", "kalman.rank_at", None),
    ("nullctrl.dynamics", "propagate", "dynamics.propagate", None),
    ("nullctrl.dynamics", "dissipation_check", "dynamics.dissipation_check", None),
    ("nullctrl.hum", "assemble_gramian", "hum.assemble_gramian", _gramian_work),
    ("nullctrl.hum", "synthesize_control", "hum.synthesize_control", None),
    ("nullctrl.hum", "simulate_forward", "hum.simulate_forward", _substeps),
    ("nullctrl.lebeau_robbiano", "build_schedule", "lebeau_robbiano.build_schedule", None),
    ("nullctrl.lebeau_robbiano", "run_lr", "lebeau_robbiano.run_lr", _kept_windows),
)

# span fields
NAME, OP, PARENT, START, END, ERROR, WORK = range(7)


class Tracer:
    """Collects spans of the layer functions while an op is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, self.op, self._stack[-1] if self._stack else None,
                    0.0, 0.0, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Rebind every reference to a layer function to its traced wrapper.

        References are found in ``scipy.linalg`` and every loaded
        ``nullctrl`` module, so names imported from one module into
        another (``hum.expm``, ``lebeau_robbiano.synthesize_control``)
        are traced as well.  The original bindings are restored on exit.
        """
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "scipy.linalg" or name == "nullctrl"
                                         or name.startswith("nullctrl."))]
        restore = []
        try:
            for module_name, attr, span_name, work in LAYER_FUNCTIONS:
                orig = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(span_name, orig, work)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapper)
                            restore.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(restore):
                setattr(holder, key, orig)


def totals(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, work, errors."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "work": defaultdict(int),
                                     "errors": defaultdict(int)})
    for i, s in enumerate(spans):
        t = out[s[NAME]]
        dur = s[END] - s[START]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_time[i]
        if s[ERROR] is not None:
            t["errors"][s[ERROR]] += 1
        w = s[WORK]
        if isinstance(w, dict):
            for k, v in w.items():
                t["work"][k] += v
        elif w is not None:
            t["work"]["n"] += w
    return out


def layer_metrics(by_name: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from span totals of one batch."""
    def get(name):
        return by_name.get(name) or {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "work": {}, "errors": {}}

    sim, ex = get("hum.simulate_forward"), get("expm")
    gram, syn = get("hum.assemble_gramian"), get("hum.synthesize_control")
    sched, lr = get("lebeau_robbiano.build_schedule"), get("lebeau_robbiano.run_lr")
    mass, cert = get("spectral.mass_matrix"), get("kalman.kalman_certificate")
    rank, prop = get("kalman.rank_at"), get("dynamics.propagate")
    diss = get("dynamics.dissipation_check")
    kept = lr["work"].get("n", 0)
    return {
        "hum.simulate_forward.calls": (sim["calls"], "count"),
        "hum.simulate_forward.self_s": (sim["self_s"], "s"),
        "hum.simulate_forward.substeps": (sim["work"].get("n", 0), "count"),
        "expm.calls": (ex["calls"], "count"),
        "expm.matrices": (ex["work"].get("n", 0), "count"),
        "expm.s": (ex["s"], "s"),
        "hum.assemble_gramian.calls": (gram["calls"], "count"),
        "hum.assemble_gramian.self_s": (gram["self_s"], "s"),
        "hum.assemble_gramian.nodes": (gram["work"].get("nodes", 0), "count"),
        "hum.assemble_gramian.dim": (gram["work"].get("dim", 0), "count"),
        "hum.synthesize_control.calls": (syn["calls"], "count"),
        "hum.synthesize_control.self_s": (syn["self_s"], "s"),
        "hum.observability_errors": (syn["errors"].get("ObservabilityError", 0), "count"),
        "lebeau_robbiano.attempts": (sched["calls"], "count"),
        "lebeau_robbiano.windows_useful_frac":
            (kept / syn["calls"] if syn["calls"] else 0.0, "ratio"),
        "spectral.mass_matrix.calls": (mass["calls"], "count"),
        "spectral.mass_matrix.s": (mass["s"], "s"),
        "kalman.kalman_certificate.calls": (cert["calls"], "count"),
        "kalman.kalman_certificate.s": (cert["s"], "s"),
        "kalman.rank_at.calls": (rank["calls"], "count"),
        "dynamics.propagate.calls": (prop["calls"], "count"),
        "dynamics.propagate.s": (prop["s"], "s"),
        "dynamics.dissipation_check.s": (diss["s"], "s"),
    }


COUNT_METRICS = tuple(
    name for name in layer_metrics({})
    if name.endswith(".calls") or name in (
        "expm.matrices", "hum.assemble_gramian.nodes", "lebeau_robbiano.attempts")
)
