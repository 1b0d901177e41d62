"""In-memory spans around the public functions of substochastic.

A wrapper is bound wherever a ``substochastic`` module holds one of the
functions named in ``LAYERS`` (the defining module, the package namespace and
every module that imported the name), so calls between library modules are
traced as well as the benchmark's own calls.  No library file is changed;
``install`` returns a function that puts the originals back.

A span is a list ``[name, start, end, parent, item, deferred_s, outcome]``.
``deferred_s`` is time charged to the span after it returned: the lazy cycle
stream of ``enumerate_cycles`` does its work while the caller iterates it, so
each ``next`` is timed and added to the span that created the stream.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced public functions, by module.  The layer of a span is its module.
LAYERS = {
    "spectral": (
        "perron_bounds",
        "collatz_wielandt_brackets",
        "perron_root",
        "perron_ladder",
        "charpoly",
        "coates_charpoly",
        "det_i_minus",
        "resolvent_diagonal",
    ),
    "rational": ("det_exact", "solve_exact", "inverse_exact", "interpolate_exact"),
    "cycles": (
        "enumerate_cycles",
        "sup_cycle_gain",
        "is_cycle_transversal",
        "min_cycle_transversal",
    ),
    "families": ("truncate",),
    "classify": ("green_partial_sums", "classify_recurrence"),
    "inequalities": (
        "check_boyle_handelman",
        "check_ksv",
        "check_trace_bounds",
        "check_diag_transversal_bound",
        "check_transversal_product",
        "check_sigma_bound",
        "check_zeta_identity",
        "scan_argmax_conjecture",
        "run_suite",
    ),
    "sweeps": ("run_sweep",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class _TimedStream:
    """Iterator proxy that charges the time of each ``next`` to a span."""

    def __init__(self, stream, rec):
        self._stream = stream
        self._rec = rec

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self._stream)
        finally:
            self._rec[5] += time.perf_counter() - start

    def __getattr__(self, name):
        return getattr(self._stream, name)


class Tracer:
    """Collects spans in memory; ``item`` tags every span opened while set."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        transversal = name == "cycles.min_cycle_transversal"
        lazy = name == "cycles.enumerate_cycles"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if transversal:  # outcome: proved minimum
                rec[6] = out.optimality == "exact"
            return _TimedStream(out, rec) if lazy else out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer):
    """Bind traced wrappers at every import site; return the undo function."""
    wrapped = {}
    for mod, names in LAYERS.items():
        module = sys.modules[f"substochastic.{mod}"]
        for name in names:
            fn = getattr(module, name)
            wrapped[id(fn)] = (fn, tracer.wrap(f"{mod}.{name}", fn))
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "substochastic" and not modname.startswith("substochastic."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


def span_seconds(rec) -> float:
    return rec[2] - rec[1] + rec[5]


def layer_totals(spans) -> dict:
    """name -> [calls, total_s, self_s, exact_outcomes] over a span list.

    Self time is a span's time minus the time of its direct children.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += span_seconds(rec)
    totals: dict = {}
    for i, rec in enumerate(spans):
        t = totals.setdefault(rec[0], [0, 0.0, 0.0, 0])
        dur = span_seconds(rec)
        t[0] += 1
        t[1] += dur
        t[2] += dur - child[i]
        t[3] += rec[6] is True
    return totals


def merge_totals(into: dict, more: dict):
    for name, vals in more.items():
        t = into.setdefault(name, [0, 0.0, 0.0, 0])
        for k in range(4):
            t[k] += vals[k]


def top_level_seconds(spans) -> dict:
    """item -> summed time of the spans that have no parent."""
    out: dict = {}
    for rec in spans:
        if rec[3] < 0:
            out[rec[4]] = out.get(rec[4], 0.0) + span_seconds(rec)
    return out
