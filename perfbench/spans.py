"""Spans recorded from outside the package, and the per-layer figures built from them.

``install`` wraps the public functions of each causal_pvar module.  Modules
bind functions by name (``from .panel import fit_pvar``), so a wrapper is
installed in every causal_pvar namespace that holds the original object;
``uninstall`` puts the originals back.  Spans live in memory until the
traced pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

# module -> public functions traced in it.  Private helpers (``_regenerate``)
# stay inside their caller's self time.
TRACED = {
    "io": ("load_panel_csv", "write_panel_csv", "write_records"),
    "panel": ("panel_from_records", "fit_pvar"),
    "scenarios": ("simulate_scenario", "simulate_var_panel"),
    "identify": ("bootstrap_irf", "cholesky_lower", "irf"),
    "diagnostics": ("lag_criteria", "residual_autocorr", "stationarity"),
    "estimands": ("oracle_estimands", "did_four_means", "dummy_gamma"),
    "weights": ("gaussian_weights", "nonneg_weights", "weighted_estimand"),
    "spillover": ("spillover_regression", "build_exposure", "oracle_atte_aste",
                  "verify_interference"),
    "verify": ("verify_theorem",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.counts = {}
        self.end = None
        self.start = perf_counter()


class Tracer:
    """Collects spans.  A span opened on a worker thread with no open span of
    its own attaches to the innermost open span of the main thread, which
    during a threaded bootstrap is ``identify.bootstrap_irf``."""

    def __init__(self):
        self.spans = []
        self._main = []
        self._local = threading.local()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        span = Span(name, parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()


def _po_bytes(result):
    _, pop = result
    total = 0
    for holder in (pop, pop.exposure):
        if holder is not None:
            total += sum(v.nbytes for v in vars(holder).values() if hasattr(v, "nbytes"))
    return {"po_bytes": total}


def _panel_rows(panel):
    return {"rows": panel.values.shape[0] * panel.values.shape[1]}


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


# "module.function" -> counters taken from (arguments, result) after a call
COUNTERS = {
    "io.load_panel_csv": lambda a, r: _panel_rows(r),
    "io.write_panel_csv": lambda a, r: _panel_rows(a["panel"]),
    "io.write_records": lambda a, r: {"rows": len(a["records"])} if hasattr(a["records"], "__len__") else {},
    "panel.fit_pvar": lambda a, r: _panel_rows(a["panel"]),
    "scenarios.simulate_scenario": lambda a, r: _po_bytes(r),
    "spillover.spillover_regression": lambda a, r: {"draws": int(a["n_reps"])},
}


def _wrap(tracer, name, fn):
    counter = COUNTERS.get(name)
    arguments = _bound(fn)
    per_theorem = name == "verify.verify_theorem"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = f"{name}.{arguments(args, kwargs)['theorem'].upper()}" if per_theorem else name
        span = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts.update(counter(arguments(args, kwargs), result))
        return result

    return wrapper


def install(tracer):
    """Wrap every function in TRACED wherever causal_pvar binds it; return an undo callable."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "causal_pvar" or n.startswith("causal_pvar."))]
    patched = []
    for module, names in TRACED.items():
        home = sys.modules[f"causal_pvar.{module}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = _wrap(tracer, f"{module}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        patched.append((ns, attr, original))

    def uninstall():
        for ns, attr, original in patched:
            setattr(ns, attr, original)

    return uninstall


def union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, pass_start, pass_end):
    """Per-name totals of one traced pass.

    Returns ``(stats, bench_self_s)``.  ``stats[key]`` holds ``s`` (summed
    duration), ``self_s`` (duration minus the union of child intervals),
    ``calls``, ``child_s`` (summed child durations) and summed counters.
    Spans of the ``identify`` module are keyed per irf command, as
    ``identify.<fn>.t1`` / ``.tmax``; outside an irf command they are
    keyed without a suffix.
    """
    children = {}
    for sp in spans:
        children.setdefault(id(sp.parent), []).append(sp)

    def top(sp):
        while sp.parent is not None:
            sp = sp.parent
        return sp

    stats = {}
    for sp in spans:
        kids = children.get(id(sp), [])
        dur = sp.end - sp.start
        key = sp.name
        if key.startswith("identify."):
            root = top(sp).name
            if root.startswith("cli.irf."):
                key = f"{key}.{root.rsplit('.', 1)[1]}"
        entry = stats.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0, "child_s": 0.0})
        entry["s"] += dur
        entry["self_s"] += dur - union_length([(k.start, k.end) for k in kids], sp.start, sp.end)
        entry["calls"] += 1
        entry["child_s"] += sum(k.end - k.start for k in kids)
        for name, value in sp.counts.items():
            entry[name] = entry.get(name, 0) + value
    roots = [(sp.start, sp.end) for sp in spans if sp.parent is None]
    bench_self = (pass_end - pass_start) - union_length(roots, pass_start, pass_end)
    return stats, bench_self
