"""Spans and counts at modmult's layer boundaries, installed from outside.

A wrapper replaces a public function at every name its callers look it up
by.  Callers write ``from .sl2 import realize``, so patching ``modmult.sl2``
alone would miss the call made from ``modmult.reps``.  No source file of
the program changes.

A span is the tuple ``(name, start, end, parent, pass_id)``: ``parent`` is
the index of the enclosing span in the same pass, or ``None``.  Spans stay in
memory until :meth:`Tracer.write`.  A layer's self time is its spans'
duration minus the part their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# self-time metric -> the function whose spans feed it
SPANS = {
    "cli.self_s": "modmult.cli.main",
    "verify.run_self_s": "modmult.verify.run_verify",
    "verify.slope_s": "modmult.verify.detect_slope",
    "verify.lower_bound_s": "modmult.verify.monitor_lower_bound",
    "verify.identity_s": "modmult.verify.check_decomposition_identity",
    "reps.table_s": "modmult.reps.character_table_for",
    "reps.rational_s": "modmult.reps.rational_characters",
    "reps.artin_s": "modmult.reps.artin_decompose",
    "reps.series_s": "modmult.reps.multiplicity_series",
    "sl2.realize_s": "modmult.sl2.realize",
    "sl2.quotient_s": "modmult.sl2.quotient",
    "sl2.cyclics_s": "modmult.sl2.cyclic_subgroups_up_to_conjugacy",
    "cosets.signature_s": "modmult.cosets.subgroup_signature",
    "dimensions.dims_s": "modmult.dimensions.dims",
    "exact.solve_s": "modmult.exact.solve_linear_exact",
}

# call-count metric -> span name
CALLS = {
    "dimensions.dims_calls": "modmult.dimensions.dims",
    "cosets.signature_calls": "modmult.cosets.subgroup_signature",
    "exact.solve_calls": "modmult.exact.solve_linear_exact",
}

# CycloValue methods counted, not spanned: a span per call would move the
# table builders' own time into thousands of tiny children.
CYCLO_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "reduced")


def _measures():
    """Counts taken from the results of a span, keyed by span name."""
    from modmult.sl2 import sl2_group_order

    return {
        "modmult.sl2.quotient": lambda G: {
            "sl2.ambient_order": sl2_group_order(G.level),
            "sl2.G_order": G.order,
            "sl2.classes": len(G.classes),
        },
        "modmult.sl2.cyclic_subgroups_up_to_conjugacy": lambda cyclics: {
            "sl2.cyclic_subgroups": len(cyclics)},
        "modmult.reps.rational_characters": lambda rats: {
            "reps.q_characters": len(rats)},
        "modmult.cosets.subgroup_signature": lambda sig: {
            "cosets.cosets_total": sig.mu_proj},
    }


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


class Tracer:
    """Records spans and counts for one pass while installed."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, measure):
        spans, stack, counts = self.spans, self._stack, self.counts
        pass_id, clock = self.pass_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, pass_id)
            if measure is not None:
                counts.update(measure(result))
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        measures = _measures()
        modules = [m for n, m in sys.modules.items()
                   if n == "modmult" or n.startswith("modmult.")]
        for name in SPANS.values():
            module, _, attr = name.rpartition(".")
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._span(name, original, measures.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        from modmult.exact import CycloValue
        for attr in CYCLO_OPS:
            self._patch(CycloValue, attr,
                        self._counted("exact.cyclo_ops",
                                      getattr(CycloValue, attr)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this pass's spans and counts give."""
        own = self_times(self.spans)
        calls = Counter(span[0] for span in self.spans)
        out = {metric: own.get(name, 0.0) for metric, name in SPANS.items()}
        out.update({metric: calls[name] for metric, name in CALLS.items()})
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Append this pass's spans to a tab-separated span file."""
        with open(path, "a") as fh:
            for sid, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{pass_id}\t{sid}\t"
                         f"{'' if parent is None else parent}\t"
                         f"{name}\t{start!r}\t{end!r}\n")
