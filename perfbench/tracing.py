"""Span tracing of the package's layers from outside the package.

`Tracer.install()` wraps the public functions of each layer by rebinding
their names in every `nonmarkov` module that holds them, and wraps the
spectral-density methods on their classes.  Each call records a span
(id, name, start, end, parent, thread, points, failed) in memory.
`Tracer.restore()` puts every original back.

A span's parent is the innermost open span on the same thread.  Sweep
workers run on pool threads with no open span of their own, so their
outermost spans take the enclosing `cli.main` span as parent.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (layer module, attribute, span name, index of the ω argument or None)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("quantifiers", "quantify", "quantifiers.quantify", None),
    ("quantifiers", "divisibility_quantifier",
     "quantifiers.divisibility_quantifier", None),
    ("quantifiers", "regression_quantifier",
     "quantifiers.regression_quantifier", None),
    ("correlations", "covariance0", "correlations.covariance0", None),
    ("correlations", "exact_entries_vec", "correlations.exact_entries_vec", 2),
    ("correlations", "rt_entries_vec", "correlations.rt_entries_vec", 2),
    ("response", "chi_qq_vec", "response.chi_qq_vec", 2),
    ("response", "chi_qq_prime_vec", "response.chi_qq_prime_vec", 2),
    ("response", "feature_frequencies", "response.feature_frequencies", None),
    ("response", "chi_time", "response.chi_time", None),
    ("response", "propagate_means", "response.propagate_means", None),
    ("quadrature", "principal_value", "quadrature.principal_value", None),
    ("quadrature", "inner_product_info", "quadrature.inner_product_info", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("quadrature", "sine_transform", "quadrature.sine_transform", None),
    ("quadrature", "cosine_transform", "quadrature.cosine_transform", None),
    ("oracle", "embedding_response", "oracle.embedding_response", None),
)

# (class name, method, span name, index of the ω argument or None)
METHODS = (
    ("OhmicSD", "gamma_tilde_vec", "spectral.analytic.gamma_tilde_vec", 1),
    ("PeakedSD", "gamma_tilde_vec", "spectral.analytic.gamma_tilde_vec", 1),
    ("TabulatedSD", "gamma_tilde_vec", "spectral.tabulated.gamma_tilde_vec", 1),
    ("TabulatedSD", "gamma_tilde_prime_vec",
     "spectral.tabulated.gamma_tilde_prime_vec", 1),
)
FROM_FILE = "spectral.tabulated.from_file"


def _points(args, index):
    if index is None or len(args) <= index:
        return 0
    return int(np.size(args[index]))


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread, points, failed)
        self.panels = 0          # Σ EntryDiagnostics.panels of quantify reports
        self.nonzero_tab_points = 0
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None        # open cli.main span, parent of pool-thread roots
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, name, omega_index):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            is_main = name == "cli.main"
            if is_main:
                tracer._root = span_id
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_main:
                    tracer._root = None
                points = _points(args, omega_index)
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(), points, failed))
                if not failed:
                    tracer._count_extras(name, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_extras(self, name, args, result):
        if name == "quantifiers.quantify":
            # the pq entry aliases qp, so it is counted once
            self.panels += sum(d.panels for key, d in
                               result.diagnostics.items()
                               if not key.endswith("_pq"))
        elif name == "spectral.tabulated.gamma_tilde_vec":
            self.nonzero_tab_points += int(np.count_nonzero(args[1]))

    # -- installing --------------------------------------------------------
    def install(self):
        from nonmarkov import spectral

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nonmarkov" or n.startswith("nonmarkov."))
                   and m is not None]
        for layer, attr, name, index in FUNCTIONS:
            orig = getattr(sys.modules[f"nonmarkov.{layer}"], attr)
            wrapped = self._wrap(orig, name, index)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig, True))
                    setattr(mod, attr, wrapped)
        for cls_name, attr, name, index in METHODS:
            cls = getattr(spectral, cls_name)
            own = attr in cls.__dict__
            orig = getattr(cls, attr)
            self._undo.append((cls, attr, cls.__dict__.get(attr), own))
            setattr(cls, attr, self._wrap(orig, name, index))
        cls = spectral.TabulatedSD
        orig = cls.__dict__["from_file"]
        self._undo.append((cls, "from_file", orig, True))
        cls.from_file = classmethod(self._wrap(orig.__func__, FROM_FILE, None))

    def restore(self):
        for owner, attr, orig, own in reversed(self._undo):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def aggregate(self):
        """Per-name calls, points, failed, wall and self time.

        Self time is a span's duration minus the union of its children's
        intervals (clipped to the span), so overlapping pool-thread
        children are not subtracted twice.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        stats = defaultdict(lambda: {"calls": 0, "points": 0, "failed": 0,
                                     "wall_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, _, points, failed in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            s = stats[name]
            s["calls"] += 1
            s["points"] += points
            s["failed"] += int(failed)
            s["wall_s"] += end - start
            s["self_s"] += (end - start) - covered
        return stats
