"""Spans around the calls between the package's modules.

The package itself records nothing; the tracer replaces module attributes
with timing wrappers for the duration of a traced phase and puts the
originals back afterwards. A span is [name, start, end, parent, info]; spans
stay in memory until the run writes them out. A target that the package no
longer defines is listed as absent instead of failing the run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np


def _product_gather_bytes(args, kwargs, result):
    """Bytes of the arrays product_coeffs gathers from its split tables,
    computed from shapes: the two gathered operands and their product, each
    (batch, C(n, p+r) C(p+r, p), C(n, q+s) C(q+s, q)) float64."""
    n, p, q, w1, r, s, w2 = args if len(args) == 7 and not kwargs else _bind_product(args, kwargs)
    rows = math.comb(n, p + r) * math.comb(p + r, p)
    cols = math.comb(n, q + s) * math.comb(q + s, q)
    b1 = int(np.prod(np.shape(w1)[:-2]))
    b2 = int(np.prod(np.shape(w2)[:-2]))
    b = int(np.prod(np.broadcast_shapes(np.shape(w1)[:-2], np.shape(w2)[:-2])))
    return 8 * rows * cols * (b1 + b2 + b)


_PRODUCT_PARAMS = ("n", "p", "q", "w1", "r", "s", "w2")


def _bind_product(args, kwargs):
    named = dict(zip(_PRODUCT_PARAMS, args), **kwargs)
    return tuple(named[key] for key in _PRODUCT_PARAMS)


def _node_count(args, kwargs, result):
    """(field, node) pairs handed to the pointwise evaluator."""
    vals = args[4] if len(args) > 4 else kwargs["vals"]
    return int(np.size(vals))


def _solver_steps(args, kwargs, result):
    return int(result.steps)


# (module, attribute, span name, patch every binding in the package?,
#  record cache misses only?, info extractor)
TARGETS = (
    ("gbyamabe.forms", "product_coeffs", "forms.product", True, False, _product_gather_bytes),
    ("gbyamabe.forms", "contract_coeffs", "forms.contract", True, False, None),
    ("gbyamabe.indexing", "split_tables", "indexing.split_tables", True, True, None),
    ("gbyamabe.indexing", "insertion_tables", "indexing.insertion_tables", True, True, None),
    ("gbyamabe.spaceform", "zonal_basis", "spaceform.zonal_basis", True, True, None),
    ("gbyamabe.newton", "_gb_values", "spaceform.gb_values", False, False, _node_count),
    ("gbyamabe.spaceform", "_gb_chunk", "spaceform.gb_chunk", False, False, None),
    ("gbyamabe.newton", "_solve_core", "newton.solve", False, False, _solver_steps),
    ("gbyamabe.newton", "_assemble_jacobian", "newton.jacobian", False, False, None),
    ("gbyamabe.newton", "_evaluate", "newton.evaluate", False, False, None),
    ("numpy.linalg", "svd", "linalg.svd", False, False, None),
    ("gbyamabe.newton", "fixed_point_certificate", "newton.certificate", True, False, None),
    ("gbyamabe.invariants", "gauss_bonnet", "invariants.gauss_bonnet", True, False, None),
    ("gbyamabe.invariants", "raw_kronecker_sum", "invariants.kronecker", True, False, None),
    ("gbyamabe.linearization", "generalized_constants", "linearization.generalized_constants", True, False, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, info=None):
        """A span with no parent, such as one op or one set-up; yields its
        index."""
        idx = self._open(name)
        self.spans[idx][4] = info
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name, misses_only, info):
        cache_info = getattr(fn, "cache_info", None) if misses_only else None

        @wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info().misses if cache_info else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if cache_info and cache_info().misses == before and idx == len(self.spans) - 1:
                self.spans.pop()  # a cache hit: not a build
            elif info is not None:
                self.spans[idx][4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        package = [mod for key, mod in sorted(sys.modules.items()) if key == "gbyamabe" or key.startswith("gbyamabe.")]
        for module_name, attr, name, everywhere, misses_only, info in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(original, name, misses_only, info)
            for home in package if everywhere else [module]:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, traced)
                        self._patches.append((home, key, original))

    def uninstall(self) -> None:
        for home, key, original in reversed(self._patches):
            setattr(home, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (s, from the first
        span), parent index (null for roots) and info."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, info in self.spans:
                handle.write(json.dumps([name, start - t0, end - t0, parent, info]) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per root span: its wall time and, per span name below it, the call
    count, inclusive time, self time and summed info.

    Self time is a span's duration minus the time its direct children cover;
    children never overlap because the program runs on one thread. The
    root's own self time is the part of the op no wrapped call covers.
    """
    child_time = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is None:
            root_of[i] = i
        else:
            root_of[i] = root_of[parent]
            child_time[parent] += end - start
    roots: dict[int, dict] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        root = roots.setdefault(root_of[i], {"names": {}})
        if parent is None:
            root.update(name=name, info=info, wall=end - start, remainder=end - start - child_time[i])
            continue
        entry = root["names"].setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "info": 0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[i]
        if info is not None:
            entry["info"] += info
    return roots


# The wall time measured around an op also holds the tracer's own entry and
# exit of the root span and any garbage collection between the clock reads.
ACCOUNT_ABS_S = 2e-3
ACCOUNT_REL = 0.01


def accounting_errors(roots: dict, walls: dict) -> list[str]:
    """Ops whose spans' self times plus the untraced remainder miss the wall
    time measured around the op (walls: root span index -> seconds) by more
    than ACCOUNT_ABS_S + ACCOUNT_REL of it."""
    errors = []
    for idx, wall in walls.items():
        root = roots[idx]
        covered = sum(entry["self"] for entry in root["names"].values()) + root["remainder"]
        if abs(covered - wall) > ACCOUNT_ABS_S + ACCOUNT_REL * wall:
            errors.append(f"trace: spans of a {root['info']} op cover {covered:.6g} s of its {wall:.6g} s")
    return errors
