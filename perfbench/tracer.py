"""Span tracer for qstar's layers, installed from outside the package.

The tracer replaces the module-level names through which one qstar layer
calls another (``qstar.search.schur_expand``, ``qstar.cli.sharpness_report``,
the ``PowerSeries`` operators, ...) with wrappers that record a span: which
name, start, end, and the span that was open when it started.  ``remove``
puts every original back.  Spans live in flat arrays while tracing and are
written once, at the end.

A layer is the qstar module that defines the called code, so a span's self
time (its duration minus its children's) is charged to that module.  A name
that no longer exists is reported as absent and skipped, so a change that
deletes one does not break the benchmark; a layer whose names are all absent
is reported as an absent layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "search", "schwarz", "starlike", "series", "functionals", "bounds")

_POWER_SERIES_METHODS = (
    "__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "reciprocal", "shift",
    "resize", "compose", "constant", "identity", "monomial", "from_coeffs",
)

#: (module, attribute path, layer of the called code)
TARGETS = (
    ("qstar.cli", "run", "cli"),
    ("qstar.cli", "sharpness_report", "search"),
    ("qstar.cli", "random_schwarz_suite", "search"),
    ("qstar.cli", "bound_value", "bounds"),
    ("qstar.cli", "disk_quadratic_max_closed", "bounds"),
    ("qstar.cli", "disk_quadratic_max_grid", "bounds"),
    ("qstar.cli", "canonical_schwarz", "schwarz"),
    ("qstar.cli", "coeffs_from_schwarz", "starlike"),
    ("qstar.cli", "extremal_product", "starlike"),
    ("qstar.cli", "extremal_by_formula", "starlike"),
    ("qstar.cli", "membership_margin", "starlike"),
    ("qstar.search", "maximize_functional", "search"),
    ("qstar.search", "schur_expand", "schwarz"),
    ("qstar.search", "bound_value", "bounds"),
    ("qstar.search", "product_bound_applies", "bounds"),
    ("qstar.search", "named_functional", "functionals"),
    ("qstar.search", "RAW_FORMULAS", "functionals"),
    ("qstar.search", "q_number", "series"),
    ("qstar.search", "initial_coeffs_closed", "starlike"),
    ("qstar.starlike", "schur_test", "schwarz"),
    ("qstar.starlike", "exp_series", "series"),
    ("qstar.starlike", "one_minus_power", "series"),
    ("qstar.starlike", "q_number", "series"),
    ("qstar.bounds", "q_number", "series"),
) + tuple(("qstar.series", f"PowerSeries.{m}", "series") for m in _POWER_SERIES_METHODS)


def _evaluations(bound, result):
    return result.evaluations


def _suite_samples(bound, result):
    # the requested draws plus the two forced samples (w = 0 and w = z)
    return bound.arguments["count"] + 2


#: exact work counts read off a traced call: (module, attribute) -> counter
COUNTERS = {
    ("qstar.search", "maximize_functional"): _evaluations,
    ("qstar.cli", "random_schwarz_suite"): _suite_samples,
}


class Tracer:
    """Records spans around the names in ``TARGETS`` between install and remove."""

    def __init__(self):
        self.labels = []  # span name id -> "module.attribute"
        self.layer_of = []  # span name id -> layer
        self.absent = []
        self.counts = {}  # "module.attribute" -> summed work count
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._restore = []  # (owner, attribute, original raw value)

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            label = f"{module_name}.{path}"
            nid = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
            if isinstance(raw, dict):
                wrapped = {k: self._wrap(fn, nid) for k, fn in raw.items()}
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, nid))
            else:
                wrapped = self._wrap(raw, nid, COUNTERS.get((module_name, path)))
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def remove(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, nid, count=None):
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack = self._stack
        clock = time.perf_counter
        if count is not None:
            label = self.labels[nid]
            signature = inspect.signature(fn)
            self.counts[label] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[label] += count(bound, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # results

    def summary(self, wall: float) -> dict:
        """Per-name and per-layer calls, inclusive and self time, and the residual.

        ``wall`` is the traced wall time; what the root spans do not cover is
        the benchmark's own residual, so layer self times plus the residual
        add up to ``wall``.
        """
        n = len(self._starts)
        names = np.asarray(self._names)
        parents = np.asarray(self._parents)
        dur = np.asarray(self._ends) - np.asarray(self._starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.labels)
        per_name = {
            label: {
                "layer": self.layer_of[i],
                "calls": int(c),
                "incl_s": float(t),
                "self_s": float(s),
            }
            for i, (label, c, t, s) in enumerate(zip(
                self.labels,
                np.bincount(names, minlength=k),
                np.bincount(names, weights=dur, minlength=k),
                np.bincount(names, weights=self_time, minlength=k),
            ))
        }
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for entry in per_name.values():
            layers[entry["layer"]]["calls"] += entry["calls"]
            layers[entry["layer"]]["self_s"] += entry["self_s"]
        present = {entry["layer"] for entry in per_name.values()}
        return {
            "names": per_name,
            "layers": layers,
            "absent_layers": [layer for layer in LAYERS if layer not in present],
            "residual_s": wall - float(dur[~nested].sum()),
            "min_self_s": float(self_time.min()) if n else 0.0,
            "spans": n,
        }

    def write(self, path) -> None:
        np.savez(
            path,
            labels=np.array(self.labels),
            layers=np.array(self.layer_of),
            name=np.asarray(self._names),
            parent=np.asarray(self._parents),
            start=np.asarray(self._starts),
            end=np.asarray(self._ends),
        )
