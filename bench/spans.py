"""Span recorder that wraps gridclust's public functions from outside.

A :class:`Tracer` replaces selected module-level functions with wrappers
that record one span per call: wall time (``time.perf_counter``), CPU time
(``time.process_time``), the enclosing span, and counts read from the call's
arguments and return value.  Nothing inside gridclust changes; removing the
wrappers restores the original function objects.

This module imports only the standard library, so a CLI child process can
import it before gridclust and time gridclust's own import.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


# Counters take (result, args, kwargs) and return {count_name: number}.


def _n_foci(result, args, kwargs):
    return {"foci": len(result)}


def _watershed_counts(result, args, kwargs):
    return {"cells": int((result.labels >= 0).sum())}


def _kmeans_iters(result, args, kwargs):
    return {"iters": result.iterations}


def _mistic_counts(result, args, kwargs):
    counts = {"focus_cells": len(result.table.counts), "cores": len(result.cores)}
    for cls in ("CHD", "CLD", "CND"):
        counts["cores_" + cls.lower()] = sum(c.dominance == cls for c in result.cores)
    return counts


def _labels_compared(result, args, kwargs):
    return {"labels": len(result.labels_a) + len(result.labels_b)}


def _svg_bytes(result, args, kwargs):
    return {"bytes": len(result.encode("utf-8"))}


TRACED = {
    "gridclust.ingest": {
        "validate_dataset": None,
        "load_dataset": None,
        "build_annual_stack": None,
        "write_dataset": None,
    },
    "gridclust.synth": {"make_planted_stack": None},
    "gridclust.kmeans": {
        "build_features": None,
        "sweep_k": None,
        "run_kmeans": _kmeans_iters,
    },
    "gridclust.mistic": {
        "run_mistic": _mistic_counts,
        "detect_focus_points": _n_foci,
        "watershed_zones": _watershed_counts,
        "build_cores": None,
        "consensus_zone_map": None,
    },
    "gridclust.analysis": {
        "contingency": _labels_compared,
        "matched_jaccard": None,
        "cluster_summary": None,
    },
    "gridclust.gridcore": {"slope_field": None},
    "gridclust.render": {"zone_map_svg": _svg_bytes},
}


def span_name(module: str, func: str) -> str:
    """``gridclust.kmeans`` + ``sweep_k`` -> ``kmeans.sweep_k``."""
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Collects spans in memory; use as a context manager to install wrappers.

    Each span is a dict with ``name``, ``parent`` (index into ``spans`` or
    -1), ``wall``, ``cpu``, ``child_wall``, ``child_cpu`` and ``counts``.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else -1,
            "wall": 0.0,
            "cpu": 0.0,
            "child_wall": 0.0,
            "child_cpu": 0.0,
            "counts": {},
        }
        index = len(self.spans)
        self.spans.append(span)
        self._open.append(index)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["wall"] = time.perf_counter() - w0
            span["cpu"] = time.process_time() - c0
            self._open.pop()
            if span["parent"] >= 0:
                parent = self.spans[span["parent"]]
                parent["child_wall"] += span["wall"]
                parent["child_cpu"] += span["cpu"]
        if counter is not None:
            span["counts"] = counter(result, args, kwargs)
        return result

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, funcs in TRACED.items():
            module = importlib.import_module(module_name)
            for func, counter in funcs.items():
                original = getattr(module, func)
                wrapper = self.wrap(span_name(module_name, func), original, counter)
                # Rebind every gridclust name that refers to the original,
                # including names imported into other modules and the
                # package namespace, so internal calls are traced too.
                for mod in list(sys.modules.values()):
                    modname = getattr(mod, "__name__", "")
                    if modname != "gridclust" and not modname.startswith("gridclust."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def merge(spans: list[dict], more: list[dict]) -> None:
    """Append spans recorded in another process, re-basing parent indices."""
    offset = len(spans)
    for span in more:
        span = dict(span)
        if span["parent"] >= 0:
            span["parent"] += offset
        spans.append(span)
