"""Spans around singfem's public functions, recorded from outside the package.

The traced run replaces selected functions in every namespace that
imported them by name, so each call records a span (name, start, end,
parent) in memory.  A layer's self time is its span's duration minus the
durations of its child spans, so the self times of one command sum to the
command's traced wall time.  Counts come from the arguments and the
values the wrapped calls return, never from inside the solvers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# Self-time metrics, one per span key; their sum is the traced command time.
TIME_KEYS = (
    "cli.self",
    "geometry.build",
    "geometry.refine",
    "geometry.partition",
    "geometry.serialize",
    "geometry.path_lengths",
    "fem.stiffness",
    "fem.grad_test",
    "fem.mass",
    "fem.field_json",
    "laplace.cg",
    "laplace.solve_mixed",
    "plaplace.factor",
    "plaplace.solve",
    "plaplace.certificate",
    "verify.holder",
)

LEVELS = (0, 1, 2, 3)

COUNT_KEYS = (
    "geometry.refine_calls",
    "geometry.content_hash_calls",
    "geometry.dijkstra_sources",
    "geometry.partition_calls",
    "fem.stiffness_calls",
    "fem.grad_test_calls",
    "laplace.cg_calls",
    "laplace.cg_iters",
    *(f"laplace.cg_iters.L{lev}" for lev in LEVELS),
    "plaplace.factor_calls",
    "plaplace.irls_iters",
    "plaplace.stages",
    "plaplace.useful_stages",
    "verify.holder_calls",
)


class Span:
    __slots__ = ("key", "name", "parent", "start", "end", "attrs")

    def __init__(self, key, name, parent):
        self.key = key
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.attrs = {}


class Tracer:
    """Records the spans of one command at a time; keeps all of them."""

    def __init__(self):
        self.commands = []  # one list of spans per traced command
        self._spans = None
        self._stack = []
        self._undo = []
        self._mesh_level = {}  # id(mesh) -> (mesh, refinement level)

    # -- recording ----------------------------------------------------------

    def _open(self, key, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(key, name, parent)
        self._spans.append(span)
        self._stack.append(len(self._spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def command(self, fn, *args):
        """Run fn(*args) as the root span of one traced command."""
        self._spans = []
        self._mesh_level = {}
        root = self._open("cli.self", "cli.main")
        try:
            return fn(*args)
        finally:
            self._close(root)
            self.commands.append(self._spans)
            self._spans = None

    def _wrap(self, key, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._spans is None:
                return fn(*args, **kwargs)
            span = tracer._open(key, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    # -- mesh refinement levels ---------------------------------------------

    def _level_of(self, mesh):
        entry = self._mesh_level.get(id(mesh))
        return None if entry is None or entry[0] is not mesh else entry[1]

    def _set_level(self, mesh, level):
        if level is not None:
            self._mesh_level[id(mesh)] = (mesh, level)

    def _built(self, args, kwargs, mesh):
        self._set_level(mesh, 0)
        return {}

    def _refined(self, args, kwargs, mesh):
        parent = self._level_of(args[0])
        self._set_level(mesh, None if parent is None else parent + 1)
        return {}

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch the traced functions; `uninstall` restores them."""
        cli = importlib.import_module("singfem.cli")
        fem = importlib.import_module("singfem.fem")
        laplace = importlib.import_module("singfem.laplace")
        plaplace = importlib.import_module("singfem.plaplace")
        verify = importlib.import_module("singfem.verify")
        geometry = importlib.import_module("singfem.geometry")

        def cg_iters(args, kwargs, result):
            return {"iters": int(result[1])}

        def sources(args, kwargs, result):
            return {"sources": len(args[1] if len(args) > 1 else kwargs["sources"])}

        def mixed(args, kwargs, result):
            return {"level": self._level_of(args[0].partition.mesh)}

        def plap(args, kwargs, result):
            stages = [s for s in result[1].iterations if s["stage"] != "warm_start"]
            return {
                "level": self._level_of(args[0].mesh),
                "stages": len(stages),
                "useful_stages": sum(1 for s in stages if s["iterations"] > 0),
                "irls_iters": sum(int(s["iterations"]) for s in stages),
            }

        targets = (
            # (owners that hold the name, attribute, span key, attrs)
            ((cli,), "build_domain", "geometry.build", self._built),
            ((cli,), "refine", "geometry.refine", self._refined),
            ((cli,), "partition_by_tags", "geometry.partition", None),
            ((geometry.Mesh,), "to_json_dict", "geometry.serialize", None),
            ((geometry.Mesh,), "content_hash", "geometry.serialize", None),
            ((verify,), "path_lengths", "geometry.path_lengths", sources),
            ((fem,), "stiffness_matrix", "fem.stiffness", None),
            ((fem,), "grad_test_vector", "fem.grad_test", None),
            ((fem,), "mass_matrix", "fem.mass", None),
            ((fem,), "field_json_dict", "fem.field_json", None),
            ((laplace, plaplace, verify), "conjugate_gradient", "laplace.cg", cg_iters),
            ((cli,), "solve_mixed", "laplace.solve_mixed", mixed),
            ((plaplace,), "splu", "plaplace.factor", None),
            ((cli,), "solve_p_laplace", "plaplace.solve", plap),
            ((cli,), "minimality_certificate", "plaplace.certificate", None),
            ((verify,), "holder_exponent", "verify.holder", None),
        )
        for owners, attr, key, attrs in targets:
            for owner in owners:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(key, attr, original, attrs))
                self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, times relative to its command."""
        with open(path, "w") as fh:
            for cmd, spans in enumerate(self.commands):
                t0 = spans[0].start
                for idx, s in enumerate(spans):
                    rec = {"command": cmd, "id": idx, "name": s.name, "key": s.key,
                           "parent": s.parent, "start": s.start - t0,
                           "end": s.end - t0, **s.attrs}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def command_metrics(spans):
    """Per-layer self times (s) and counts of one traced command."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = {f"{key}_s": 0.0 for key in TIME_KEYS}
    out.update({key: 0 for key in COUNT_KEYS})
    for idx, s in enumerate(spans):
        out[f"{s.key}_s"] += (s.end - s.start) - child_time[idx]
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    out["geometry.refine_calls"] = calls["refine"]
    out["geometry.content_hash_calls"] = calls["content_hash"]
    out["geometry.partition_calls"] = calls["partition_by_tags"]
    out["fem.stiffness_calls"] = calls["stiffness_matrix"]
    out["fem.grad_test_calls"] = calls["grad_test_vector"]
    out["laplace.cg_calls"] = calls["conjugate_gradient"]
    out["plaplace.factor_calls"] = calls["splu"]
    out["verify.holder_calls"] = calls["holder_exponent"]
    for idx, s in enumerate(spans):
        if s.name == "path_lengths":
            out["geometry.dijkstra_sources"] += s.attrs["sources"]
        elif s.name == "solve_p_laplace":
            for key in ("stages", "useful_stages", "irls_iters"):
                out[f"plaplace.{key}"] += s.attrs[key]
        elif s.name == "conjugate_gradient":
            out["laplace.cg_iters"] += s.attrs["iters"]
            level = _enclosing_level(spans, idx)
            if level in LEVELS:
                out[f"laplace.cg_iters.L{level}"] += s.attrs["iters"]
    out["trace.command_s"] = spans[0].end - spans[0].start
    return out


def _enclosing_level(spans, idx):
    """Refinement level of the mesh solved by the nearest enclosing solve."""
    parent = spans[idx].parent
    while parent is not None:
        level = spans[parent].attrs.get("level")
        if level is not None:
            return level
        parent = spans[parent].parent
    return None
