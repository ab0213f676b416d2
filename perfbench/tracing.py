"""Span tracing from outside the library.

Only the traced run installs this.  :meth:`Tracer.install` rebinds the
public functions the benchmark attributes time to, in every ``conebounds``
module that holds a reference to them (``cli`` and ``models`` import names
from ``geometry``, so rebinding ``geometry.moments`` alone would miss their
calls).  Each wrapper appends a span ``(name, start, end, parent, op_id)``
to an in-memory list, written out when the run ends; :func:`self_times`
reduces the spans to per-layer totals.  Nothing under ``src/`` knows about tracing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

#: Library attribute -> span name.  Functions are found by identity in every
#: module listed in ``MODULES``, so a name imported elsewhere is covered too.
TRACED_FUNCTIONS = {
    ("geometry", "section_from_json"): "geometry.section_build",
    ("geometry", "scale_section"): "geometry.section_build",
    ("geometry", "moments"): "geometry.moments",
    ("geometry", "spherical_vertex_opening"): "geometry.spherical_opening",
    ("gauge", "rayleigh_upper_bounds"): "gauge.bound",
    ("models", "halfspace_sigma"): "models.sigma",
    ("models", "essential_spectrum_limit"): "models.ess",
    ("models", "theta0"): "models.theta0",
    ("models", "theta0_detail"): "models.theta0",
    ("models", "truncated_domain_edges"): "models.edges",
    ("models", "concentration_threshold"): "models.concentration",
    ("robin", "robin_cone_upper_bound"): "robin.cone_bound",
    ("cli", "run"): "cli.invoke",
    ("cli", "execute_config"): "cli.execute",
    ("cli", "dumps_report"): "cli.serialize",
}

MODULES = ("conebounds", "conebounds.geometry", "conebounds.gauge",
           "conebounds.halfline", "conebounds.models", "conebounds.robin",
           "conebounds.cli")

#: Spans whose own recursion is folded into the outermost call.
NON_REENTRANT = {"cli.serialize"}


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, op_id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(result, args)``
        returns ``{counter: amount}`` to add after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in NON_REENTRANT and self._stack and \
                    self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, amount in count(result, args).items():
                    self.counts[key] += amount
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """A root span ``op`` around one benchmark op."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self) -> None:
        """Rebind the traced functions for the rest of the process."""
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]

        def rebind(orig, wrapper):
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

        for (modname, attr), name in TRACED_FUNCTIONS.items():
            orig = getattr(importlib.import_module(f"conebounds.{modname}"), attr)
            rebind(orig, self.wrap(name, orig, _COUNTERS.get(name)))

        robin = importlib.import_module("conebounds.robin")
        cls = robin.BoundaryProfile
        orig_cm = vars(cls)["from_section"]
        cls.from_section = classmethod(self.wrap("robin.profile", orig_cm.__func__))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")


def _vertices(section, args):
    verts = getattr(section, "vertices", None)
    return {"geometry.section_build.polygons": 1 if verts is not None else 0,
            "geometry.vertices": len(verts) if verts is not None else 0}


def _pieces(result, args):
    return {"robin.pieces": len(args[0].pieces)}


_COUNTERS = {"geometry.section_build": _vertices,
             "robin.cone_bound": _pieces}


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: total self time, total duration, and call count.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, because the worker is single-threaded.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    self_t: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        self_t[s["name"]] += dur - child[i]
        total[s["name"]] += dur
        calls[s["name"]] += 1
    return dict(self_t), dict(total), dict(calls)
