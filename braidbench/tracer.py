"""Layer spans for braidshear, recorded from outside the package.

The tracer replaces module attributes with timing wrappers at the names
the callers look up (``from ... import`` binds a function into the
caller's namespace, so ``braidshear.coordinates.detect_flips`` is wrapped
rather than ``braidshear.kinetic.detect_flips``), and restores every
attribute when the ``installed()`` block exits.

Two kinds of layer are distinguished:

* span layers record one span per outermost call: name, case, start,
  end and parent span;
* hot leaf layers (``roots`` and ``algebra.gcd``, called tens of
  thousands of times per case) are summed into the innermost open span
  instead of getting spans of their own, which keeps the span list small.

Nested calls of a layer into itself (``poly_gcd`` recursion, ``roots``
helpers calling each other) are not counted again: only the outermost
call of a layer is timed.
"""

from __future__ import annotations

import contextlib
import functools
import time

import braidshear.algebra
import braidshear.cli
import braidshear.coordinates
import braidshear.kinetic
import braidshear.roots
from braidshear.kinetic import DegeneracyError

# (owner, attribute, layer); the owner is where the caller looks the name up
SPAN_TARGETS = [
    (braidshear.cli, "parse_braid", "braid.compile"),
    (braidshear.cli, "compile_motion", "braid.compile"),
    (braidshear.cli, "initial_triangulation", "braid.compile"),
    (braidshear.coordinates, "compile_motion", "braid.compile"),
    (braidshear.coordinates, "initial_triangulation", "braid.compile"),
    (braidshear.cli, "detect_flips", "kinetic.detect"),
    (braidshear.coordinates, "detect_flips", "kinetic.detect"),
    (braidshear.kinetic, "delaunay", "geometry.delaunay"),
    (braidshear.coordinates, "apply_flip", "coordinates.flip"),
    (braidshear.cli, "invariants_equal", "coordinates.equal"),
    (braidshear.cli, "first_difference", "coordinates.equal"),
    (braidshear.coordinates.InvariantMap, "to_json", "cli.render"),
    (braidshear.cli, "events_to_json", "cli.render"),
]

ROOTS_FUNCTIONS = [
    "isolate_roots",
    "refine_root",
    "squarefree_part",
    "gcd",
    "count_roots_closed",
    "has_common_root_in",
]

LEAF_TARGETS = [(braidshear.roots, name, "roots") for name in ROOTS_FUNCTIONS] + [
    (braidshear.algebra, "poly_gcd", "algebra.gcd"),
]

ALL_TARGETS = SPAN_TARGETS + LEAF_TARGETS


class Span:
    __slots__ = ("name", "case", "start", "end", "parent", "leaf_s", "leaf_calls", "info")

    def __init__(self, name, case, start, parent):
        self.name = name
        self.case = case
        self.start = start
        self.end = start
        self.parent = parent
        self.leaf_s = {"roots": 0.0, "algebra.gcd": 0.0}
        self.leaf_calls = {"roots": 0, "algebra.gcd": 0}
        self.info = {}

    def to_json(self, index):
        return {
            "id": index,
            "name": self.name,
            "case": self.case,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "leaf_s": self.leaf_s,
            "leaf_calls": self.leaf_calls,
            "info": self.info,
        }


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans, innermost last
        self.case = None
        self.isolate_calls = 0
        self._leaf_depth = {"roots": 0, "algebra.gcd": 0}

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, layer, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]].name == layer:
                return func(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(layer, self.case, time.perf_counter(), parent)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
            except DegeneracyError:
                span.info["degenerate"] = True
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            self._annotate(span, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, layer, name, func):
        depth = self._leaf_depth

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name == "isolate_roots":
                self.isolate_calls += 1
            if depth[layer]:
                return func(*args, **kwargs)
            depth[layer] = 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[layer] = 0
                if self.stack:
                    span = self.spans[self.stack[-1]]
                    span.leaf_s[layer] += elapsed
                    span.leaf_calls[layer] += 1

        return wrapper

    @staticmethod
    def _annotate(span, args, result):
        """Record sizes of a layer's output, after its span has closed."""
        if span.name == "kinetic.detect":
            span.info["events"] = len(result)
        elif span.name == "coordinates.flip":
            # apply_flip(state, quad, system): the flip rewrites labels of
            # the new diagonal and the four sides only
            u, v, w, z = args[1]
            terms = degree = 0
            for edge in ((v, z), (u, v), (v, w), (w, z), (z, u)):
                label = result.label(edge)
                terms = max(terms, len(label.num.terms) + len(label.den.terms))
                degree = max(degree, label.num.total_degree(), label.den.total_degree())
            span.info["terms"] = terms
            span.info["degree"] = degree

    # -- installation -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; restore after."""
        saved = []
        try:
            for owner, attr, layer in SPAN_TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span_wrapper(layer, original))
            for owner, attr, layer in LEAF_TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._leaf_wrapper(layer, attr, original))
            real_json = braidshear.cli.json
            saved.append((braidshear.cli, "json", real_json))
            braidshear.cli.json = _JsonProxy(
                real_json, self._span_wrapper("cli.render", real_json.dumps)
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``braidshear.cli`` so that
    ``json.dumps`` is timed as rendering; everything else passes through."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def snapshot_targets():
    """The current object behind every wrapped attribute, to check that a
    traced run restored them all."""
    return [getattr(owner, attr) for owner, attr, _ in ALL_TARGETS] + [braidshear.cli.json]


def layer_totals(spans, lo=0, hi=None):
    """Per-layer sums over ``spans[lo:hi]`` (one traced pass); parents are
    indices into the whole list."""
    hi = len(spans) if hi is None else hi
    t = {
        "braid.compile_s": 0.0,
        "kinetic.detect_s": 0.0,
        "kinetic.self_s": 0.0,
        "kinetic.events": 0,
        "kinetic.detect_attempts": 0,
        "kinetic.retries": 0,
        "roots.s": 0.0,
        "roots.calls": 0,
        "geometry.delaunay_s": 0.0,
        "geometry.delaunay_calls": 0,
        "algebra.gcd_detect_s": 0.0,
        "algebra.gcd_detect_calls": 0,
        "algebra.gcd_label_s": 0.0,
        "algebra.gcd_label_calls": 0,
        "coordinates.labels_s": 0.0,
        "coordinates.flips_applied": 0,
        "coordinates.label_terms_max": 0,
        "coordinates.label_degree_max": 0,
        "coordinates.equal_s": 0.0,
        "cli.render_s": 0.0,
    }
    children = {i: [] for i in range(lo, hi)}
    for i in range(lo, hi):
        if spans[i].parent is not None:
            children[spans[i].parent].append(i)

    # The enclosing detect or label span owns every leaf call beneath it.
    def owner(i):
        while i is not None:
            name = spans[i].name
            if name in ("kinetic.detect", "coordinates.flip"):
                return name
            i = spans[i].parent
        return None

    for i in range(lo, hi):
        s = spans[i]
        dur = s.end - s.start
        roots_s, gcd_s = s.leaf_s["roots"], s.leaf_s["algebra.gcd"]
        t["roots.s"] += roots_s
        t["roots.calls"] += s.leaf_calls["roots"]
        which = owner(i)
        if which == "kinetic.detect":
            t["algebra.gcd_detect_s"] += gcd_s
            t["algebra.gcd_detect_calls"] += s.leaf_calls["algebra.gcd"]
        elif which == "coordinates.flip":
            t["algebra.gcd_label_s"] += gcd_s
            t["algebra.gcd_label_calls"] += s.leaf_calls["algebra.gcd"]
        if s.name == "braid.compile":
            t["braid.compile_s"] += dur
        elif s.name == "kinetic.detect":
            t["kinetic.detect_s"] += dur
            t["kinetic.detect_attempts"] += 1
            if s.info.get("degenerate"):
                t["kinetic.retries"] += 1
            t["kinetic.events"] += s.info.get("events", 0)
            # children of one span run one after another, never overlapping
            child_s = sum(spans[c].end - spans[c].start for c in children[i])
            t["kinetic.self_s"] += dur - child_s - roots_s - gcd_s
        elif s.name == "geometry.delaunay":
            t["geometry.delaunay_s"] += dur
            t["geometry.delaunay_calls"] += 1
        elif s.name == "coordinates.flip":
            t["coordinates.labels_s"] += dur
            t["coordinates.flips_applied"] += 1
            t["coordinates.label_terms_max"] = max(
                t["coordinates.label_terms_max"], s.info.get("terms", 0)
            )
            t["coordinates.label_degree_max"] = max(
                t["coordinates.label_degree_max"], s.info.get("degree", 0)
            )
        elif s.name == "coordinates.equal":
            t["coordinates.equal_s"] += dur
        elif s.name == "cli.render":
            t["cli.render_s"] += dur
    return t
