"""Spans recorded from outside the program, around calls into its modules.

A Tracer replaces selected public functions of the pgcones modules with
wrappers while it is installed, and restores the originals afterwards, so
untraced runs execute the program unchanged.  Each call becomes a span
(name, start, end, parent, phase, task) kept in memory; counters derived
from the call's arguments or result (table sizes, subspaces scanned) are
recorded at the same boundary.  Layer metrics are computed from the spans
afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _theta(m: int, q: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1)


# -- counters derived at the call boundary (args, kwargs, result) ------------

def _count_field(c, args, kwargs, field):
    c["gf.table_bytes"] += sum(t.nbytes for t in (field.add, field.mul, field.neg, field.inv))


def _count_geometry(c, args, kwargs, _):
    points = args[0].num_points
    c["pg.geometry.points"] += points
    c["pg.incidence_bytes"] += points * points  # computed: one byte per cell


def _count_scan(c, args, kwargs, result):
    subspaces = len(result[0])
    d, q = args[1], args[2]
    c["kernels.subspace_scan.subspaces"] += subspaces
    c["kernels.subspace_scan.points_tested"] += subspaces * _theta(d, q)  # computed


def _count_hyperplanes(c, args, kwargs, _):
    rows, cols = args[0].shape
    c["kernels.hyperplane_counts.cells"] += rows * cols  # computed


def _count_cone_points(c, args, kwargs, _):
    k = int(args[0].sum())
    q = len(args[4])
    c["kernels.cone_points.line_points"] += k * (k - 1) * (q - 1)  # computed


def _count_screen(c, args, kwargs, _):
    k_range = args[1] if len(args) > 1 else kwargs["k_range"]
    c["counting.k_screened"] += len(k_range)


# (module, attribute, span name, counter).  A class attribute is given as
# "Class.method".  Every pgcones module that imported the same function
# object under some name is patched too, so `from .gf import field_new`
# call sites are traced as well.
TARGETS = (
    ("gf", "field_new", "gf.field_new", _count_field),
    ("pg", "Geometry.__init__", "pg.geometry", _count_geometry),
    ("pg", "Geometry.span", "pg.span", None),
    *(("objects", fn, "objects.construct", None) for fn in (
        "hyperoval_cone", "unital_cone", "maxarc_cone", "baer_cone",
        "hyperoval", "hermitian_unital", "denniston_arc", "baer_subgeometry")),
    ("objects", "cone", "objects.cone", None),
    ("kernels", "subspace_intersection_scan", "kernels.subspace_scan", _count_scan),
    ("kernels", "hyperplane_intersection_counts", "kernels.hyperplane_counts", _count_hyperplanes),
    ("kernels", "cone_points", "kernels.cone_points", _count_cone_points),
    ("spectra", "spectrum", "spectra.spectrum", None),
    ("spectra", "essential_points", "spectra.essential_points", None),
    ("spectra", "pencil_counts", "spectra.pencil_counts", None),
    ("spectra", "recognize_cone", "spectra.recognize_cone", None),
    ("counting", "feasible_k", "counting.feasible_k", _count_screen),
    ("counting", "pencil_feasible", "counting.pencil_feasible", None),
    ("counting", "step_sign_check", "counting.step_sign_check", None),
    ("counting", "theorem_instance", "counting.theorem_instance", None),
    ("cli", "main", "cli", None),
)


class Tracer:
    """In-memory span recorder that patches the pgcones modules while installed."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, phase, task]
        self.counters = defaultdict(lambda: defaultdict(int))  # phase -> name -> n
        self.phase = ""
        self.task = ""
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters[self.phase], args, kwargs, result)
            return result
        return traced

    def _pass_counter(self, fn):
        """Count closed-form solves made inside feasible_k: the k values
        that passed every congruence.  No span, to keep the hot loop cheap."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "counting.feasible_k":
                self.counters[self.phase]["counting.k_passed"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing -------------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pgcones" or mod_name.startswith("pgcones.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        mods = {name: sys.modules[f"pgcones.{name}"]
                for name in ("gf", "pg", "objects", "kernels", "spectra", "counting", "cli")}
        try:
            for mod_name, attr, span_name, count in TARGETS:
                owner, _, method = attr.rpartition(".")
                if owner:
                    cls = getattr(mods[mod_name], owner)
                    original = vars(cls)[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._span_wrapper(span_name, original, count))
                else:
                    original = getattr(mods[mod_name], attr)
                    self._patch_everywhere(original, self._span_wrapper(span_name, original, count))
            counting = mods["counting"]
            original = counting.t_closed_form
            self._patch_everywhere(original, self._pass_counter(original))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    # -- layer metrics ------------------------------------------------------------

    def totals(self, phase):
        """Per span name over the spans of one phase:
        inclusive seconds (outermost same-name spans only), calls, and self
        seconds (duration minus the direct children's durations)."""
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        spans = self.spans
        for rec in spans:
            if rec[4] == phase:
                self_s[rec[0]] += rec[2] - rec[1]
        for name, start, end, parent, span_phase, _ in spans:
            if span_phase != phase:
                continue
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, calls, self_s

    def dump(self, t0: float) -> list:
        """Spans as JSON-ready records with times relative to t0."""
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "phase": ph, "task": t}
                for n, s, e, p, ph, t in self.spans]
