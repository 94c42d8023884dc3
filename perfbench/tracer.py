"""Span tracer that instruments hopfront from the outside.

Nothing in the library knows about it: the tracer rebinds public functions
and class methods of the ``hopfront.*`` modules to timing wrappers, and puts
the originals back when it is closed.

Targets are resolved through ``sys.modules`` rather than attribute access on
the package, because ``hopfront.sweep`` is the *function* that shadows the
``hopfront.sweep`` submodule. A function is found by name in whichever
``hopfront`` module defines it, so moving it to another module keeps it
traced; every alias of it (``from .x import f`` in other modules, the package
namespace) is rebound by identity. A target that no longer exists is reported
as missing instead of failing the run.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and run id for every call;
* a *leaf* is a hot call aggregated into a call count and a total time, both
  globally and under the span it ran in. A leaf called inside another leaf
  is counted, but only the outermost leaf's time is subtracted from the
  enclosing span, so self times never go negative.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# (key, target). A key may collect several targets; "Class.method" names a
# method, anything else a function.
SPANS = [
    ("sweep", "sweep"),
    ("solve", "solve_constrained"),
    ("solve", "solve"),
    ("primal_dual", "run_primal_dual"),
    ("sample", "sample_cloud"),
    ("cert_cloud", "certification_cloud"),
    ("filter", "greedy_pareto_filter"),
    ("envelope", "convex_envelope_front"),
    ("write", "write_front_csv"),
    ("write", "write_scatter_svg"),
]
LEAVES = [
    ("merit", "merit_psi"),
    ("merit", "merit_psi_k"),
    ("multiplier", "multiplier_estimate"),
    ("project", "ConstraintSet.project"),
    ("project", "dykstra_project"),
    ("dual_step", "dual_update_pi"),
    ("spd_solve", "spd_solve"),
    ("gap", "gap_and_bound"),
    ("value", "VectorObjective.value"),
    ("jacobian", "VectorObjective.jacobian"),
    ("batch", "VectorObjective.value_batch"),
    ("prox", "SoftMax.prox_conjugate"),
]
# Called too often to time without distorting the run: counted only.
COUNTS = [("as_vector", "as_vector")]


def _solve_attrs(bound, out):
    return {
        "tau": tuple(float(v) for v in bound["params"].tau),
        "warm": bound.get("u0") is not None,
        "converged": bool(out.converged),
        "iterations": int(out.iterations),
    }


# Span key -> attributes recorded from the bound call arguments and result.
ATTRS = {
    "solve": _solve_attrs,
    "sweep": lambda bound, out: {"samples": len(out.samples)},
    "filter": lambda bound, out: {"rows_in": len(bound["cloud"]), "rows_kept": len(out)},
}


@dataclass
class Span:
    id: int
    key: str
    run: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time of child spans
    leaf_s: float = 0.0  # time of outermost leaves called directly under it
    leaves: dict = field(default_factory=dict)  # key -> [calls, seconds]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer() as tr:``; spans stay in memory.

    ``run`` is stamped on every span opened; the caller bumps it between
    CLI invocations.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_totals: dict = {}  # key -> [calls, seconds, items]
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._active_leaves: set = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def open(self, key):
        span = Span(len(self.spans), key, self.run, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _span_wrapper(self, key, fn):
        attrs = ATTRS.get(key)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs:
                try:
                    span.attrs = attrs(sig.bind(*args, **kwargs).arguments, out)
                except (KeyError, TypeError, AttributeError):
                    if f"{fn.__name__}(...)" not in self.missing:
                        self.missing.append(f"{fn.__name__}(...)")
            return out

        return wrapper

    def _leaf_wrapper(self, key, fn):
        active = self._active_leaves
        totals = self.leaf_totals.setdefault(key, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in active:  # e.g. ConstraintSet.project -> dykstra_project
                return fn(*args, **kwargs)
            outermost = not active
            active.add(key)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active.discard(key)
            totals[0] += 1
            totals[1] += dt
            if key == "batch":
                totals[2] += len(out)
            if self._stack:
                span = self.spans[self._stack[-1]]
                agg = span.leaves.setdefault(key, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                if outermost:
                    span.leaf_s += dt
            return out

        return wrapper

    def _count_wrapper(self, key, fn):
        totals = self.leaf_totals.setdefault(key, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "hopfront" or name.startswith("hopfront."))]
        for specs, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper),
                            (COUNTS, self._count_wrapper)):
            for key, target in specs:
                owner, original = _resolve(mods, target)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = make(key, original)
                if inspect.isclass(owner):
                    attr = target.split(".")[1]
                    self._undo.append((owner, attr, owner.__dict__.get(attr)))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- analysis ----------------------------------------------------------

    def self_time(self, span):
        return span.duration - span.child_s - span.leaf_s

    def by_key(self, key):
        return [s for s in self.spans if s.key == key]

    def subtree(self, roots):
        ids = {s.id for s in roots}
        out = list(roots)
        for s in self.spans:  # parents are opened, hence listed, before children
            if s.parent in ids and s.id not in ids:
                ids.add(s.id)
                out.append(s)
        return out

    def leaf(self, key):
        """(calls, seconds, items) of a leaf or counted target."""
        return tuple(self.leaf_totals.get(key, (0, 0.0, 0)))

    def table(self):
        """Rows (kind, key, calls, inclusive_s, self_s), largest self time first.

        A leaf's time includes leaves nested in it, so leaf rows can overlap.
        """
        rows = {}
        for s in self.spans:
            row = rows.setdefault(s.key, ["span", s.key, 0, 0.0, 0.0])
            row[2] += 1
            row[3] += s.duration
            row[4] += self.self_time(s)
        for key, (calls, seconds, _) in self.leaf_totals.items():
            if key != "as_vector":
                rows[key] = ["leaf", key, calls, seconds, seconds]
        return sorted(rows.values(), key=lambda r: -r[4])


def _resolve(mods, target):
    """(owner, object) for ``target`` ("f" or "Class.method"), looked up in the
    hopfront module that defines it; (None, None) when it does not exist."""
    name, _, meth = target.partition(".")
    for mod in mods:
        obj = vars(mod).get(name)
        if getattr(obj, "__module__", None) != mod.__name__:
            continue  # only the defining module counts; aliases are rebound later
        if not meth:
            return (mod, obj) if inspect.isfunction(obj) else (None, None)
        if inspect.isclass(obj) and inspect.isfunction(getattr(obj, meth, None)):
            return obj, getattr(obj, meth)
    return None, None
