"""Span tracer that wraps nprox entry points from outside the library.

Each wrapped callable records a span (layer name, start, end, parent span)
into flat in-memory arrays; counts are gathered at the same boundaries.  A
layer's self time is its spans' durations minus the time their direct child
spans cover, so nested layers (a product build assembling its tensor
conditions, a right-hand side discretizing and evaluating derivatives) are
never counted twice.

Wrappers replace a function wherever nprox code looks it up: every nprox
module attribute and every class attribute that is the original object gets
the wrapper, so ``from .polynomials import tensor_product`` in another module
is covered as well as aliases such as ``__call__ = apply``.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (layer, module, qualified names).  A trailing ".*" on a class name means
# the method on that class and every subclass in the module that defines it.
SPAN_TARGETS = [
    ("functionals.assemble", "nprox.functionals", ["Functional.on_monomials"]),
    ("functionals.rhs", "nprox.functionals",
     ["Functional.apply_to_polynomial", "Functional.apply_to_function"]),
    ("functionals.discretize", "nprox.functionals", ["Functional.*.discretize"]),
    ("testfunctions.deriv", "nprox.testfunctions", ["TestFunction.*.deriv_values"]),
    ("projectors.build", "nprox.projectors", ["NewtonStructuredProjector.__init__"]),
    ("projectors.solve", "nprox.projectors",
     ["NewtonStructuredProjector.apply", "NewtonStructuredProjector.truncate",
      "NewtonStructuredProjector.newton_summands"]),
    ("projectors.product_formula", "nprox.projectors",
     ["NewtonProduct.apply_product_formula"]),
    ("projectors.residual", "nprox.projectors", ["NewtonProduct.residual_expansion"]),
    ("polynomials.eval", "nprox.polynomials", ["Polynomial.eval_many"]),
    ("polynomials.tensor", "nprox.polynomials", ["tensor_product"]),
    ("measures.gram_schmidt", "nprox.measures", ["gram_schmidt_basis"]),
    ("zoo", "nprox.zoo",
     ["taylor_projector", "lagrange_projector", "kergin_projector",
      "orthogonal_projector", "nodes_by_name", "projector_from_spec"]),
    ("points", "nprox.points",
     ["leja_disk", "leja_greedy", "leja_greedy_gap", "real_leja",
      "chebyshev_nodes", "integer_nodes", "equiangular_nodes"]),
    ("experiments.sweep", "nprox.experiments", ["convergence_run", "cylinder_run"]),
    ("experiments.report", "nprox.experiments", ["report_write"]),
    ("cli", "nprox.cli", ["main"]),
]

# Called hundreds of thousands of times per cylinder pass: count rows only,
# a span per call would cost more than the work it measures.
COUNT_TARGETS = [("nprox.indexing", ["ranks_of_rows"])]

ROOT = "pass"


class MissingTarget(LookupError):
    """A wrap target no longer exists in the library."""


def self_times(names, starts, ends, parents):
    """Per-span self time: duration minus the durations of direct children.

    Spans are stored in entry order, so every parent index is smaller than
    its children's; ``parents[i]`` is -1 for a root span.
    """
    covered = [0.0] * len(names)
    for i in range(len(names)):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(names))]


class Tracer:
    """Records spans and counts while installed; restores everything on remove."""

    def __init__(self):
        self.layer_ids: dict[str, int] = {}
        self.layer_names: list[str] = []
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.level_cond_max = 0.0
        self._solved = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _layer(self, name: str) -> int:
        lid = self.layer_ids.get(name)
        if lid is None:
            lid = self.layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def open(self, layer_id: int) -> int:
        idx = len(self.names)
        self.names.append(layer_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span that encloses the current one."""
        if len(self.stack) < 2:
            return None
        return self.layer_names[self.names[self.stack[-2]]]

    @contextmanager
    def span(self, layer: str):
        idx = self.open(self._layer(layer))
        try:
            yield
        finally:
            self.close(idx)

    def reset_counts(self):
        self.counts.clear()
        self.level_cond_max = 0.0

    # -- counts taken at the wrapped boundaries --------------------------------

    def _note_solves(self, proj, ks):
        seen = self._solved.setdefault(proj, set())
        for k in ks:
            self.counts["solves"] += 1
            if k in seen:
                self.counts["solves_repeated"] += 1
            seen.add(k)

    def _after(self, layer, func_name, args, kwargs, result):
        c = self.counts
        if layer == "functionals.assemble":
            c["assemble_calls"] += 1
        elif layer == "functionals.rhs":
            c["rhs_calls"] += 1
        elif layer == "projectors.build":
            proj = args[0]
            c["builds"] += 1
            c["collocation_rows"] += int(proj.matrix.shape[0])
            if proj.level_conds:
                self.level_cond_max = max(self.level_cond_max, max(proj.level_conds))
        elif layer == "projectors.solve":
            proj = args[0]
            if func_name == "truncate":
                k = int(args[1] if len(args) > 1 else kwargs["k"])
                c["rhs_rows_used"] += sum(len(level) for level in proj.levels[:k + 1])
                self._note_solves(proj, [k])
            elif func_name == "newton_summands":
                c["rhs_rows_used"] += len(proj.conditions)
                self._note_solves(proj, range(proj.degree + 1))
            else:
                c["rhs_rows_used"] += len(proj.conditions)
                self._note_solves(proj, [proj.degree])
        elif layer == "functionals.discretize":
            if self.parent_layer() != layer:
                c["quad_points"] += sum(int(b[1].shape[0]) for b in result)
        elif layer == "testfunctions.deriv":
            if self.parent_layer() != layer:
                c["deriv_points"] += _rows(args[2] if len(args) > 2 else kwargs["pts"])
        elif layer == "polynomials.eval":
            if self.parent_layer() != layer:
                c["eval_points"] += _rows(args[1] if len(args) > 1 else kwargs["points"])
        elif layer == "experiments.report":
            c["report_bytes"] += sum(os.path.getsize(p) for p in result)

    # -- installation -------------------------------------------------------

    def _span_wrapper(self, layer, func):
        tracer, lid, fname = self, self._layer(layer), func.__name__

        def wrapper(*args, **kwargs):
            idx = tracer.open(lid)
            try:
                result = func(*args, **kwargs)
                tracer._after(layer, fname, args, kwargs, result)
                return result
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = func
        return wrapper

    def _rank_counter(self, func):
        counts = self.counts

        def wrapper(nvars, degree, rows):
            counts["rank_rows"] += len(rows)
            return func(nvars, degree, rows)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        """Wrap every target; raise MissingTarget naming any that is gone."""
        missing = []
        plan = []
        targets = SPAN_TARGETS + [(None, module, names) for module, names in COUNT_TARGETS]
        for layer, module, qualnames in targets:
            for qualname in qualnames:
                found = _resolve(module, qualname)
                if not found:
                    missing.append(f"{module}.{qualname}")
                plan.extend((layer, f) for f in found)
        if missing:
            raise MissingTarget("wrap targets missing: " + ", ".join(missing))
        for layer, func in plan:
            wrapper = self._rank_counter(func) if layer is None else self._span_wrapper(layer, func)
            self._replace(func, wrapper)

    def _replace(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nprox" or mod_name.startswith("nprox.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._patches.append((value, attr, member))
                            setattr(value, attr, wrapper)

    def remove(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_self_times(self, first: int, last: int) -> dict[str, float]:
        """Summed self time per layer over spans ``first .. last - 1``."""
        sl = slice(first, last)
        parents = [p - first if p >= first else -1 for p in self.parents[sl]]
        selfs = self_times(self.names[sl], self.starts[sl], self.ends[sl], parents)
        out: dict[str, float] = {}
        for lid, s in zip(self.names[sl], selfs):
            name = self.layer_names[lid]
            out[name] = out.get(name, 0.0) + s
        return out

    def write(self, path):
        """Spans as CSV: layer, start and end in seconds, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,layer,start_s,end_s,parent\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.layer_names[self.names[i]]},"
                         f"{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


def _rows(points) -> int:
    shape = np.shape(points)
    return int(shape[0]) if shape else 1


def _resolve(module_name: str, qualname: str) -> list:
    """Functions named by ``qualname`` in the module; empty when missing."""
    mod = sys.modules.get(module_name)
    if mod is None:
        try:
            __import__(module_name)
        except ImportError:
            return []
        mod = sys.modules[module_name]
    parts = qualname.split(".")
    if len(parts) == 3 and parts[1] == "*":
        base = getattr(mod, parts[0], None)
        if not isinstance(base, type):
            return []
        classes = [c for c in vars(mod).values()
                   if isinstance(c, type) and issubclass(c, base)]
        return [vars(c)[parts[2]] for c in classes if parts[2] in vars(c)]
    obj = mod
    for part in parts:
        obj = getattr(obj, part, None) if not isinstance(obj, type) else vars(obj).get(part)
        if obj is None:
            return []
    return [obj]


# -- per-layer metrics --------------------------------------------------------------

SELF_TIME_METRICS = {
    "functionals.assemble_s": "functionals.assemble",
    "functionals.rhs_s": "functionals.rhs",
    "functionals.discretize_s": "functionals.discretize",
    "testfunctions.deriv_s": "testfunctions.deriv",
    "projectors.build_s": "projectors.build",
    "projectors.solve_s": "projectors.solve",
    "projectors.product_formula_s": "projectors.product_formula",
    "projectors.residual_s": "projectors.residual",
    "polynomials.eval_s": "polynomials.eval",
    "polynomials.tensor_s": "polynomials.tensor",
    "measures.gram_schmidt_s": "measures.gram_schmidt",
    "zoo.s": "zoo",
    "points.s": "points",
    "experiments.sweep_s": "experiments.sweep",
    "experiments.report_s": "experiments.report",
    "cli.s": "cli",
    "unattributed_s": ROOT,
}

COUNT_METRICS = {
    "functionals.assemble_calls": "assemble_calls",
    "indexing.rank_rows": "rank_rows",
    "projectors.builds": "builds",
    "projectors.collocation_rows": "collocation_rows",
    "projectors.solves": "solves",
    "functionals.rhs_calls": "rhs_calls",
    "functionals.quad_points": "quad_points",
    "testfunctions.deriv_points": "deriv_points",
    "polynomials.eval_points": "eval_points",
    "experiments.report_bytes": "report_bytes",
}


def pass_metrics(tracer: Tracer, first: int, last: int, counts: dict,
                 level_cond_max: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (spans ``first .. last - 1``)."""
    selfs = tracer.layer_self_times(first, last)
    out = {name: selfs.get(layer, 0.0) for name, layer in SELF_TIME_METRICS.items()}
    out.update({name: float(counts.get(key, 0)) for name, key in COUNT_METRICS.items()})
    solves, rhs = counts.get("solves", 0), counts.get("rhs_calls", 0)
    out["projectors.block_reuse"] = counts.get("solves_repeated", 0) / solves if solves else 0.0
    out["functionals.rhs_useful_frac"] = counts.get("rhs_rows_used", 0) / rhs if rhs else 0.0
    out["projectors.level_cond_max"] = level_cond_max
    out["trace.spans"] = float(last - first)
    return out


def layer_metrics(tracer: Tracer, passes, untraced_pass_s: float) -> dict[str, float]:
    """Median over traced passes of every per-layer figure, plus the overhead.

    ``passes`` holds ``(first, last, counts, level_cond_max, seconds)`` per
    traced pass; ``trace.overhead`` is the median traced pass time over the
    time of an untraced pass of the same process.
    """
    rows = [pass_metrics(tracer, first, last, counts, cond)
            for first, last, counts, cond, _ in passes]
    out = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    out["trace.overhead"] = statistics.median(p[4] for p in passes) / untraced_pass_s
    return out
