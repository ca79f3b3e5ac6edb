"""Per-layer tracing for one benchmark sample, installed from the outside.

The tracer wraps public functions of the sinhpierce modules after import. A
module that did ``from .geometry import build_mesh`` holds its own binding,
so every binding of a wrapped function in every loaded sinhpierce module is
replaced, not only the one in the defining module. Methods are wrapped on
their class, which every caller shares.

Spans (name, start, end, parent) are kept in memory and written out once at
the end. A layer's time is its self time: span duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Several functions may share a span name.
SPANS = [
    ("sinhpierce.geometry", "build_mesh", "geometry.build_mesh"),
    ("sinhpierce.geometry", "build_domain_mesh", "geometry.build_domain_mesh"),
    ("sinhpierce.geometry", "FieldEvaluator.__init__", "geometry.field_eval_init"),
    ("sinhpierce.geometry", "FieldEvaluator.__call__", "geometry.field_eval"),
    ("sinhpierce.greens", "GreenProvider.__init__", "greens.provider_init"),
    ("sinhpierce.greens", "GreenProvider.robin_H_many", "greens.robin_H_many"),
    ("sinhpierce.greens", "GreenProvider.green", "greens.green"),
    ("sinhpierce.coeffs", "choose_scales", "coeffs"),
    ("sinhpierce.coeffs", "coefficient_set", "coeffs"),
    ("sinhpierce.coeffs", "solve_beta", "coeffs"),
    ("sinhpierce.coeffs", "dominance_threshold", "coeffs"),
    ("sinhpierce.bubbles", "build_ansatz", "bubbles.build_ansatz"),
    ("sinhpierce.bubbles", "explicit_harmonic_part", "bubbles.explicit_harmonic_part"),
    ("sinhpierce.operators", "DiscreteOperators.__init__", "operators.assemble"),
    ("sinhpierce.operators", "DiscreteOperators.solve_dirichlet", "operators.poisson_solve"),
    ("sinhpierce.operators", "LinearOperator.smallest_eigenvalue", "operators.eig"),
    ("sinhpierce.operators", "LinearOperator.solve", "operators.linear_solve"),
    ("sinhpierce.operators", "residual_R", "operators.pointwise"),
    ("sinhpierce.operators", "weight_W", "operators.pointwise"),
    ("sinhpierce.operators", "nonlinear_N", "operators.pointwise"),
    ("sinhpierce.corrector", "fixed_point_correct", "corrector.fixed_point"),
    ("sinhpierce.corrector", "construct_solution", "corrector.construct"),
    ("sinhpierce.corrector", "continuation_sweep", "corrector.sweep"),
    ("sinhpierce.verify", "check_expansion", "verify.check_expansion"),
    ("sinhpierce.verify", "check_residual_scaling", "verify.check_residual_scaling"),
    ("sinhpierce.verify", "check_operator_bound", "verify.check_operator_bound"),
    ("sinhpierce.verify", "check_kernel_annihilation", "verify.check_kernel_annihilation"),
    ("sinhpierce.verify", "check_integral_identities", "verify.check_integral_identities"),
    ("sinhpierce.cli", "write_field_csv", "cli.io"),
    ("sinhpierce.geometry", "Mesh.export", "cli.io"),
    ("sinhpierce.corrector", "SolveReport.write", "cli.io"),
    ("sinhpierce.coeffs", "dump_csv", "cli.io"),
    ("sinhpierce.verify", "write_check_csv", "cli.io"),
]

# Counted but not timed: their time stays in the caller's self time.
COUNTED = [
    ("sinhpierce.bubbles", "project_numeric", "bubbles.project_numeric"),
]

# Per-layer metric name -> unit; the order is the order of the report.
METRICS = {
    "startup.import_s": "s",
    "runconfig.parse_s": "s",
    "geometry.build_mesh.s": "s",
    "geometry.build_mesh.calls": "count",
    "geometry.mesh_nodes": "count",
    "geometry.mesh_triangles": "count",
    "geometry.build_domain_mesh.s": "s",
    "geometry.field_eval.s": "s",
    "geometry.field_eval.points": "count",
    "geometry.field_eval_init.s": "s",
    "greens.provider_init.s": "s",
    "greens.robin_H_many.s": "s",
    "greens.robin_H_many.points": "count",
    "greens.green.s": "s",
    "greens.green.calls": "count",
    "coeffs.s": "s",
    "coeffs.calls": "count",
    "bubbles.build_ansatz.s": "s",
    "bubbles.project_numeric.calls": "count",
    "bubbles.explicit_harmonic_part.s": "s",
    "operators.assemble.s": "s",
    "operators.assemble.calls": "count",
    "operators.poisson_solve.s": "s",
    "operators.poisson_solve.calls": "count",
    "operators.eig.s": "s",
    "operators.linear_solve.s": "s",
    "operators.linear_solve.calls": "count",
    "operators.poisson_lu_nnz": "count",
    "operators.linear_lu_nnz": "count",
    "operators.pointwise.s": "s",
    "corrector.iterations": "count",
    "corrector.warm_start.s": "s",
    "corrector.fixed_point.s": "s",
    "corrector.construct.s": "s",
    "corrector.construct.calls": "count",
    "verify.check_expansion.s": "s",
    "verify.check_residual_scaling.s": "s",
    "verify.check_operator_bound.s": "s",
    "verify.check_kernel_annihilation.s": "s",
    "verify.check_integral_identities.s": "s",
    "cli.io.s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder plus the counters read at the same call boundaries."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._factored = weakref.WeakSet()   # operators whose LU fill is counted

    # -- wrapping --------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name):
        """Counter read when the span `name` returns, or None."""
        counts = self.counts

        def mesh_size(args, mesh):
            counts["geometry.mesh_nodes"] = max(counts["geometry.mesh_nodes"], mesh.n_nodes)
            counts["geometry.mesh_triangles"] = max(counts["geometry.mesh_triangles"],
                                                    mesh.n_triangles)

        def points(index):
            def count(args, result):
                counts[name + ".points"] += len(np.atleast_2d(np.asarray(args[index])))
            return count

        def lu_fill(key, attr):
            # read from the cached factor once per operator object
            def read(args, result):
                owner = args[0]
                lu = getattr(owner, attr)
                if lu is not None and owner not in self._factored:
                    self._factored.add(owner)
                    counts[key] += lu.nnz
            return read

        def iterations(args, result):
            counts["corrector.iterations"] += result[1].iterations

        return {
            "geometry.build_mesh": mesh_size,
            "geometry.field_eval": points(2),        # FieldEvaluator(values, points)
            "greens.robin_H_many": points(1),        # robin_H_many(points, y)
            "operators.poisson_solve": lu_fill("operators.poisson_lu_nnz", "_poisson_lu"),
            "operators.eig": lu_fill("operators.linear_lu_nnz", "_lu"),
            "operators.linear_solve": lu_fill("operators.linear_lu_nnz", "_lu"),
            "corrector.fixed_point": iterations,
        }.get(name)

    def install(self):
        """Wrap every target; return the number of bindings replaced."""
        replaced = 0
        for module, attr, name in SPANS + COUNTED:
            owner = sys.modules[module]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, meth)
            if (module, attr, name) in COUNTED:
                wrapped = self._counted(name + ".calls", original)
            else:
                wrapped = self._span(name, original, self._after(name))
            if cls_name:
                setattr(owner, meth, wrapped)
                replaced += 1
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("sinhpierce"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        replaced += 1
        return replaced

    # -- results ---------------------------------------------------------

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def warm_start_s(self):
        """continuation_sweep time minus its construct_solution children."""
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if name == "corrector.sweep":
                total += end - start
            elif name == "corrector.construct" and parent >= 0 \
                    and spans[parent][0] == "corrector.sweep":
                total -= end - start
        return total

    def metrics(self):
        """Every METRICS entry; the sample runner fills in the ones spans cannot
        give (start-up, parsing, artifact bytes, tracing overhead)."""
        own = self.self_times()
        calls = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        out = {}
        for key in METRICS:
            base, _, kind = key.rpartition(".")
            if kind == "s":
                out[key] = own.get(base, 0.0)
            elif kind == "calls":
                out[key] = calls.get(base, 0) + self.counts.get(key, 0)
            else:
                out[key] = self.counts.get(key, 0)
        out["corrector.warm_start.s"] = self.warm_start_s()
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
