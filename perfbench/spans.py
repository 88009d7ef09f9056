"""Spans recorded around trionlab's public functions, from outside the package.

`Tracer.install()` replaces every public function of the traced modules by
a wrapper wherever the package holds a reference to it: module attributes
(including names one module imports from another, such as
`analysis.assemble_potential`) and module-level tables (such as the
angular profile tables of `angular` and `assembly`).  `uninstall()` puts
the originals back.  Spans stay in memory until `write()`.
"""
import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("tightbinding", "assembly", "angular", "quadrature", "solver",
          "hartree_fock", "optimizer", "analysis")


def _extra(name, args, result):
    """Work counts that only the arguments or the result carry."""
    if name == "angular.sincorr_weight":
        return int(getattr(args[0], "size", 1))
    if name == "solver.solve_generalized":
        return (len(args[0]), int(result.retained_dim))
    if name == "hartree_fock.scf":
        return int(result.iterations)
    if name == "optimizer.optimize":
        return (int(result.accepted), int(result.rejected))
    return None


class Tracer:
    """Records [name, start, end, parent, op, extra] per call, in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _extra(name, args, result)
            return result
        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("trionlab." + layer)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "trionlab" or modname.startswith("trionlab."):
                table = vars(mod)
                self._patch(table, wrappers)
                for value in list(table.values()):
                    if isinstance(value, dict):
                        self._patch(value, wrappers)

    def _patch(self, table, wrappers):
        def swap(v):
            return wrappers.get(v, v) if isinstance(v, types.FunctionType) \
                else v

        for key, value in list(table.items()):
            if isinstance(value, types.FunctionType):
                new = swap(value)
            elif isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                if all(a is b for a, b in zip(new, value)):
                    new = value
            else:
                continue
            if new is not value:
                self._undo.append((table, key, value))
                table[key] = new

    def uninstall(self):
        for table, key, value in reversed(self._undo):
            table[key] = value
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "extra"], "spans": self.spans}, fh)


def span_metrics(spans):
    """Per-layer metrics of the traced modules.

    A span's self time is its duration minus the time covered by its
    nearest descendants in other layers.  A call within the same layer
    (such as `graphene_band` inside `effective_masses`) is part of its
    caller's work; a layer total counts only the spans entered from
    another layer, so nothing is counted twice.
    """
    def layer(i):
        return spans[i][0].partition(".")[0]

    other = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent is not None:
            other[parent] += (spans[i][2] - spans[i][1]
                              if layer(i) != layer(parent) else other[i])
    calls = defaultdict(int)
    self_s = defaultdict(float)
    entry_s = defaultdict(float)
    extra = defaultdict(list)
    evaluations = 0
    for i, (name, start, end, parent, _, ex) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - other[i]
        if parent is None or layer(parent) != layer(i):
            entry_s[name] += end - start - other[i]
        if ex is not None:
            extra[name].append(ex)
        if parent is not None and spans[parent][0] == "optimizer.optimize":
            evaluations += 1
    out = {}
    for name in ("tightbinding.effective_masses",
                 "assembly.assemble_potential", "assembly.assemble_exciton",
                 "assembly.repulsion_tensor", "solver.solve_generalized",
                 "hartree_fock.scf", "analysis.binding_both_charges"):
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    for name in ("assembly.assemble_overlap", "assembly.assemble_kinetic"):
        out[name + ".self_s"] = self_s[name]
    for name in ("angular.pair_weight", "angular.power_corr_weight",
                 "angular.sincorr_weight", "quadrature.outer_rule"):
        out[name + ".calls"] = calls[name]
    out["angular.sincorr_weight.points"] = sum(
        extra["angular.sincorr_weight"])
    out["angular.self_s"] = sum(v for k, v in entry_s.items()
                                if k.startswith("angular."))
    out["analysis.sweep.self_s"] = sum(
        v for k, v in entry_s.items() if k.startswith("analysis.sweep_"))
    dims = extra["solver.solve_generalized"]
    dim_sum = sum(d for d, _ in dims)
    out["solver.solve_generalized.dim_sum"] = dim_sum
    # retained overlap modes over matrix dimension; its base is dim_sum
    out["solver.retained_share"] = (sum(k for _, k in dims) / dim_sum
                                    if dim_sum else 0.0)
    out["hartree_fock.scf.iterations"] = sum(extra["hartree_fock.scf"])
    runs = extra["optimizer.optimize"]
    out["optimizer.optimize.evaluations"] = evaluations
    out["optimizer.optimize.accepted"] = sum(a for a, _ in runs)
    out["optimizer.optimize.rejected"] = sum(r for _, r in runs)
    return out
